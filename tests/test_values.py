"""Value semantics of the ten field classes, pinned against the dataclasses
they replaced: ``repr``, ``==`` and ``hash`` by the field tuple, ordering,
immutability, ``copy`` and pickles written by the dataclass versions."""

import base64
import copy
import dataclasses
import operator
import pickle

import pytest

from mcgcalc import Basis, BasisKind, BraidWord, FreeEndomorphism, parse_word
from mcgcalc.reports import CheckCase, Mismatch, VerificationReport
from mcgcalc.twists import TwistKind, TwistSymbol, TwistWord
from mcgcalc.words import Family, Symbol, Word

AB2 = Basis.abstract(2)
W = parse_word("al1 al2^-1", AB2)


def samples():
    """One value of each class, by class name, in the order of HEAD_PICKLE."""
    return {
        "Symbol": Symbol(Family.Y, 2),
        "Basis": Basis.yz(3),
        "Word": parse_word("al1 al2^-1", AB2),
        "TwistSymbol": TwistSymbol(TwistKind.W, 1, -1),
        "TwistWord": TwistWord(2, (TwistSymbol(TwistKind.A, 1), TwistSymbol(TwistKind.W, 1, -1))),
        "BraidWord": BraidWord(3, (1, -2)),
        "FreeEndomorphism": FreeEndomorphism.from_images(AB2, {"al1": "al2", "al2": "al1 al2"}),
        "Mismatch": Mismatch("al1", W, None),
        "CheckCase": CheckCase("t", (Mismatch("al2", W, W.inverse()),)),
        "VerificationReport": VerificationReport(2, (CheckCase("u"),)),
    }


# ``repr`` of each sample as the dataclass versions wrote it.
HEAD_REPRS = {
    "Symbol": "Symbol(family=<Family.Y: 1>, index=2)",
    "Basis": "Basis(kind=<BasisKind.YZ: 'yz'>, genus_or_rank=3)",
    "Word": "Word('al1 al2^-1', basis=abstract(2))",
    "TwistSymbol": "TwistSymbol(kind=<TwistKind.W: 'w'>, index=1, sign=-1)",
    "TwistWord": "TwistWord(genus=2, symbols=(TwistSymbol(kind=<TwistKind.A: 'a'>, index=1, "
    "sign=1), TwistSymbol(kind=<TwistKind.W: 'w'>, index=1, sign=-1)))",
    "BraidWord": "BraidWord(strands=3, letters=(1, -2))",
    "FreeEndomorphism": "FreeEndomorphism(abstract(2): al1 -> al2, al2 -> al1 al2)",
    "Mismatch": "Mismatch(generator='al1', lhs=Word('al1 al2^-1', basis=abstract(2)), rhs=None)",
    "CheckCase": "CheckCase(name='t', mismatches=(Mismatch(generator='al2', lhs=Word('al1 al2^-1',"
    " basis=abstract(2)), rhs=Word('al2 al1^-1', basis=abstract(2))),))",
    "VerificationReport": "VerificationReport(genus=2, cases=(CheckCase(name='u', mismatches=()),))",
}

# ``pickle.dumps(tuple(samples().values()), protocol=4)``, written by the
# dataclass versions of the classes, base64-encoded.
HEAD_PICKLE = """
gASV+QIAAAAAAAAojA1tY2djYWxjLndvcmRzlIwGU3ltYm9slJOUKYGUfZQojAZmYW1pbHmUaACM
BkZhbWlseZSTlEsBhZRSlIwFaW5kZXiUSwJ1YmgAjAVCYXNpc5STlGgAjAlCYXNpc0tpbmSUk5SM
Anl6lIWUUpRLA4aUUpRoAIwEV29yZJSTlCmBlH2UKIwFYmFzaXOUaAxoDowIYWJzdHJhY3SUhZRS
lEsChpRSlIwEZGF0YZRLBEr4////hpR1YowObWNnY2FsYy50d2lzdHOUjAtUd2lzdFN5bWJvbJST
lCmBlH2UKIwEa2luZJRoIIwJVHdpc3RLaW5klJOUjAF3lIWUUpRoCksBjARzaWdulEr/////dWJo
IIwJVHdpc3RXb3JklJOUKYGUfZQojAVnZW51c5RLAowHc3ltYm9sc5RoIimBlH2UKGglaCeMAWGU
hZRSlGgKSwFoK0sBdWJoIimBlH2UKGglaCpoCksBaCtK/////3VihpR1YowObWNnY2FsYy5icmFp
ZHOUjAlCcmFpZFdvcmSUk5QpgZR9lCiMB3N0cmFuZHOUSwOMB2xldHRlcnOUSwFK/v///4aUdWKM
DW1jZ2NhbGMuZW5kb3OUjBBGcmVlRW5kb21vcnBoaXNtlJOUKYGUfZQoaBhoHYwFdGFibGWUKCkp
KSlLCIWUKSkpSwRLCIaUdJR1YowPbWNnY2FsYy5yZXBvcnRzlIwITWlzbWF0Y2iUk5QpgZR9lCiM
CWdlbmVyYXRvcpSMA2FsMZSMA2xoc5RoFowDcmhzlE51YmhLjAlDaGVja0Nhc2WUk5QpgZR9lCiM
BG5hbWWUjAF0lIwKbWlzbWF0Y2hlc5RoTSmBlH2UKGhQjANhbDKUaFJoFmhTaBUpgZR9lChoGGgd
aB5LCEr8////hpR1YnVihZR1YmhLjBJWZXJpZmljYXRpb25SZXBvcnSUk5QpgZR9lChoMEsCjAVj
YXNlc5RoVSmBlH2UKGhYjAF1lGhaKXVihZR1YnSULg==
"""

FIELDS = {
    "Symbol": ("family", "index"),
    "Basis": ("kind", "genus_or_rank"),
    "Word": ("basis", "data"),
    "TwistSymbol": ("kind", "index", "sign"),
    "TwistWord": ("genus", "symbols"),
    "BraidWord": ("strands", "letters"),
    "FreeEndomorphism": ("basis", "table"),
    "Mismatch": ("generator", "lhs", "rhs"),
    "CheckCase": ("name", "mismatches"),
    "VerificationReport": ("genus", "cases"),
}

NAMES = list(FIELDS)


def test_samples_are_one_of_each_class():
    assert [type(v).__name__ for v in samples().values()] == NAMES == list(HEAD_REPRS)


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_repr(name):
    assert repr(samples()[name]) == HEAD_REPRS[name]


@pytest.mark.parametrize("name", [n for n in NAMES if n != "Basis"])
def test_equality_and_hash_follow_the_field_tuple(name):
    value, again = samples()[name], samples()[name]
    fields = tuple(getattr(value, f) for f in FIELDS[name])
    assert value is not again and value == again and not value != again
    assert hash(value) == hash(again) == hash(fields)
    assert value != fields and fields != value  # another class never compares equal
    others = [v for n, v in samples().items() if n != name]
    assert all(value != other for other in others)
    assert value.__eq__(fields) is NotImplemented


def test_a_changed_field_makes_an_unequal_value():
    assert Symbol(Family.Y, 2) != Symbol(Family.Y, 3) != Symbol(Family.Z, 3)
    assert TwistSymbol(TwistKind.A, 1) != TwistSymbol(TwistKind.A, 1, -1)
    assert BraidWord(3, (1,)) != BraidWord(4, (1,))
    assert Word(AB2, (4,)) != Word(Basis.abstract(3), (4,)) != Word(AB2, (8,))
    assert CheckCase("t") != CheckCase("u")


def test_bases_keep_identity_equality():
    assert Basis.xy(2) == Basis.xy(2) and Basis.xy(2) != Basis.yz(2)
    assert hash(Basis.xy(2)) == object.__hash__(Basis.xy(2))


def test_symbols_sort_by_family_then_index():
    symbols = [Symbol(Family.Z, 1), Symbol(Family.X, 2), Symbol(Family.X, 1), Symbol(Family.ALPHA, 1)]
    assert sorted(symbols) == [
        Symbol(Family.X, 1), Symbol(Family.X, 2), Symbol(Family.Z, 1), Symbol(Family.ALPHA, 1)
    ]
    assert Symbol(Family.X, 1) <= Symbol(Family.X, 1) < Symbol(Family.Y, 1)
    assert Symbol(Family.Y, 1) >= Symbol(Family.Y, 1) > Symbol(Family.X, 9)


def test_twist_symbols_sort_by_index_then_sign_within_a_kind():
    a = [TwistSymbol(TwistKind.A, 2), TwistSymbol(TwistKind.A, 1), TwistSymbol(TwistKind.A, 1, -1)]
    assert sorted(a) == [a[2], a[1], a[0]]
    with pytest.raises(TypeError):  # the kinds are a plain Enum, which does not order
        TwistSymbol(TwistKind.A, 1) < TwistSymbol(TwistKind.B, 1)


@pytest.mark.parametrize(
    "left, right",
    [
        (W, W.inverse()),
        (BraidWord(3, (1,)), BraidWord(3, (2,))),
        (CheckCase("t"), CheckCase("u")),
        (Symbol(Family.X, 1), TwistSymbol(TwistKind.A, 1)),
        (Symbol(Family.X, 1), (Family.X, 1)),
    ],
    ids=["words", "braid-words", "cases", "symbol-and-twist", "symbol-and-tuple"],
)
def test_only_symbols_of_one_class_order(left, right):
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(left, right)


@pytest.mark.parametrize("name", NAMES)
def test_fields_can_be_neither_assigned_nor_deleted(name):
    value = samples()[name]
    before = repr(value)
    for field in (*FIELDS[name], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == before


@pytest.mark.parametrize("name", NAMES)
def test_copies_and_pickles_are_equal(name):
    value = samples()[name]
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
        if name == "Basis":
            assert twin is value


def test_pickles_of_the_dataclass_versions_load_equal():
    loaded = pickle.loads(base64.b64decode(HEAD_PICKLE))
    for (name, value), old in zip(samples().items(), loaded, strict=True):
        assert type(old) is type(value) and old == value, name
        assert repr(old) == HEAD_REPRS[name]
        assert hash(old) == hash(value) or name == "Basis"
    assert loaded[1] is Basis.yz(3)
    assert loaded[0].code == Symbol(Family.Y, 2).code and loaded[0].name == "y2"
    assert loaded[6].apply(W) == samples()["FreeEndomorphism"].apply(W)


@pytest.mark.parametrize("name", NAMES)
def test_dataclass_helpers_do_not_apply(name):
    value = samples()[name]
    assert not dataclasses.is_dataclass(value)
    for helper in (dataclasses.fields, dataclasses.asdict, dataclasses.replace):
        with pytest.raises(TypeError):
            helper(value)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Symbol(7, 1), "symbol family must be a Family, got 7"),
        (lambda: Symbol(0, 1), "symbol family must be a Family, got 0"),
        (lambda: Symbol("x", 1), "symbol family must be a Family, got 'x'"),
        (lambda: Symbol(BasisKind.XY, 1), "symbol family must be a Family, got <BasisKind.XY: 'xy'>"),
        (lambda: TwistSymbol("a", 1), "twist kind must be a TwistKind, got 'a'"),
        (lambda: TwistSymbol(Family.X, 1), "twist kind must be a TwistKind, got <Family.X: 0>"),
        (lambda: TwistSymbol(None, 1), "twist kind must be a TwistKind, got None"),
    ],
    ids=["symbol-int", "symbol-zero", "symbol-text", "symbol-basis-kind",
         "twist-text", "twist-family", "twist-none"],
)
def test_a_family_or_kind_of_another_type_is_refused(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


A1 = TwistSymbol(TwistKind.A, 1)
W1 = TwistSymbol(TwistKind.W, 1, -1)


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda seq: Word(AB2, seq([4, -8])), "data"),
        (lambda seq: BraidWord(3, seq([1, -2])), "letters"),
        (lambda seq: TwistWord(2, seq([A1, W1])), "symbols"),
        (lambda seq: CheckCase("t", seq([Mismatch("al1", W, None)])), "mismatches"),
        (lambda seq: VerificationReport(2, seq([CheckCase("t"), CheckCase("u")])), "cases"),
    ],
    ids=["word", "braid-word", "twist-word", "check-case", "report"],
)
def test_sequence_fields_are_stored_as_tuples(build, field):
    built = {seq.__name__: build(seq) for seq in (tuple, list, iter)}
    assert built["tuple"] == built["list"] == built["iter"]
    assert len({hash(v) for v in built.values()}) == 1
    assert all(type(getattr(v, field)) is tuple for v in built.values())


def test_products_of_words_built_from_lists():
    assert BraidWord(3, [1]) * BraidWord(3, (2,)) == BraidWord(3, (1, 2))
    assert TwistWord(2, [A1]) * TwistWord(2, (W1,)) == TwistWord(2, (A1, W1))
    assert str(TwistWord(2, [A1, W1]).inverse()) == "w1 a1^-1"
