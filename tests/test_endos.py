import json
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from mcgcalc import _wordops
from mcgcalc import _wordops_py as py
from mcgcalc import (
    Basis,
    BasisKind,
    BasisMismatchError,
    BraidWord,
    DEFAULT_IMAGE_BUDGET,
    FreeEndomorphism,
    ImageBudgetError,
    TwistKind,
    TwistSymbol,
    Word,
    artin_action,
    conjugate_to_yz,
    dehn_twist_action,
    format_word,
    evaluate_twist_word,
    is_trivial_braid,
    parse_twist_word,
    parse_word,
    pillar_switching_action,
    pillar_switching_yz,
    product,
    random_braid_word,
    restrict_to_z,
    verify_inverse_pair,
)
from mcgcalc.braids import _artin_generator
from mcgcalc.reports import CheckCase, case_from_endos

XY2 = Basis.xy(2)

A1 = dehn_twist_action(TwistSymbol(TwistKind.A, 1), 2)
B1 = dehn_twist_action(TwistSymbol(TwistKind.B, 1), 2)
W1 = dehn_twist_action(TwistSymbol(TwistKind.W, 1), 2)
TWISTS_AND_INVERSES = [
    dehn_twist_action(TwistSymbol(kind, 1, sign), 2)
    for kind in (TwistKind.A, TwistKind.B, TwistKind.W)
    for sign in (1, -1)
]


def signed_codes(basis):
    pool = [sym.code for sym in basis.symbols]
    return st.sampled_from([c for code in pool for c in (code, -code)])


def words(basis, max_size=25):
    return st.lists(signed_codes(basis), max_size=max_size).map(
        lambda codes: Word.from_letters(basis, codes)
    )


# --- apply -------------------------------------------------------------------


def test_apply_a1_to_y1():
    assert A1.apply(parse_word("y1", XY2)) == parse_word("y1 x1^-1", XY2)


def test_apply_identity():
    w = parse_word("x1 y2 x2^-1 y1", XY2)
    assert FreeEndomorphism.identity(XY2).apply(w) == w


def test_apply_w1_to_y2():
    assert W1.apply(parse_word("y2", XY2)) == parse_word("y2 x2^-1 y2^-1 x1 y2", XY2)


def test_apply_rejects_basis_mismatch():
    with pytest.raises(BasisMismatchError):
        A1.apply(parse_word("y1", Basis.yz(2)))


@given(words(XY2), words(XY2))
def test_apply_is_a_homomorphism(u, v):
    f = pillar_switching_action(0, 2)
    assert f.apply(u * v) == f.apply(u) * f.apply(v)
    assert f.apply(Word.identity(XY2)) == Word.identity(XY2)


# --- image_text ----------------------------------------------------------------


@given(words(XY2))
def test_image_text_is_the_printed_image(w):
    for f in (A1, W1, pillar_switching_action(0, 2), FreeEndomorphism.identity(XY2)):
        assert f.image_text(w) == format_word(f.apply(w))


def test_repr_is_pinned():
    f = FreeEndomorphism.from_images(
        Basis.abstract(3), {"al1": "al2 al3^-1 al2", "al2": "1", "al3": "al3^-1"}
    )
    assert repr(f) == (
        "FreeEndomorphism(abstract(3): al1 -> al2 al3^-1 al2, al2 -> 1, al3 -> al3^-1)"
    )


def test_image_text_of_the_identity_is_1():
    assert A1.image_text(Word.identity(XY2)) == "1"
    kills_x1 = FreeEndomorphism.from_images(XY2, {"x1": "1"}, fix_unlisted=True)
    assert kills_x1.image_text(parse_word("x1 x1", XY2)) == "1"
    assert kills_x1.image_text(parse_word("x1 y1 x1", XY2)) == "y1"


def test_image_text_refuses_what_apply_refuses():
    w = parse_word("y1 x2 y1", XY2)
    for call in (A1.apply, A1.image_text):
        with pytest.raises(BasisMismatchError, match=r"a word over yz\(2\)"):
            call(parse_word("y1", Basis.yz(2)))
        with pytest.raises(ImageBudgetError) as excinfo:
            call(w, budget=4)
        assert (excinfo.value.needed, excinfo.value.budget) == (5, 4)
    assert A1.image_text(w, budget=5) == "y1 x1^-1 x2 y1 x1^-1"


# --- compose / power ----------------------------------------------------------


def test_compose_acts_right_to_left():
    # b1 first, then a1
    composed = A1.compose(B1)
    assert composed.apply(parse_word("x1", XY2)) == parse_word("x1 y1 x1^-1", XY2)


def test_compose_identity_is_neutral():
    identity = FreeEndomorphism.identity(XY2)
    assert A1.compose(identity) == A1
    assert identity.compose(A1) == A1


def test_compose_b1_twice_by_hand():
    # x1 -> x1 y1 -> x1 y1 y1
    assert B1.compose(B1).apply(parse_word("x1", XY2)) == parse_word("x1 y1 y1", XY2)


@given(st.lists(st.sampled_from([A1, B1, W1]), min_size=3, max_size=3))
def test_compose_is_associative(triple):
    f, g, h = triple
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_power():
    f = W1.compose(A1.compose(B1))
    assert f.power(0) == FreeEndomorphism.identity(XY2)
    assert f.power(1) == f
    explicit = W1.compose(A1).compose(B1).compose(W1).compose(A1).compose(B1)
    assert f.power(2) == explicit
    with pytest.raises(ValueError):
        f.power(-1)


# --- product -------------------------------------------------------------------


@given(st.lists(st.sampled_from(TWISTS_AND_INVERSES), max_size=6), words(XY2))
def test_product_matches_applying_factors_right_to_left(factors, w):
    expected = w
    for f in reversed(factors):
        expected = f.apply(expected)
    assert product(XY2, factors).apply(w) == expected


def reference_product(basis, factors, budget, sizes):
    """``product``'s step loop as it was before it stepped only the moved rows,
    kept as the reference: every step copies the table, compares every row
    with its generator and sums every image for the budget. Each size checked
    against the budget is appended to ``sizes``."""
    codes = [sym.code for sym in basis.symbols]
    letters = [(code, (code,)) for code in codes]

    def check(size):
        sizes.append(size)
        if size > budget:
            raise ImageBudgetError(size, budget)

    def check_total(table):
        check(sum([len(table[code]) for code in codes]))

    def image(word, table):
        check(sum([len(table[code if code > 0 else -code]) for code in word]))
        return _wordops.substitute(word, table)

    table = factors[0].table
    check_total(table)
    for f in factors[1:]:
        step = list(table)
        for code, letter in letters:
            img = f.table[code]
            if img == letter:  # f fixes this generator
                continue
            step[code] = image(img, table)
        table = tuple(step)
        check_total(table)
    return FreeEndomorphism(basis, table)


def budget_outcome(evaluate, *args, **kwargs):
    try:
        return evaluate(*args, **kwargs)
    except ImageBudgetError as exc:
        return ("budget", exc.needed, exc.budget)


# A row is either fixed (None) or a short image, so factors fix some rows,
# move others, and now and then move every row.
AB3 = Basis.abstract(3)
ENDOS_AB3 = st.lists(
    st.one_of(st.none(), words(AB3, max_size=5)), min_size=3, max_size=3
).map(
    lambda rows: FreeEndomorphism.from_images(
        AB3,
        {sym.name: w for sym, w in zip(AB3.symbols, rows) if w is not None},
        fix_unlisted=True,
    )
)


@given(
    pool=st.lists(ENDOS_AB3, min_size=1, max_size=3),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=7),
    data=st.data(),
)
def test_product_matches_the_full_step_loop(compiled_kernel, pool, picks, data):
    # factors repeat, as the generators of a braid or twist word do
    factors = [pool[k % len(pool)] for k in picks]
    sizes = []
    reference_product(AB3, factors, DEFAULT_IMAGE_BUDGET, sizes)
    # a budget at or just below one of the sizes the steps check
    budget = max(0, data.draw(st.sampled_from(sizes)) - data.draw(st.integers(0, 1)))
    for kernel in (py, compiled_kernel):
        with mock.patch.object(_wordops, "substitute", kernel.substitute):
            expected = budget_outcome(reference_product, AB3, factors, budget, [])
            got = budget_outcome(product, AB3, factors, budget=budget)
        assert got == expected, kernel.BACKEND


# Artin generators on 3..8 strands: each moves two rows and renames one of
# them, so every later factor takes one row from the accumulated table as it is.
ARTIN_WORDS = [
    (n, random_braid_word(n, 12, random.Random(n)).letters) for n in range(3, 9)
]


@pytest.mark.parametrize("strands, letters", ARTIN_WORDS, ids=[f"n{n}" for n, _ in ARTIN_WORDS])
def test_product_of_artin_generators_matches_the_full_step_loop(
    compiled_kernel, strands, letters
):
    basis = Basis.abstract(strands)
    factors = [_artin_generator(k, strands) for k in letters]
    sizes = []
    reference_product(basis, factors, DEFAULT_IMAGE_BUDGET, sizes)
    # every size the steps check, and one below each
    budgets = sorted({s - d for s in sizes for d in (0, 1) if s - d >= 0})
    for kernel in (py, compiled_kernel):
        with mock.patch.object(_wordops, "substitute", kernel.substitute):
            for budget in budgets:
                expected = budget_outcome(reference_product, basis, factors, budget, [])
                got = budget_outcome(product, basis, factors, budget=budget)
                assert got == expected, (kernel.BACKEND, budget)


def test_a_renamed_row_is_the_accumulated_row():
    # b1 sends al1 to al2, so stepping it takes the accumulated row of al2 as
    # the row of al1, the object itself, and calls the kernel only for al2's row
    s1, s2 = _artin_generator(1, 3), _artin_generator(2, 3)
    al1, al2 = (AB3.generator(name).data[0] for name in ("al1", "al2"))
    substitute = _wordops.substitute
    with mock.patch.object(_wordops, "substitute", wraps=substitute) as calls:
        f = product(AB3, [s2, s1])
    assert f.table[al1] is s2.table[al2]
    assert calls.call_count == 1
    assert f == artin_action(BraidWord(3, (2, 1)))


def test_product_rejects_basis_mismatch():
    with pytest.raises(BasisMismatchError):
        product(Basis.xy(3), [A1])


def test_product_rejects_a_late_basis_mismatch_before_any_step():
    late = dehn_twist_action(TwistSymbol(TwistKind.A, 1), 3)
    # budget 1 fails the first step, so the mismatch must be found before it
    with pytest.raises(BasisMismatchError, match=r"xy\(3\)"):
        product(XY2, [A1, B1, W1] * 20 + [late], budget=1)


def test_product_accepts_an_equal_basis_object():
    # an equal basis is the shared one: the constructor returns XY2 itself
    f = FreeEndomorphism(Basis(BasisKind.XY, 2), A1.table)
    assert f.basis is XY2 and f == A1
    assert product(XY2, [f, A1]) == A1.compose(A1)
    assert product(Basis(kind=BasisKind.XY, genus_or_rank=2), [A1, B1]) == product(XY2, [f, B1])


def test_a_constructor_built_basis_works_as_the_shared_one():
    twin = Basis(BasisKind.XY, 2)
    f = FreeEndomorphism(twin, A1.table)
    w = parse_word("x1 y1 x2^-1", twin)
    assert A1.apply(w) == f.apply(w) == A1.apply(parse_word("x1 y1 x2^-1", XY2))
    assert product(twin, [A1, B1]) == product(XY2, [f, B1])
    assert case_from_endos("t", A1, f) == CheckCase("t")
    assert case_from_endos("t", B1, f).mismatches


def test_product_of_one_factor_is_that_factor():
    f = product(XY2, [A1, B1])
    assert product(XY2, [f]) is f
    assert product(Basis(BasisKind.XY, 2), [f]) is f
    with pytest.raises(ImageBudgetError) as excinfo:
        product(XY2, [f], budget=f._letter_total - 1)
    assert excinfo.value.needed == f._letter_total


def test_a_map_computes_its_moved_rows_once():
    f = FreeEndomorphism(AB3, _artin_generator(1, 3).table)  # nothing cached yet
    assert "_moved" not in vars(f) and "_letter_total" not in vars(f)
    moved = type(f).__dict__["_moved"]
    with mock.patch.object(moved, "func", wraps=moved.func) as computed:
        first = product(AB3, [_artin_generator(2, 3), f])
        second = product(AB3, [f, _artin_generator(2, 3), f])
    assert [call.args[0] for call in computed.call_args_list].count(f) == 1
    al1, al2 = (AB3.generator(name).data[0] for name in ("al1", "al2"))
    assert f._moved == ((al1, (al2,), al2), (al2, (-al2, al1, al2), 0))  # al1 -> al2 renames
    assert vars(f)["_letter_total"] == 1 + 3 + 1  # the first factor of the second product
    assert first == artin_action(BraidWord(3, (2, 1)))
    assert second == artin_action(BraidWord(3, (1, 2, 1)))
    # the cached rows are not part of the value
    assert f == _artin_generator(1, 3) and set(vars(pickle.loads(pickle.dumps(f)))) == {"basis", "table"}


# --- equality ------------------------------------------------------------------


def test_equality_of_identities():
    assert FreeEndomorphism.identity(XY2) == FreeEndomorphism.identity(XY2)


def test_distinct_twists_differ():
    assert A1 != B1


def test_sigma0_equals_its_twist_factorization():
    chain = A1.compose(B1)
    chain = W1.compose(chain)
    chain = B1.compose(chain)
    chain = A1.compose(chain)
    chain = W1.compose(chain)
    a2_inv = dehn_twist_action(TwistSymbol(TwistKind.A, 2, -1), 2)
    chain = a2_inv.compose(chain)
    assert chain == pillar_switching_action(0, 2)


@given(words(XY2))
def test_equal_endos_act_equally(w):
    f = pillar_switching_action(1, 2)
    h = FreeEndomorphism.from_images(
        XY2, {sym.name: f.image_of(sym) for sym in XY2.symbols}
    )
    assert f == h
    assert f.apply(w) == h.apply(w)


def test_equal_maps_are_equal_values_however_built():
    by_product = product(XY2, [A1, B1])
    by_compose = A1.compose(B1)
    by_images = FreeEndomorphism.from_images(
        XY2, {sym.name: format_word(by_product.image_of(sym)) for sym in XY2.symbols}
    )
    assert by_product == by_compose == by_images
    assert len({by_product, by_compose, by_images}) == 1
    identities = [
        product(XY2, []),
        A1.power(0),
        FreeEndomorphism.identity(XY2),
        FreeEndomorphism.from_images(XY2, {}, fix_unlisted=True),
        A1.compose(FreeEndomorphism.from_images(XY2, {"y1": "y1 x1"}, fix_unlisted=True)),
    ]
    assert all(f == identities[0] for f in identities)
    assert len(set(identities)) == 1
    assert len({by_product, identities[0]}) == 2


@pytest.mark.parametrize(
    "f",
    [
        pillar_switching_action(1, 3),
        pillar_switching_yz(1, 3),
        artin_action(BraidWord(4, (1, -3, 2))),
    ],
    ids=["xy", "yz", "abstract"],
)
def test_images_follow_the_basis_symbols(f):
    assert len(f.images) == len(f.basis.symbols)
    for sym, image in zip(f.basis.symbols, f.images):
        assert image == f.image_of(sym) == f.apply(f.basis.generator(sym))
        assert image.data == f.table[sym.code]
    assert type(f.table) is tuple
    assert all(type(row) is tuple for row in f.table)


def test_constructor_checks_the_table_length():
    rows = FreeEndomorphism.identity(XY2).table
    assert FreeEndomorphism(XY2, rows) == FreeEndomorphism.identity(XY2)
    with pytest.raises(ValueError):
        FreeEndomorphism(XY2, rows[:-1])


# xy(2) uses the codes 1, 2, 5 and 6; 3, 4 and 99 are no letter of it.
@pytest.mark.parametrize(
    "table, error, message",
    [
        (((), (99,), (2,), (), (), (5,), (6,)), BasisMismatchError,
         "image of x1: letter code 99 is not admitted by xy(2)"),
        (((), (1,), (2,), (), (), (5,), (-4, 6)), BasisMismatchError,
         "image of y2: letter code -4 is not admitted by xy(2)"),
        (((), (1, -1, 1), (2,), (), (), (5,), (6,)), ValueError,
         "image of x1: word is not freely reduced"),
        (((), (1,), (2,), (3,), (), (5,), (6,)), ValueError,
         "code 3 is no generator of xy(2), but its row is (3,)"),
        (((), (1,), (True,), (), (), (5,), (6,)), TypeError,
         "letter codes are ints, not bool"),
    ],
    ids=["unknown-letter", "unused-code-as-letter", "unreduced", "row-at-unused-code", "bool"],
)
def test_constructor_refuses_a_row_no_builder_makes(table, error, message):
    # Before, the first table's repr raised IndexError and the third was an
    # identity map that neither is_identity() nor == recognized.
    with pytest.raises(error) as excinfo:
        FreeEndomorphism(XY2, table)
    assert str(excinfo.value) == message


def test_constructor_accepts_the_rows_of_every_builder():
    maps = [
        A1, W1, A1.compose(W1), FreeEndomorphism.identity(XY2),
        FreeEndomorphism.from_images(XY2, {"x1": "y2^-1 x1"}, fix_unlisted=True),
        conjugate_to_yz(W1), pillar_switching_yz(1, 3), _artin_generator(-2, 4),
    ]
    for f in maps:
        twin = FreeEndomorphism(f.basis, [list(row) for row in f.table])
        assert twin == f and type(twin.table[1]) is tuple


YZ_SIGMA1 = pillar_switching_yz(1, 2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FreeEndomorphism.identity(XY2),
        lambda: FreeEndomorphism.from_images(XY2, {"x1": "y1"}, fix_unlisted=True),
        lambda: FreeEndomorphism._moving(XY2, {1: (2,)}),
        lambda: product(XY2, [A1, B1]),
        lambda: conjugate_to_yz(A1),
        lambda: restrict_to_z(YZ_SIGMA1),
        lambda: FreeEndomorphism(XY2, A1.table),
    ],
    ids=["identity", "from_images", "_moving", "product", "conjugate_to_yz",
         "restrict_to_z", "public"],
)
def test_every_builder_runs_post_init(build):
    # the tracer counts constructed maps by wrapping __post_init__
    post_init = FreeEndomorphism.__post_init__
    with mock.patch.object(FreeEndomorphism, "__post_init__", autospec=True,
                           side_effect=post_init) as hook:
        build()
    assert hook.call_count == 1


# --- inverse verification -------------------------------------------------------


def test_verify_inverse_pair_identity():
    identity = FreeEndomorphism.identity(XY2)
    assert verify_inverse_pair(identity, identity)


def test_verify_inverse_pair_a1():
    a1_inv = FreeEndomorphism.from_images(XY2, {"y1": "y1 x1"}, fix_unlisted=True)
    assert verify_inverse_pair(A1, a1_inv)


def test_verify_inverse_pair_rejects_non_inverse():
    assert not verify_inverse_pair(A1, B1)


# --- budget ----------------------------------------------------------------------


def test_apply_respects_budget_argument():
    f = pillar_switching_action(0, 2)
    long_word = f.apply(f.apply(parse_word("x1 y1 x2 y2", XY2)))
    with pytest.raises(ImageBudgetError):
        f.apply(long_word, budget=5)


def test_compose_respects_budget():
    with pytest.raises(ImageBudgetError) as excinfo:
        W1.compose(W1, budget=3)
    assert excinfo.value.budget == 3
    assert excinfo.value.needed > 3


# Each budget admits the first factor (or, for conjugate_to_yz, the images of
# y1 and y2) and is exceeded at a later step, needing exactly ``needed`` letters.
@pytest.mark.parametrize(
    "evaluate, budget, needed",
    [
        (
            lambda budget: evaluate_twist_word(
                parse_twist_word("w1 a1 b1 w1 a1 b1", 2), budget=budget
            ),
            20,
            25,
        ),
        (lambda budget: artin_action(BraidWord(3, (1, 2, 1, 2)), budget=budget), 8, 9),
        (
            lambda budget: is_trivial_braid(BraidWord(3, (1, 2, 1, 2)), budget=budget),
            8,
            9,
        ),
        (lambda budget: W1.power(3, budget=budget), 40, 53),
        (
            lambda budget: conjugate_to_yz(
                pillar_switching_action(1, 2), budget=budget
            ),
            10,
            15,
        ),
        # the second factor's moved rows both exceed; the first in basis order reports
        (
            lambda budget: product(
                AB3,
                [
                    FreeEndomorphism.from_images(
                        AB3, {"al1": "al1 al2 al3"}, fix_unlisted=True
                    ),
                    FreeEndomorphism.from_images(
                        AB3, {"al1": "al1 al1", "al2": "al1 al2 al1"}, fix_unlisted=True
                    ),
                ],
                budget=budget,
            ),
            5,
            6,
        ),
    ],
    ids=[
        "evaluate_twist_word",
        "artin_action",
        "is_trivial_braid",
        "power",
        "conjugate_to_yz",
        "product",
    ],
)
def test_products_respect_budget_argument(evaluate, budget, needed):
    with pytest.raises(ImageBudgetError) as excinfo:
        evaluate(budget)
    assert excinfo.value.budget == budget
    assert excinfo.value.needed == needed


# --- construction and JSON --------------------------------------------------------


def test_from_images_requires_all_generators():
    with pytest.raises(ValueError):
        FreeEndomorphism.from_images(XY2, {"x1": "x1"})
    with pytest.raises(ValueError):
        FreeEndomorphism.from_images(XY2, {"nope": "x1"}, fix_unlisted=True)
    with pytest.raises(BasisMismatchError):
        FreeEndomorphism.from_images(
            XY2, {"y1": parse_word("y1", Basis.yz(2))}, fix_unlisted=True
        )


def test_image_of_by_name():
    assert A1.image_of("y1") == parse_word("y1 x1^-1", XY2)
    assert A1.image_of("x2") == parse_word("x2", XY2)


def test_json_roundtrip():
    f = pillar_switching_action(0, 2)
    payload = json.loads(f.to_json())
    assert payload["basis"] == {"kind": "xy", "genus_or_rank": 2}
    assert FreeEndomorphism.from_json_dict(payload) == f


@pytest.mark.parametrize("rank", [2.9, True, "2"], ids=["float", "bool", "text"])
def test_from_json_refuses_a_rank_that_is_not_an_int(rank):
    payload = json.loads(pillar_switching_action(0, 2).to_json())
    payload["basis"]["genus_or_rank"] = rank
    with pytest.raises(ValueError) as excinfo:
        FreeEndomorphism.from_json_dict(payload)
    assert str(excinfo.value) == f"genus_or_rank must be an int, got {rank!r}"
