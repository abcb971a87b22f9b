from unittest import mock

import pytest

from mcgcalc import (
    Basis,
    BasisKind,
    BasisMismatchError,
    FreeEndomorphism,
    ImageBudgetError,
    TwistKind,
    TwistSymbol,
    Word,
    WordSyntaxError,
    commutator,
    dehn_twist_action,
    evaluate_twist_word,
    fixes_relator,
    fundamental_relator,
    parse_word,
    pillar_switching_action,
    pillar_switching_inverse,
    pillar_switching_twist_word,
    pillar_switching_yz,
    replay_proof_chains,
    verify_inverse_pair,
    verify_relator_invariance,
    verify_theorem_2_2,
    word_with_z,
    z_loop,
)
from mcgcalc import pillars, twists
from mcgcalc.endos import product
from mcgcalc.reports import CheckCase, Mismatch, VerificationReport, case_from_endos
from mcgcalc.twists import _all_twist_symbols
from test_twists import scanned_moved, z_map_from_texts


# --- switching actions ---------------------------------------------------------


def test_sigma0_images_at_genus_2():
    f = pillar_switching_action(0, 2)
    assert f.image_of("x1") == word_with_z("z1^-1 y1 z1 y1^-1 z1", 2)
    assert f.image_of("y1") == word_with_z("z1^-1 y1^-1 z1", 2)
    assert f.image_of("y2") == word_with_z("z1^-1 y1 z1 y2", 2)
    assert f.image_of("x2") == parse_word("x2", Basis.xy(2))


def test_sigma0_fixes_far_generators():
    f = pillar_switching_action(0, 3)
    for name in ("x3", "y3"):
        assert f.image_of(name) == parse_word(name, Basis.xy(3))


def test_middle_sigma_images_at_genus_3():
    f = pillar_switching_action(1, 3)
    b = Basis.xy(3)
    assert f.image_of("y1") == parse_word("y1 y2", b)
    assert f.image_of("x1") == parse_word("y2^-1 x1 y2", b)
    assert f.image_of("y2") == word_with_z("z2^-1 y2^-1 z2", 3)
    assert f.image_of("x2") == word_with_z("z2^-1 y2 z2 y2^-1 x1 z2", 3)
    assert f.image_of("y3") == word_with_z("z2^-1 y2 z2 y3", 3)
    assert f.image_of("x3") == parse_word("x3", b)


def test_last_sigma_images_at_genus_2():
    f = pillar_switching_action(1, 2)
    b = Basis.xy(2)
    assert f.image_of("y2") == parse_word("x2 y2^-1 x2^-1", b)
    assert f.image_of("x1") == parse_word("y2^-1 x1 y2", b)
    assert f.image_of("x2") == word_with_z("x2 z1^-1 x2^-1", 2)
    assert f.image_of("y1") == parse_word("y1 y2", b)


def test_switching_index_validation():
    with pytest.raises(ValueError):
        pillar_switching_action(0, 1)
    with pytest.raises(ValueError):
        pillar_switching_action(2, 2)
    with pytest.raises(ValueError):
        pillar_switching_action(-1, 3)


def test_switching_inverses_certified():
    for g in (2, 3, 4):
        for i in range(g):
            assert verify_inverse_pair(
                pillar_switching_action(i, g), pillar_switching_inverse(i, g)
            ), (g, i)


# The genus-keyed caches: True and 2.0 hash and compare like 1 and 2, so each
# cached map checks its arguments before its cache serves the int's entry.
@pytest.mark.parametrize(
    "fn, args, k, bad, label",
    [
        (fundamental_relator, (1,), 0, True, "genus"),
        (fundamental_relator, (2,), 0, 2.0, "genus"),
        (pillar_switching_action, (0, 2), 0, 0.0, "switching index"),
        (pillar_switching_action, (0, 2), 0, False, "switching index"),
        (pillar_switching_action, (0, 2), 1, 2.0, "genus"),
        (pillar_switching_twist_word, (1, 3), 0, True, "switching index"),
        (pillar_switching_twist_word, (1, 3), 1, 3.0, "genus"),
        (pillar_switching_inverse, (0, 2), 0, 0.0, "switching index"),
        (pillar_switching_inverse, (0, 2), 1, 2.0, "genus"),
        (pillar_switching_yz, (1, 2), 0, True, "switching index"),
        (pillar_switching_yz, (1, 2), 1, 2.0, "genus"),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_cached_maps_refuse_a_genus_or_index_that_only_equals_an_int(fn, args, k, bad, label):
    fn(*args)  # the int entry is cached
    cached = fn.cache_info().currsize
    bad_args = list(args)
    bad_args[k] = bad
    with pytest.raises(ValueError) as excinfo:
        fn(*bad_args)
    assert str(excinfo.value) == f"{label} must be an int, got {bad!r}"
    assert fn.cache_info().currsize == cached


# A keyword call is bound to its positions before the cache is read, so it
# returns the map the positional call cached and stores nothing new.
@pytest.mark.parametrize(
    "fn, args, kwargs",
    [
        (pillar_switching_action, (0, 2), {"i": 0, "genus": 2}),
        (pillar_switching_action, (1, 3), {"genus": 3}),
        (dehn_twist_action, (TwistSymbol(TwistKind.W, 1), 2),
         {"sym": TwistSymbol(TwistKind.W, 1), "genus": 2}),
        (z_loop, (1, 3), {"genus": 3, "i": 1}),
    ],
    ids=["switching", "switching-genus-by-keyword", "twist", "z-loop"],
)
def test_cached_maps_key_a_keyword_call_as_the_positional_one(fn, args, kwargs):
    first = fn(*args)
    cached = fn.cache_info().currsize
    positional = args[: len(args) - len(kwargs)]
    assert fn(*positional, **kwargs) is first
    assert fn.cache_info().currsize == cached


# Keywords are bound up to the first parameter not given; one left over is
# Python's own TypeError, and the cache stores nothing for it.
@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((), {"genus": 2}, "missing 1 required positional argument: 'i'"),
        ((), {"genus": 2, "sym": 1}, "unexpected keyword argument 'sym'"),
        ((1,), {}, "missing 1 required positional argument: 'genus'"),
        ((0,), {"i": 0}, "multiple values for argument 'i'"),
        ((0, 2), {"genus": 2}, "multiple values for argument 'genus'"),
        ((0, 2), {"g": 2}, "unexpected keyword argument 'g'"),
        ((0,), {"genus": 2, "g": 2}, "unexpected keyword argument 'g'"),
    ],
    ids=["missing-first", "missing-first-and-unknown", "missing-last", "duplicate-first",
         "duplicate-last", "unknown", "unknown-after-bound"],
)
def test_cached_maps_refuse_keywords_they_cannot_bind(args, kwargs, message):
    pillar_switching_action(0, 2)
    cached = pillar_switching_action.cache_info().currsize
    with pytest.raises(TypeError, match=message):
        pillar_switching_action(*args, **kwargs)
    assert pillar_switching_action.cache_info().currsize == cached


# --- relator ----------------------------------------------------------------------


def test_relator_at_genus_1():
    assert fundamental_relator(1) == parse_word("y1 x1 y1^-1 x1^-1", Basis.xy(1))


def test_relator_length_is_4g():
    for g in range(1, 9):
        assert len(fundamental_relator(g)) == 4 * g


def test_a1_fixes_relator_at_genus_2():
    from mcgcalc import TwistKind, TwistSymbol

    f = dehn_twist_action(TwistSymbol(TwistKind.A, 1), 2)
    assert f.apply(fundamental_relator(2)) == fundamental_relator(2)


def test_commutator_convention():
    b = Basis.xy(1)
    u, v = parse_word("y1", b), parse_word("x1", b)
    assert commutator(u, v) == parse_word("y1 x1 y1^-1 x1^-1", b)


def test_opposite_commutator_convention_is_not_twist_invariant():
    # relator built with [u,v] = u^-1 v^-1 u v instead
    b = Basis.xy(2)
    alt = Word.identity(b)
    for i in (1, 2):
        y, x = parse_word(f"y{i}", b), parse_word(f"x{i}", b)
        alt = alt * (y.inverse() * x.inverse() * y * x)
    moved = [
        sym
        for sym in _all_twist_symbols(2)
        if dehn_twist_action(sym, 2).apply(alt) != alt
    ]
    assert moved, "some twist must move the alternative relator"


def test_fixes_relator():
    assert fixes_relator(FreeEndomorphism.identity(Basis.xy(2)))
    swap = FreeEndomorphism.from_images(
        Basis.xy(2), {"x1": "y1", "y1": "x1"}, fix_unlisted=True
    )
    assert not fixes_relator(swap)
    for i in range(4):
        assert fixes_relator(pillar_switching_action(i, 4))
    with pytest.raises(BasisMismatchError):
        fixes_relator(FreeEndomorphism.identity(Basis.yz(2)))


def test_verify_relator_invariance():
    for g in (2, 3, 4):
        report = verify_relator_invariance(g)
        assert report.all_hold
        assert [c.name for c in report.cases] == [
            "relator-fixed-by-twists",
            "relator-fixed-by-pillar-switchings",
        ]


# --- factorizations -----------------------------------------------------------------


def test_twist_words_match_stated_products():
    assert str(pillar_switching_twist_word(0, 2)) == "a2^-1 w1 a1 b1 w1 a1 b1"
    assert str(pillar_switching_twist_word(1, 3)) == "a3^-1 a2 b2 w2 w1 a1^-1 b2 a2"
    assert str(pillar_switching_twist_word(2, 3)) == "w2 a3 b3 w2 a3 b3 a2^-1"


def test_verify_theorem_2_2_case_layout():
    report2 = verify_theorem_2_2(2)
    assert [c.name for c in report2.cases] == [
        "thm-2.2-case-1-sigma0",
        "thm-2.2-case-3-sigma1",
    ]
    assert report2.all_hold

    report3 = verify_theorem_2_2(3)
    assert [c.name for c in report3.cases] == [
        "thm-2.2-case-1-sigma0",
        "thm-2.2-case-2-sigma1",
        "thm-2.2-case-3-sigma2",
    ]
    assert report3.all_hold

    report5 = verify_theorem_2_2(5)
    assert len(report5.cases) == 5
    assert report5.all_hold


def test_verify_theorem_2_2_rejects_genus_1():
    with pytest.raises(ValueError):
        verify_theorem_2_2(1)


def test_report_json_shape():
    payload = verify_theorem_2_2(2).to_json_dict()
    assert payload["genus"] == 2
    assert all(case["holds"] for case in payload["cases"])
    assert payload["cases"][0]["mismatches"] == []


def test_mismatches_are_reported_per_generator():
    from mcgcalc.reports import case_from_endos

    lhs = pillar_switching_action(0, 2)
    rhs = FreeEndomorphism.identity(Basis.xy(2))
    case = case_from_endos("probe", lhs, rhs)
    assert not case.holds
    assert {m.generator for m in case.mismatches} == {"x1", "y1", "y2"}


@pytest.mark.parametrize(
    "lhs, rhs",
    [(Basis.xy(2), Basis.xy(3)), (Basis.xy(2), Basis.yz(2)), (Basis.abstract(3), Basis.xy(3))],
    ids=["xy2-xy3", "xy2-yz2", "al3-xy3"],
)
def test_case_from_endos_refuses_maps_over_different_bases(lhs, rhs):
    f, h = FreeEndomorphism.identity(lhs), FreeEndomorphism.identity(rhs)
    assert f != h
    with pytest.raises(BasisMismatchError) as excinfo:
        case_from_endos("t", f, h)
    assert str(excinfo.value) == f"cannot compare maps over {lhs} and {rhs}"


def test_case_from_endos_on_equal_tables_compares_no_generator():
    f = pillar_switching_action(1, 3)
    # an equal table that is not the same object, over the one shared basis
    twin = FreeEndomorphism(Basis(BasisKind.XY, 3), tuple(tuple(list(row)) for row in f.table))
    assert twin.basis is f.basis and twin.table is not f.table and twin.table == f.table
    # the equal tables answer: no generator is listed, no image is built
    with mock.patch.object(Basis, "symbols", mock.PropertyMock(side_effect=AssertionError)):
        assert case_from_endos("t", f, twin) == CheckCase("t")
        assert case_from_endos("t", f, f) == CheckCase("t")


# --- chain replay ----------------------------------------------------------------------


def test_replay_chains_hold_at_small_genus():
    for g in (2, 3, 4):
        report = replay_proof_chains(g)
        assert report.all_hold, [c.name for c in report.cases if not c.holds]


def test_replay_case_counts():
    # case 1: 4 chains + the z1 consistency check; case 3: 5 chains;
    # case 2: 7 chains per middle position
    assert len(replay_proof_chains(2).cases) == 10
    assert len(replay_proof_chains(4).cases) == 10 + 2 * 7


def _chain_names(case, starts):
    return [f"thm-2.2-chain-case-{case}-{start}" for start in starts.split()]


@pytest.mark.parametrize(
    "genus, names",
    [
        (
            2,
            _chain_names("1", "x1 y1 y2 z1 z1-vs-action")
            + _chain_names("3", "x1 x2 y1 y2 z1"),
        ),
        (
            5,
            _chain_names("1", "x1 y1 y2 z1 z1-vs-action")
            + _chain_names("2-sigma1", "x1 x2 y1 y2 y3 z1 z2")
            + _chain_names("2-sigma2", "x2 x3 y2 y3 y4 z2 z3")
            + _chain_names("2-sigma3", "x3 x4 y3 y4 y5 z3 z4")
            + _chain_names("3", "x4 x5 y4 y5 z4"),
        ),
    ],
)
def test_replay_case_names_in_order(genus, names):
    assert [case.name for case in replay_proof_chains(genus).cases] == names


def test_replay_reads_the_certified_factorization(monkeypatch):
    # Swapping the two rightmost twists of sigma_0 must break the case-1
    # replay: the chains replay the factorization thm22 certifies.
    import mcgcalc.pillars as pillars
    from mcgcalc import TwistWord

    certified = pillars.pillar_switching_twist_word

    def swapped(i, genus):
        word = certified(i, genus)
        if i:
            return word
        *head, x, y = word.symbols
        return TwistWord(genus, (*head, y, x))

    monkeypatch.setattr(pillars, "pillar_switching_twist_word", swapped)
    report = replay_proof_chains(2)
    failed = [case.name for case in report.cases if not case.holds]
    assert failed and all(name.startswith("thm-2.2-chain-case-1-") for name in failed)
    assert report.case("thm-2.2-chain-case-1-x1").mismatches[0].generator == (
        "x1 after step 1 (a1)"
    )


def test_replay_needs_one_table_line_per_twist(monkeypatch):
    import mcgcalc.pillars as pillars
    from mcgcalc import TwistWord

    certified = pillars.pillar_switching_twist_word
    monkeypatch.setattr(
        pillars,
        "pillar_switching_twist_word",
        lambda i, genus: TwistWord(genus, certified(i, genus).symbols[1:]),
    )
    with pytest.raises(ValueError):
        replay_proof_chains(2)


def test_replay_contains_z1_consistency_case():
    report = replay_proof_chains(2)
    case = report.case("thm-2.2-chain-case-1-z1-vs-action")
    assert case.holds


def test_replay_intermediate_spot_check():
    # after the first two factors (b1 then a1) the image of x1 is x1 y1 x1^-1
    from mcgcalc import TwistWord

    tail = TwistWord(2, pillar_switching_twist_word(0, 2).symbols[-2:])
    f = evaluate_twist_word(tail)
    assert f.apply(parse_word("x1", Basis.xy(2))) == parse_word(
        "x1 y1 x1^-1", Basis.xy(2)
    )


def test_word_with_z():
    assert word_with_z("z2", 2) == parse_word("x2^-1", Basis.xy(2))
    assert word_with_z("1", 3) == Word.identity(Basis.xy(3))
    from mcgcalc import WordSyntaxError

    with pytest.raises(WordSyntaxError):
        word_with_z("z3", 2)
    with pytest.raises(WordSyntaxError):
        word_with_z("al1", 2)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("z1 x3", "symbol x3 is out of range for xy(2)", 3),
        ("y1 x00", "index must be >= 1 in 'x00'", 3),
        ("", 'empty word text (use "1" for the identity)', 0),
        ("   ", 'empty word text (use "1" for the identity)', 0),
    ],
)
def test_word_with_z_rejects_like_parse_word(text, message, position):
    with pytest.raises(WordSyntaxError) as excinfo:
        word_with_z(text, 2)
    assert str(excinfo.value) == f"{message} (at position {position})"
    assert excinfo.value.position == position


# Chains and relator with the table of a2^-1 at genus 2 mutated to
# y2 -> y2 x2 y1 (it is y2 -> y2 x2). Its chains fail at step 7, the
# only step that applies a2^-1; case 3 applies a2 and a1^-1, never a2^-1.
# The texts and case names were read from the reports of the code that
# replayed the chains through ``apply`` and ``Word`` equality.
MUTATED_CHAIN_CASES = [
    ("thm-2.2-chain-case-1-x1", (
        "x1 after step 7 (a2^-1)",
        "y2 x2 y1 x2^-1 y1^-1 x2^-1 y2^-1 x1 y1 x1^-1 y2 x2 y1 x2 y1^-1 x2^-1 y2^-1 "
        "y1^-1 x1^-1 y2 x2 y1 x2 y1^-1 x2^-1 y2^-1",
        "y2 x2^-1 y2^-1 x1 y1 x1^-1 y2 x2 y2^-1 y1^-1 x1^-1 y2 x2 y2^-1",
    )),
    ("thm-2.2-chain-case-1-y1", (
        "y1 after step 7 (a2^-1)",
        "y2 x2 y1 x2^-1 y1^-1 x2^-1 y2^-1 x1 y1^-1 x1^-1 y2 x2 y1 x2 y1^-1 x2^-1 y2^-1",
        "y2 x2^-1 y2^-1 x1 y1^-1 x1^-1 y2 x2 y2^-1",
    )),
    ("thm-2.2-chain-case-1-y2", (
        "y2 after step 7 (a2^-1)",
        "y2 x2 y1 x2^-1 y1^-1 x2^-1 y2^-1 x1 y1 x1^-1 y2 x2 y1",
        "y2 x2^-1 y2^-1 x1 y1 x1^-1 y2 x2",
    )),
    ("thm-2.2-chain-case-1-z1", (
        "z1 after step 7 (a2^-1)",
        "y2 x2 y1 x2^-1 y1^-1 x2^-1 y2^-1 x1 y1 x1 y1^-1 x1^-1 y2 x2 y1 x2 y1^-1 x2^-1 y2^-1",
        "y2 x2^-1 y2^-1 x1 y1 x1 y1^-1 x1^-1 y2 x2 y2^-1",
    )),
    ("thm-2.2-chain-case-1-z1-vs-action", None),
    ("thm-2.2-chain-case-3-x1", None),
    ("thm-2.2-chain-case-3-x2", None),
    ("thm-2.2-chain-case-3-y1", None),
    ("thm-2.2-chain-case-3-y2", None),
    ("thm-2.2-chain-case-3-z1", None),
]
MUTATED_RELATOR_CASES = [
    ("relator-fixed-by-twists", (
        "a2^-1",
        "y1 x1 y1^-1 x1^-1 y2 x2 y1 x2 y1^-1 x2^-1 y2^-1 x2^-1",
        "y1 x1 y1^-1 x1^-1 y2 x2 y2^-1 x2^-1",
    )),
    ("relator-fixed-by-pillar-switchings", None),
]


def pinned_report(cases):
    """(the report, its repr, its JSON dict) for pinned (name, mismatch) cases,
    the repr and JSON spelled out here rather than by the report."""
    xy = Basis.xy(2)
    report = VerificationReport(2, [
        CheckCase(name, [] if m is None else [
            Mismatch(m[0], parse_word(m[1], xy), parse_word(m[2], xy))
        ])
        for name, m in cases
    ])
    texts = [
        f"CheckCase(name={name!r}, mismatches=())" if m is None else
        f"CheckCase(name={name!r}, mismatches=(Mismatch(generator={m[0]!r}, "
        f"lhs=Word({m[1]!r}, basis=xy(2)), rhs=Word({m[2]!r}, basis=xy(2))),))"
        for name, m in cases
    ]
    json_dict = {"genus": 2, "cases": [
        {"name": name, "holds": m is None, "mismatches": [] if m is None else [list(m)]}
        for name, m in cases
    ]}
    return report, f"VerificationReport(genus=2, cases=({', '.join(texts)}))", json_dict


@pytest.mark.parametrize(
    "verify, cases",
    [(replay_proof_chains, MUTATED_CHAIN_CASES),
     (verify_relator_invariance, MUTATED_RELATOR_CASES)],
    ids=["chains", "relator"],
)
def test_a_mutated_twist_table_is_reported_as_before(monkeypatch, verify, cases):
    certified = pillars.dehn_twist_action
    wrong = TwistSymbol(TwistKind.A, 2, -1)
    mutated = FreeEndomorphism.from_images(Basis.xy(2), {"y2": "y2 x2 y1"}, fix_unlisted=True)
    monkeypatch.setattr(
        pillars, "dehn_twist_action",
        lambda sym, genus: mutated if (sym, genus) == (wrong, 2) else certified(sym, genus),
    )
    report = verify(2)
    expected, expected_repr, expected_json = pinned_report(cases)
    assert report == expected
    assert repr(report) == expected_repr
    assert report.to_json_dict() == expected_json


# (needed, budget) of the first image over budget at genus 3, as the
# replay through ``apply`` raised them
@pytest.mark.parametrize(
    "verify, budget, needed",
    [(replay_proof_chains, 8, 19), (replay_proof_chains, 30, 64),
     (verify_relator_invariance, 8, 14), (verify_relator_invariance, 30, 40)],
)
def test_chains_and_relator_substitute_within_the_budget(verify, budget, needed):
    with pytest.raises(ImageBudgetError) as excinfo:
        verify(3, budget=budget)
    assert (excinfo.value.needed, excinfo.value.budget) == (needed, budget)


def test_every_switching_from_its_moved_rows_equals_its_from_images_map(monkeypatch):
    genera = range(2, 13)
    built = {(i, g): pillar_switching_action(i, g) for g in genera for i in range(g)}
    inverses = {(i, g): pillar_switching_inverse(i, g) for g in genera for i in range(g)}
    monkeypatch.setattr(pillars, "_z_map", z_map_from_texts)
    monkeypatch.setattr(twists, "_z_map", z_map_from_texts)
    for (i, g), f in built.items():
        reference = pillar_switching_action.__wrapped__(i, g)
        assert f == reference and f.table == reference.table, (i, g)
        assert f._moved == scanned_moved(f), (i, g)
        # the inverse is the product of the reversed factorization's twists
        twists_of = pillar_switching_twist_word(i, g).inverse().symbols
        factors = [dehn_twist_action.__wrapped__(sym, g) for sym in twists_of]
        assert inverses[i, g].table == product(Basis.xy(g), factors).table, (i, g)


# --- yz switching forms ------------------------------------------------------------------


def test_yz_middle_case_at_genus_3():
    f = pillar_switching_yz(1, 3)
    b = Basis.yz(3)
    assert f.image_of("z1") == parse_word("z2", b)
    assert f.image_of("z2") == parse_word("z2^-1 z1 z2", b)
    assert f.image_of("y1") == parse_word("y1 y2", b)
    assert f.image_of("y2") == parse_word("z2^-1 y2^-1 z2", b)
    assert f.image_of("y3") == parse_word("z2^-1 y2 z2 y3", b)
    assert f.image_of("z3") == parse_word("z3", b)


def test_yz_last_case_at_genus_2():
    f = pillar_switching_yz(1, 2)
    b = Basis.yz(2)
    assert f.image_of("y1") == parse_word("y1 y2", b)
    assert f.image_of("y2") == parse_word("z2^-1 y2^-1 z2", b)
    assert f.image_of("z1") == parse_word("z2", b)
    assert f.image_of("z2") == parse_word("z2^-1 z1 z2", b)


def test_yz_far_generators_fixed():
    f = pillar_switching_yz(1, 4)
    b = Basis.yz(4)
    for name in ("y4", "z4"):
        assert f.image_of(name) == parse_word(name, b)


def test_yz_rejects_sigma0():
    with pytest.raises(ValueError):
        pillar_switching_yz(0, 3)
