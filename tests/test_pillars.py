import pytest

from mcgcalc import (
    Basis,
    BasisMismatchError,
    FreeEndomorphism,
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
)
from mcgcalc.pillars import _all_twist_symbols


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
