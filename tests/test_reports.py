"""``identity_report``, the one evaluator of checks stated as identities
between two products of generators."""

import pytest

from mcgcalc import (
    Basis,
    ImageBudgetError,
    Mismatch,
    TwistKind,
    TwistSymbol,
    TwistWord,
    VerificationReport,
    dehn_twist_action,
    evaluate_twist_word,
    parse_word,
    pillar_switching_action,
    pillar_switching_twist_word,
    verify_theorem_2_2,
)
from mcgcalc import pillars
from mcgcalc.reports import identity_report

XY2 = Basis.xy(2)
A1 = dehn_twist_action(TwistSymbol(TwistKind.A, 1), 2)
B1 = dehn_twist_action(TwistSymbol(TwistKind.B, 1), 2)


def test_no_identities_give_an_empty_report():
    report = identity_report(3, Basis.xy(3), [])
    assert report == VerificationReport(3, ())
    assert report.all_hold


def test_cases_follow_the_identities_in_order():
    a1_inverse = dehn_twist_action(TwistSymbol(TwistKind.A, 1, -1), 2)
    identities = [
        ("right-factor-first", [A1, B1], [A1.compose(B1)]),
        ("inverse", [A1, a1_inverse], []),
        ("left-factor-first", [A1, B1], [B1.compose(A1)]),
    ]
    report = identity_report(2, XY2, identities)
    assert [(case.name, case.holds) for case in report.cases] == [
        ("right-factor-first", True),
        ("inverse", True),
        ("left-factor-first", False),
    ]


def test_a_wrong_identity_lists_exactly_the_generators_whose_images_differ():
    # a1 moves only y1, so a1 = a1^-1 fails there and nowhere else
    a1_inverse = dehn_twist_action(TwistSymbol(TwistKind.A, 1, -1), 2)
    (case,) = identity_report(2, XY2, [("a1-is-a1^-1", [A1], [a1_inverse])]).cases
    assert case.name == "a1-is-a1^-1"
    assert case.mismatches == (
        Mismatch("y1", parse_word("y1 x1^-1", XY2), parse_word("y1 x1", XY2)),
    )


def test_thm22_with_one_twist_sign_flipped_fails_only_there(monkeypatch):
    genus = 3
    certified = pillar_switching_twist_word(1, genus)
    first, *rest = certified.symbols
    flipped = TwistWord(genus, (first.inverse(), *rest))
    monkeypatch.setattr(
        pillars,
        "pillar_switching_twist_word",
        lambda i, g: flipped if i == 1 else pillar_switching_twist_word(i, g),
    )
    report = verify_theorem_2_2(genus)
    assert [case.holds for case in report.cases] == [True, False, True]
    # the mismatches name exactly the generators on which the two maps differ,
    # each with both images, as evaluated apart from the engine
    wrong, sigma = evaluate_twist_word(flipped), pillar_switching_action(1, genus)
    differ = [
        Mismatch(sym.name, wrong.image_of(sym), sigma.image_of(sym))
        for sym in Basis.xy(genus).symbols
        if wrong.image_of(sym) != sigma.image_of(sym)
    ]
    assert differ
    assert report.case("thm-2.2-case-2-sigma1").mismatches == tuple(differ)


@pytest.mark.parametrize("side", ["lhs", "rhs"])
def test_a_budget_overrun_on_either_side_raises(side):
    sigma0 = pillar_switching_action(0, 2)
    # the budget admits sigma_0 itself, and the identity map on the other side
    budget = sum(len(image) for image in sigma0.images)
    long, short = [sigma0, sigma0, sigma0], []
    lhs, rhs = (long, short) if side == "lhs" else (short, long)
    with pytest.raises(ImageBudgetError) as excinfo:
        identity_report(2, XY2, [("t", lhs, rhs)], budget=budget)
    assert excinfo.value.budget == budget
    assert excinfo.value.needed > budget
