"""Acceptance suite: every exit criterion, at its stated range and tolerance.

All comparisons are exact reduced-word equalities (tolerance: exact).
Each criterion prints one pass/fail line; run with ``pytest -s`` to see
them all.
"""

import random
import time

from mcgcalc import (
    Basis,
    BraidWord,
    Word,
    artin_action,
    conjugate_to_yz,
    dehn_twist_action,
    fixes_relator,
    from_yz,
    insert_relations,
    is_trivial_braid,
    parse_braid_word,
    parse_word,
    pillar_switching_action,
    pillar_switching_inverse,
    pillar_switching_yz,
    random_braid_word,
    random_word,
    replay_proof_chains,
    restrict_to_z,
    to_yz,
    verify_inverse_pair,
    verify_psi_relations,
    verify_theorem_2_2,
)
from mcgcalc.twists import _all_twist_symbols


def _criterion(number, description, ok):
    print(f"criterion {number}: {description}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_twist_factorizations():
    start = time.perf_counter()
    ok = all(verify_theorem_2_2(g).all_hold for g in range(2, 13))
    elapsed = time.perf_counter() - start
    _criterion(1, f"factorizations exact for g=2..12 ({elapsed:.2f}s)", ok)
    assert elapsed < 10.0


def test_criterion_2_proof_chain_replay():
    # indices of case 2 exist from genus 3 on; g=4 covers middle positions
    # i=2 and i=3, g=2 covers cases 1 and 3
    report_g2 = replay_proof_chains(2)
    report_g4 = replay_proof_chains(4)
    names_g4 = [case.name for case in report_g4.cases]
    covers_middle = any("case-2-sigma1" in n for n in names_g4) and any(
        "case-2-sigma2" in n for n in names_g4
    )
    ok = report_g2.all_hold and report_g4.all_hold and covers_middle
    from mcgcalc import chains

    def steps_at(genus):
        return (
            sum(len(steps) for steps in chains.CASE_1_CHAINS.values())
            + (genus - 2) * sum(len(steps) for steps in chains.CASE_2_CHAINS.values())
            + sum(len(steps) for steps in chains.CASE_3_CHAINS.values())
        )

    steps = steps_at(2) + steps_at(4)
    _criterion(2, f"all {steps} chain steps replay exactly at g=2 and g=4", ok)


def test_criterion_3_relator_invariance():
    ok = True
    for g in range(2, 13):
        for sym in _all_twist_symbols(g):
            ok = ok and fixes_relator(dehn_twist_action(sym, g))
        for i in range(g):
            ok = ok and fixes_relator(pillar_switching_action(i, g))
    _criterion(3, "relator fixed by all twists and switchings, g=2..12", ok)


def test_criterion_4_braid_relations_among_switchings():
    ok = all(verify_psi_relations(g).all_hold for g in range(2, 11))
    _criterion(4, "braid and commutation relations among sigmas, g=2..10", ok)


def test_criterion_5_artin_restriction():
    ok = True
    for g in range(2, 9):
        for i in range(1, g):
            yz_form = conjugate_to_yz(pillar_switching_action(i, g))
            ok = ok and yz_form == pillar_switching_yz(i, g)
            ok = ok and restrict_to_z(yz_form) == artin_action(BraidWord(g, (i,)))
    _criterion(5, "z-restriction of psi equals the Artin action, g=2..8", ok)


def test_criterion_6_basis_change_soundness():
    ok = True
    for g in range(2, 9):
        xy, yz = Basis.xy(g), Basis.yz(g)
        for sym in xy.symbols:
            ok = ok and from_yz(to_yz(xy.generator(sym))) == xy.generator(sym)
        for sym in yz.symbols:
            ok = ok and to_yz(from_yz(yz.generator(sym))) == yz.generator(sym)
        rng = random.Random(g)
        for _ in range(1000):
            w = random_word(xy, rng.randrange(61), rng)
            ok = ok and from_yz(to_yz(w)) == w
            v = random_word(yz, rng.randrange(61), rng)
            ok = ok and to_yz(from_yz(v)) == v
    _criterion(6, "yz round trips: generators and 1000 words per genus 2..8", ok)


def test_criterion_7_braid_word_problem():
    start = time.perf_counter()
    ok = True
    rng = random.Random(0)
    for k in range(200):
        n = 3 + k % 3
        u = random_braid_word(n, 12, rng)
        v = insert_relations(u, 18, rng)
        ok = ok and artin_action(u) == artin_action(v)
        ok = ok and is_trivial_braid(u * v.inverse())
    for n in (3, 4, 5):
        for i in range(1, n):
            for power in (1, 2, 3, 4):
                ok = ok and not is_trivial_braid(BraidWord(n, (i,) * power))
    ok = ok and is_trivial_braid(parse_braid_word("b1 b2 b1 b2^-1 b1^-1 b2^-1", 3))
    elapsed = time.perf_counter() - start
    _criterion(7, f"200 relation-equivalent pairs judged equal ({elapsed:.2f}s)", ok)
    assert elapsed < 30.0


def test_criterion_8_inverse_certification():
    ok = True
    for g in range(2, 13):
        seen = set()
        for sym in _all_twist_symbols(g):
            key = (sym.kind, sym.index)
            if key in seen:
                continue
            seen.add(key)
            ok = ok and verify_inverse_pair(
                dehn_twist_action(sym, g), dehn_twist_action(sym.inverse(), g)
            )
        for i in range(g):
            ok = ok and verify_inverse_pair(
                pillar_switching_action(i, g), pillar_switching_inverse(i, g)
            )
    _criterion(8, "every shipped generator/inverse pair certified, g=2..12", ok)


def test_criterion_9_commutator_convention_oracle():
    basis = Basis.xy(2)

    def relator(convention):
        out = Word.identity(basis)
        for i in (1, 2):
            y, x = parse_word(f"y{i}", basis), parse_word(f"x{i}", basis)
            if convention == "uvUV":
                out = out * (y * x * y.inverse() * x.inverse())
            else:
                out = out * (y.inverse() * x.inverse() * y * x)
        return out

    surviving = []
    for convention in ("uvUV", "UVuv"):
        r = relator(convention)
        if all(
            dehn_twist_action(sym, 2).apply(r) == r for sym in _all_twist_symbols(2)
        ):
            surviving.append(convention)
    ok = surviving == ["uvUV"]
    _criterion(9, "exactly one commutator convention survives the twists", ok)
