"""Pillar switchings, the boundary relator, and the {y, z} basis change.

A pillar switching sigma_i (0 <= i <= g-1) is the half rotation of the
genus-g surface exchanging the neighboring pillars i and i+1. On the
fundamental group (free on x_1, y_1, ..., x_g, y_g, with z_i
abbreviating x_i^-1 y_{i+1} x_{i+1} y_{i+1}^-1 and z_g = x_g^-1) the
switchings act by

    sigma_0:      x_1 -> z_1^-1 y_1 z_1 y_1^-1 z_1
                  y_1 -> z_1^-1 y_1^-1 z_1
                  y_2 -> z_1^-1 y_1 z_1 y_2
    sigma_i       x_i -> y_{i+1}^-1 x_i y_{i+1}
    (1<=i<=g-2):  x_{i+1} -> z_{i+1}^-1 y_{i+1} z_{i+1} y_{i+1}^-1 x_i z_{i+1}
                  y_i -> y_i y_{i+1}
                  y_{i+1} -> z_{i+1}^-1 y_{i+1}^-1 z_{i+1}
                  y_{i+2} -> z_{i+1}^-1 y_{i+1} z_{i+1} y_{i+2}
    sigma_{g-1}:  x_{g-1} -> y_g^-1 x_{g-1} y_g
                  x_g -> x_g z_{g-1}^-1 x_g^-1
                  y_{g-1} -> y_{g-1} y_g
                  y_g -> x_g y_g^-1 x_g^-1

with all unmentioned generators fixed. Every switching factors into
Dehn twists (products read right to left, rightmost twist first):

    (1) sigma_0     = a_2^-1 (w_1 a_1 b_1)^2
    (2) sigma_i     = a_{i+2}^-1 a_{i+1} b_{i+1} w_{i+1} w_i a_i^-1 b_{i+1} a_{i+1}
    (3) sigma_{g-1} = (w_{g-1} a_g b_g)^2 a_{g-1}^-1

``verify_theorem_2_2`` certifies (1)-(3) as exact reduced-word equalities
(check names thm-2.2-case-<k>-sigma<i>), and ``replay_proof_chains``
re-derives them one twist at a time against the tabulated intermediate
images in ``chains``. In the {y, z} basis the switchings sigma_1 ..
sigma_{g-1} take the substitution form returned by
``pillar_switching_yz`` (check names cor-2.1-*); sigma_0 has no such
form and is only reachable through ``conjugate_to_yz``.

All mapping classes here fix the boundary relator
R = [y_1, x_1] ... [y_g, x_g]; ``verify_relator_invariance`` rechecks
that for every shipped action.
"""

from __future__ import annotations

from functools import lru_cache
from random import Random

from . import _wordops, chains
from .endos import DEFAULT_IMAGE_BUDGET, FreeEndomorphism
from .errors import BasisMismatchError
from .reports import CheckCase, Mismatch, VerificationReport, case_from_endos
from .twists import (
    TwistKind,
    TwistSymbol,
    TwistWord,
    dehn_twist_action,
    evaluate_twist_word,
    parse_twist_word,
    word_with_z,
    z_loop,
)
from .words import Basis, BasisKind, Word, random_word


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1."""
    return u * v * u.inverse() * v.inverse()


@lru_cache(maxsize=None)
def fundamental_relator(genus: int) -> Word:
    """The boundary relator R = [y_1, x_1] ... [y_g, x_g].

    Uses [u, v] = u v u^-1 v^-1, the commutator convention forced by the
    twist actions (the opposite convention is not fixed by them). No two
    factors cancel, so the word has exactly 4g letters.
    """
    basis = Basis.xy(genus)
    result = Word.identity(basis)
    for i in range(1, genus + 1):
        result = result * commutator(
            basis.generator(f"y{i}"), basis.generator(f"x{i}")
        )
    return result


def fixes_relator(f: FreeEndomorphism) -> bool:
    """True iff ``f`` fixes the boundary relator exactly (not up to conjugacy)."""
    if f.basis.kind is not BasisKind.XY:
        raise BasisMismatchError(
            f"the boundary relator lives over an xy basis, not {f.basis}"
        )
    relator = fundamental_relator(f.basis.genus_or_rank)
    return f.apply(relator) == relator


def _require_switching_index(i: int, genus: int) -> None:
    if genus < 2:
        raise ValueError(f"pillar switchings need genus >= 2, got {genus}")
    if not 0 <= i <= genus - 1:
        raise ValueError(
            f"switching index {i} out of range 0..{genus - 1} for genus {genus}"
        )


@lru_cache(maxsize=None)
def pillar_switching_action(i: int, genus: int) -> FreeEndomorphism:
    """The action of sigma_i on the xy free group, images fully expanded."""
    _require_switching_index(i, genus)
    j = i + 1
    if i == 0:
        images = {
            "x1": "z1^-1 y1 z1 y1^-1 z1",
            "y1": "z1^-1 y1^-1 z1",
            "y2": "z1^-1 y1 z1 y2",
        }
    elif i == genus - 1:
        images = {
            f"x{i}": f"y{j}^-1 x{i} y{j}",
            f"x{j}": f"x{j} z{i}^-1 x{j}^-1",
            f"y{i}": f"y{i} y{j}",
            f"y{j}": f"x{j} y{j}^-1 x{j}^-1",
        }
    else:
        images = {
            f"x{i}": f"y{j}^-1 x{i} y{j}",
            f"x{j}": f"z{j}^-1 y{j} z{j} y{j}^-1 x{i} z{j}",
            f"y{i}": f"y{i} y{j}",
            f"y{j}": f"z{j}^-1 y{j}^-1 z{j}",
            f"y{j + 1}": f"z{j}^-1 y{j} z{j} y{j + 1}",
        }
    expanded = {name: word_with_z(text, genus) for name, text in images.items()}
    return FreeEndomorphism.from_images(Basis.xy(genus), expanded, fix_unlisted=True)


@lru_cache(maxsize=None)
def pillar_switching_twist_word(i: int, genus: int) -> TwistWord:
    """The twist factorization of sigma_i (rightmost twist acts first)."""
    _require_switching_index(i, genus)
    if i == 0:
        text = "a2^-1 w1 a1 b1 w1 a1 b1"
    elif i == genus - 1:
        g = genus
        text = f"w{g - 1} a{g} b{g} w{g - 1} a{g} b{g} a{g - 1}^-1"
    else:
        text = (
            f"a{i + 2}^-1 a{i + 1} b{i + 1} w{i + 1} "
            f"w{i} a{i}^-1 b{i + 1} a{i + 1}"
        )
    return parse_twist_word(text, genus)


@lru_cache(maxsize=None)
def pillar_switching_inverse(i: int, genus: int) -> FreeEndomorphism:
    """Inverse of sigma_i, evaluated from the reversed twist factorization.

    No direct substitution formula is shipped for the inverses; the pair
    is certified by ``verify_inverse_pair`` in the test suite.
    """
    return evaluate_twist_word(pillar_switching_twist_word(i, genus).inverse())


# --- {y, z} basis change ---------------------------------------------------


@lru_cache(maxsize=None)
def _yz_to_xy_table(genus: int) -> list:
    """Letter-code images of the yz generators inside the xy free group."""
    xy = Basis.xy(genus)
    yz = Basis.yz(genus)
    table: list = [()] * (max(sym.code for sym in yz.symbols) + 1)
    for i in range(1, genus + 1):
        table[yz.generator(f"y{i}").data[0]] = xy.generator(f"y{i}").data
        table[yz.generator(f"z{i}").data[0]] = z_loop(i, genus).data
    return table


@lru_cache(maxsize=None)
def _xy_to_yz_table(genus: int) -> list:
    """Letter-code images of the xy generators inside the yz free group.

    x_g = z_g^-1 and, descending, x_i = y_{i+1} x_{i+1} y_{i+1}^-1 z_i^-1.
    """
    xy = Basis.xy(genus)
    yz = Basis.yz(genus)
    table: list = [()] * (max(sym.code for sym in xy.symbols) + 1)
    for i in range(1, genus + 1):
        table[xy.generator(f"y{i}").data[0]] = yz.generator(f"y{i}").data
    x_image = yz.generator(f"z{genus}").inverse()
    table[xy.generator(f"x{genus}").data[0]] = x_image.data
    for i in range(genus - 1, 0, -1):
        ynext = yz.generator(f"y{i + 1}")
        x_image = ynext * x_image * ynext.inverse() * yz.generator(f"z{i}").inverse()
        table[xy.generator(f"x{i}").data[0]] = x_image.data
    return table


def to_yz(w: Word) -> Word:
    """Rewrite an xy word over the free basis y_1..y_g, z_1..z_g."""
    if w.basis.kind is not BasisKind.XY:
        raise BasisMismatchError(f"to_yz expects an xy word, got one over {w.basis}")
    genus = w.basis.genus_or_rank
    return Word._reduced(
        Basis.yz(genus), _wordops.substitute(w.data, _xy_to_yz_table(genus))
    )


def from_yz(w: Word) -> Word:
    """Rewrite a yz word over the surface basis x_1, y_1, ..., x_g, y_g."""
    if w.basis.kind is not BasisKind.YZ:
        raise BasisMismatchError(f"from_yz expects a yz word, got one over {w.basis}")
    genus = w.basis.genus_or_rank
    return Word._reduced(
        Basis.xy(genus), _wordops.substitute(w.data, _yz_to_xy_table(genus))
    )


def conjugate_to_yz(
    f: FreeEndomorphism, *, budget: int = DEFAULT_IMAGE_BUDGET
) -> FreeEndomorphism:
    """Carry an xy endomorphism through the basis change to the yz side."""
    if f.basis.kind is not BasisKind.XY:
        raise BasisMismatchError(
            f"conjugate_to_yz expects an xy endomorphism, got one over {f.basis}"
        )
    yz = Basis.yz(f.basis.genus_or_rank)
    images = tuple(
        to_yz(f.apply(from_yz(yz.generator(sym)), budget=budget))
        for sym in yz.symbols
    )
    return FreeEndomorphism(yz, images)


@lru_cache(maxsize=None)
def pillar_switching_yz(i: int, genus: int) -> FreeEndomorphism:
    """The substitution form of sigma_i (1 <= i <= g-1) on the yz basis.

    Equals the basis-change conjugate of the xy action image by image;
    on the z generators alone it is the Artin substitution
    z_i -> z_{i+1}, z_{i+1} -> z_{i+1}^-1 z_i z_{i+1}. The index 0 is
    rejected: sigma_0 has no substitution form over this basis.
    """
    _require_switching_index(i, genus)
    if i == 0:
        raise ValueError(
            "sigma_0 has no yz substitution form; conjugate the xy action instead"
        )
    j = i + 1
    if i == genus - 1:
        images = {
            f"y{i}": f"y{i} y{j}",
            f"y{j}": f"z{j}^-1 y{j}^-1 z{j}",
            f"z{i}": f"z{j}",
            f"z{j}": f"z{j}^-1 z{i} z{j}",
        }
    else:
        images = {
            f"y{i}": f"y{i} y{j}",
            f"y{j}": f"z{j}^-1 y{j}^-1 z{j}",
            f"y{j + 1}": f"z{j}^-1 y{j} z{j} y{j + 1}",
            f"z{i}": f"z{j}",
            f"z{j}": f"z{j}^-1 z{i} z{j}",
        }
    return FreeEndomorphism.from_images(Basis.yz(genus), images, fix_unlisted=True)


# --- verifiers --------------------------------------------------------------


def _case_number(i: int, genus: int) -> int:
    return 1 if i == 0 else (3 if i == genus - 1 else 2)


def verify_theorem_2_2(
    genus: int, *, budget: int = DEFAULT_IMAGE_BUDGET
) -> VerificationReport:
    """Certify the twist factorizations (1)-(3) of every sigma_i at this genus.

    Each case compares the evaluated twist word with the switching action
    generator by generator; case (2) is vacuous at genus 2.
    """
    if genus < 2:
        raise ValueError(f"the factorizations need genus >= 2, got {genus}")
    cases = []
    for i in range(genus):
        name = f"thm-2.2-case-{_case_number(i, genus)}-sigma{i}"
        cases.append(
            case_from_endos(
                name,
                evaluate_twist_word(
                    pillar_switching_twist_word(i, genus), budget=budget
                ),
                pillar_switching_action(i, genus),
            )
        )
    return VerificationReport(genus, tuple(cases))


def _replay_case(
    prefix: str,
    genus: int,
    factors_text: str,
    chain_table: dict,
    subs: dict,
    budget: int,
) -> list[CheckCase]:
    factors = parse_twist_word(factors_text.format(**subs), genus).symbols
    actions = [dehn_twist_action(sym, genus) for sym in factors]
    out = []
    for start_template, step_templates in chain_table.items():
        start_name = start_template.format(**subs)
        current = word_with_z(start_name, genus)
        mismatches = []
        for step, (sym, action, template) in enumerate(
            zip(factors, actions, step_templates), start=1
        ):
            current = action.apply(current, budget=budget)
            expected = word_with_z(template.format(**subs), genus)
            if current != expected:
                mismatches.append(
                    Mismatch(f"{start_name} after step {step} ({sym})", current, expected)
                )
        out.append(CheckCase(f"{prefix}-{start_name}", tuple(mismatches)))
    return out


def replay_proof_chains(
    genus: int, *, budget: int = DEFAULT_IMAGE_BUDGET
) -> VerificationReport:
    """Replay the factorizations one twist at a time against the chain tables.

    Every tabulated intermediate image must match the engine exactly. The
    extra case-1 check compares the final z_1 line with what the sigma_0
    action itself does to z_1: the tabulated line is derivable from the
    x/y images, and any inconsistency is reported, never patched.
    """
    if genus < 2:
        raise ValueError(f"the factorizations need genus >= 2, got {genus}")
    cases = _replay_case(
        "thm-2.2-chain-case-1",
        genus,
        chains.CASE_1_FACTORS,
        chains.CASE_1_CHAINS,
        {},
        budget,
    )
    final_z1 = word_with_z(chains.CASE_1_CHAINS["z1"][-1], genus)
    from_action = pillar_switching_action(0, genus).apply(
        z_loop(1, genus), budget=budget
    )
    cases.append(
        CheckCase(
            "thm-2.2-chain-case-1-z1-vs-action",
            ()
            if from_action == final_z1
            else (Mismatch("z1", from_action, final_z1),),
        )
    )
    for i in range(2, genus):
        subs = {"i": i, "im1": i - 1, "ip1": i + 1}
        cases.extend(
            _replay_case(
                f"thm-2.2-chain-case-2-sigma{i - 1}",
                genus,
                chains.CASE_2_FACTORS,
                chains.CASE_2_CHAINS,
                subs,
                budget,
            )
        )
    subs = {"g": genus, "gm1": genus - 1}
    cases.extend(
        _replay_case(
            "thm-2.2-chain-case-3",
            genus,
            chains.CASE_3_FACTORS,
            chains.CASE_3_CHAINS,
            subs,
            budget,
        )
    )
    return VerificationReport(genus, tuple(cases))


def _all_twist_symbols(genus: int):
    for sign in (1, -1):
        for i in range(1, genus + 1):
            yield TwistSymbol(TwistKind.A, i, sign)
            yield TwistSymbol(TwistKind.B, i, sign)
        for i in range(1, genus):
            yield TwistSymbol(TwistKind.W, i, sign)


def verify_relator_invariance(
    genus: int, *, budget: int = DEFAULT_IMAGE_BUDGET
) -> VerificationReport:
    """Check that every shipped action fixes the boundary relator exactly."""
    if genus < 2:
        raise ValueError(f"pillar switchings need genus >= 2, got {genus}")
    relator = fundamental_relator(genus)
    twist_mm = []
    for sym in _all_twist_symbols(genus):
        image = dehn_twist_action(sym, genus).apply(relator, budget=budget)
        if image != relator:
            twist_mm.append(Mismatch(str(sym), image, relator))
    sigma_mm = []
    for i in range(genus):
        image = pillar_switching_action(i, genus).apply(relator, budget=budget)
        if image != relator:
            sigma_mm.append(Mismatch(f"sigma{i}", image, relator))
    return VerificationReport(
        genus,
        (
            CheckCase("relator-fixed-by-twists", tuple(twist_mm)),
            CheckCase("relator-fixed-by-pillar-switchings", tuple(sigma_mm)),
        ),
    )


def verify_yz_roundtrip(
    genus: int,
    *,
    samples: int = 1000,
    max_length: int = 60,
    seed: int = 0,
) -> VerificationReport:
    """Certify that to_yz and from_yz are mutually inverse isomorphisms.

    The generator-level case is the whole free-basis claim: two
    homomorphisms that compose to the identity on every generator (in
    both directions) are mutually inverse. The random-word case rechecks
    the same thing on ``samples`` seeded words per direction.
    """
    if genus < 2:
        raise ValueError(f"the yz basis change needs genus >= 2, got {genus}")
    xy = Basis.xy(genus)
    yz = Basis.yz(genus)
    cert_mm = []
    for sym in xy.symbols:
        u = xy.generator(sym)
        back = from_yz(to_yz(u))
        if back != u:
            cert_mm.append(Mismatch(sym.name, back, u))
    for sym in yz.symbols:
        u = yz.generator(sym)
        back = to_yz(from_yz(u))
        if back != u:
            cert_mm.append(Mismatch(sym.name, back, u))
    rng = Random(seed)
    random_mm = []
    for k in range(samples):
        w = random_word(xy, rng.randrange(max_length + 1), rng)
        back = from_yz(to_yz(w))
        if back != w:
            random_mm.append(Mismatch(f"xy sample {k}", back, w))
        v = random_word(yz, rng.randrange(max_length + 1), rng)
        back = to_yz(from_yz(v))
        if back != v:
            random_mm.append(Mismatch(f"yz sample {k}", back, v))
    return VerificationReport(
        genus,
        (
            CheckCase("cor-2.1-free-basis-certificate", tuple(cert_mm)),
            CheckCase("cor-2.1-roundtrip-random", tuple(random_mm)),
        ),
    )
