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

``verify_theorem_2_2`` certifies (1)-(3) through ``identity_report``, as exact
reduced-word equalities (thm-2.2-case-<k>-sigma<i>), and ``replay_proof_chains``
re-derives them one twist at a time against the tabulated intermediate
images in ``chains``. The switchings, like the twists, are built from their
moved rows (``FreeEndomorphism._moving``), and the chain and relator
checks substitute and compare letter codes, building ``Word`` values only
for a mismatch. In the {y, z} basis the switchings sigma_1 ..
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
from .endos import DEFAULT_IMAGE_BUDGET, FreeEndomorphism, _code_table
from .errors import BasisMismatchError
from .reports import CheckCase, Mismatch, VerificationReport, identity_report
from .twists import (
    TwistWord,
    _all_twist_symbols,
    _z_codes,
    _z_map,
    dehn_twist_action,
    evaluate_twist_word,
    parse_twist_word,
    z_loop,
)
from .words import Basis, BasisKind, Word, _int_keyed, _random_codes, parse_word


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1."""
    return u * v * u.inverse() * v.inverse()


@_int_keyed(genus="genus")
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


@_int_keyed(i="switching index", genus="genus")
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
    return _z_map(images, genus)


@_int_keyed(i="switching index", genus="genus")
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


@_int_keyed(i="switching index", genus="genus")
def pillar_switching_inverse(i: int, genus: int) -> FreeEndomorphism:
    """Inverse of sigma_i, evaluated from the reversed twist factorization.

    No direct substitution formula is shipped for the inverses; the pair
    is certified by ``verify_inverse_pair`` in the test suite.
    """
    return evaluate_twist_word(pillar_switching_twist_word(i, genus).inverse())


# --- {y, z} basis change ---------------------------------------------------


@lru_cache(maxsize=None)
def _yz_to_xy_table(genus: int) -> tuple[tuple[int, ...], ...]:
    """The code table of the yz generators' images in the xy free group."""
    yz = Basis.yz(genus)
    return _code_table(yz, (_z_codes(sym.name, genus) for sym in yz.symbols))


@lru_cache(maxsize=None)
def _xy_to_yz_table(genus: int) -> tuple[tuple[int, ...], ...]:
    """The code table of the xy generators' images in the yz free group.

    x_g = z_g^-1 and, descending, x_i = y_{i+1} x_{i+1} y_{i+1}^-1 z_i^-1;
    every y_i is itself.
    """
    x = f"z{genus}^-1"
    images = {f"x{genus}": x}
    for i in range(genus - 1, 0, -1):
        x = images[f"x{i}"] = f"y{i + 1} {x} y{i + 1}^-1 z{i}^-1"
    xy, yz = Basis.xy(genus), Basis.yz(genus)
    return _code_table(
        xy, (parse_word(images.get(sym.name, sym.name), yz).data for sym in xy.symbols)
    )


def to_yz(w: Word) -> Word:
    """Rewrite an xy word over the free basis y_1..y_g, z_1..z_g."""
    if w.basis.kind is not BasisKind.XY:
        raise BasisMismatchError(f"to_yz expects an xy word, got one over {w.basis}")
    g = w.basis.genus_or_rank
    return Word._reduced(Basis.yz(g), _wordops.substitute(w.data, _xy_to_yz_table(g)))


def from_yz(w: Word) -> Word:
    """Rewrite a yz word over the surface basis x_1, y_1, ..., x_g, y_g."""
    if w.basis.kind is not BasisKind.YZ:
        raise BasisMismatchError(f"from_yz expects a yz word, got one over {w.basis}")
    g = w.basis.genus_or_rank
    return Word._reduced(Basis.xy(g), _wordops.substitute(w.data, _yz_to_xy_table(g)))


def conjugate_to_yz(
    f: FreeEndomorphism, *, budget: int = DEFAULT_IMAGE_BUDGET
) -> FreeEndomorphism:
    """Carry an xy endomorphism through the basis change to the yz side.

    Each yz generator's xy row goes through ``f`` (within ``budget``, as
    in ``apply``) and back through the other table.
    """
    if f.basis.kind is not BasisKind.XY:
        raise BasisMismatchError(
            f"conjugate_to_yz expects an xy endomorphism, got one over {f.basis}"
        )
    genus = f.basis.genus_or_rank
    yz = Basis.yz(genus)
    to_yz_table, from_yz_table = _xy_to_yz_table(genus), _yz_to_xy_table(genus)
    images = (
        _wordops.substitute(
            _wordops.substitute(from_yz_table[sym.code], f.table, budget=budget),
            to_yz_table,
        )
        for sym in yz.symbols
    )
    return FreeEndomorphism._trusted(yz, _code_table(yz, images))


@_int_keyed(i="switching index", genus="genus")
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

    Each case compares the product of the twist actions with the switching
    action generator by generator; case (2) is vacuous at genus 2.
    """
    if genus < 2:
        raise ValueError(f"the factorizations need genus >= 2, got {genus}")
    identities = []
    for i in range(genus):
        twists = pillar_switching_twist_word(i, genus).symbols
        identities.append((
            f"thm-2.2-case-{_case_number(i, genus)}-sigma{i}",
            [dehn_twist_action(sym, genus) for sym in twists],
            [pillar_switching_action(i, genus)],
        ))
    return identity_report(genus, Basis.xy(genus), identities, budget=budget)


def replay_proof_chains(
    genus: int, *, budget: int = DEFAULT_IMAGE_BUDGET
) -> VerificationReport:
    """Replay the factorizations one twist at a time against the chain tables.

    The twists are those of ``pillar_switching_twist_word``, rightmost
    first, so this replays the very factorizations ``verify_theorem_2_2``
    certifies. Every tabulated intermediate image must match the engine
    exactly: each step substitutes the current codes through the twist's
    table (within ``budget``, as ``apply`` does) and compares them with the
    template's codes. The extra case-1 check compares the final z_1 line
    with what the sigma_0 action itself does to z_1: the tabulated line is
    derivable from the x/y images, and any inconsistency is reported, never
    patched.
    """
    if genus < 2:
        raise ValueError(f"the factorizations need genus >= 2, got {genus}")
    xy = Basis.xy(genus)
    cases = []
    for i in range(genus):
        case = _case_number(i, genus)
        prefix = f"thm-2.2-chain-case-{case}"
        if case == 1:
            table, subs = chains.CASE_1_CHAINS, {}
        elif case == 2:
            prefix += f"-sigma{i}"
            table, subs = chains.CASE_2_CHAINS, {"i": i + 1, "im1": i, "ip1": i + 2}
        else:
            table, subs = chains.CASE_3_CHAINS, {"g": genus, "gm1": genus - 1}
        factors = pillar_switching_twist_word(i, genus).symbols[::-1]
        tables = [dehn_twist_action(sym, genus).table for sym in factors]
        for start_template, step_templates in table.items():
            start_name = start_template.format(**subs)
            current = _z_codes(start_name, genus)
            mismatches = []
            for step, (sym, twist, template) in enumerate(
                zip(factors, tables, step_templates, strict=True), start=1
            ):
                current = _wordops.substitute(current, twist, budget=budget)
                expected = _z_codes(template.format(**subs), genus)
                if current != expected:
                    mismatches.append(Mismatch(
                        f"{start_name} after step {step} ({sym})",
                        Word._reduced(xy, current),
                        Word._reduced(xy, expected),
                    ))
            cases.append(CheckCase(f"{prefix}-{start_name}", tuple(mismatches)))
        if case == 1:
            final_z1 = Word._reduced(xy, _z_codes(table["z1"][-1], genus))
            z1 = pillar_switching_action(0, genus).apply(z_loop(1, genus), budget=budget)
            wrong = () if z1 == final_z1 else (Mismatch("z1", z1, final_z1),)
            cases.append(CheckCase("thm-2.2-chain-case-1-z1-vs-action", wrong))
    return VerificationReport(genus, tuple(cases))


def verify_relator_invariance(
    genus: int, *, budget: int = DEFAULT_IMAGE_BUDGET
) -> VerificationReport:
    """Check that every shipped action fixes the boundary relator exactly.

    Each map's table substitutes the relator's codes (within ``budget``),
    and a ``Word`` is built only for an image that differs.
    """
    if genus < 2:
        raise ValueError(f"pillar switchings need genus >= 2, got {genus}")
    relator = fundamental_relator(genus)
    codes, basis = relator.data, relator.basis

    def mismatches(named_maps):
        found = []
        for name, f in named_maps:
            image = _wordops.substitute(codes, f.table, budget=budget)
            if image != codes:
                found.append(Mismatch(name, Word._reduced(basis, image), relator))
        return tuple(found)

    twists = ((str(sym), dehn_twist_action(sym, genus)) for sym in _all_twist_symbols(genus))
    sigmas = ((f"sigma{i}", pillar_switching_action(i, genus)) for i in range(genus))
    return VerificationReport(
        genus,
        (
            CheckCase("relator-fixed-by-twists", mismatches(twists)),
            CheckCase("relator-fixed-by-pillar-switchings", mismatches(sigmas)),
        ),
    )


_ROUNDTRIP_MAX_LENGTH = 60  # seeded words have 0..60 letters


def verify_yz_roundtrip(
    genus: int, *, samples: int = 1000, seed: int = 0
) -> VerificationReport:
    """Certify that to_yz and from_yz are mutually inverse isomorphisms.

    The generator-level case is the whole free-basis claim: two
    homomorphisms that compose to the identity on every generator (in
    both directions) are mutually inverse. The random-word case rechecks
    the same thing on ``samples`` seeded words per direction, each of
    0..60 letters, comparing every round trip exactly. Both cases run one
    round trip on letter codes through the two cached basis-change tables
    (the substitutions ``to_yz`` and ``from_yz`` apply) and build ``Word``
    values only for a mismatch.

    Unlike the other verifiers it takes no ``budget``: the basis change is
    a fixed substitution whose images grow linearly with word length.
    """
    if genus < 2:
        raise ValueError(f"the yz basis change needs genus >= 2, got {genus}")
    to_yz_table, from_yz_table = _xy_to_yz_table(genus), _yz_to_xy_table(genus)
    sides = (
        (Basis.xy(genus), to_yz_table, from_yz_table),
        (Basis.yz(genus), from_yz_table, to_yz_table),
    )

    def missed(side, w):
        """(got, w) as Words if the round trip of codes ``w`` misses, else None."""
        basis, there, back = side
        got = _wordops.substitute(_wordops.substitute(w, there), back)
        if got != w:
            return Word._reduced(basis, got), Word._reduced(basis, w)

    cert_mm = []
    for side in sides:
        for sym in side[0].symbols:
            pair = missed(side, (sym.code,))
            if pair:
                cert_mm.append(Mismatch(sym.name, *pair))
    rng = Random(seed)
    draws = [(side, _random_codes(side[0], rng, _ROUNDTRIP_MAX_LENGTH)) for side in sides]
    random_mm = []
    for k in range(samples):
        for side, draw in draws:
            pair = missed(side, draw())
            if pair:
                random_mm.append(Mismatch(f"{side[0].kind.value} sample {k}", *pair))
    return VerificationReport(
        genus,
        (
            CheckCase("cor-2.1-free-basis-certificate", tuple(cert_mm)),
            CheckCase("cor-2.1-roundtrip-random", tuple(random_mm)),
        ),
    )
