"""Braid words, the Artin representation, and the braid-to-mapping-class map.

The Artin generator beta_i acts on the rank-n free group by

    beta_i: al_i -> al_{i+1}
            al_{i+1} -> al_{i+1}^-1 al_i al_{i+1}

(all other generators fixed). The representation is faithful, which
makes ``is_trivial_braid`` a decision procedure for the braid word
problem: a braid word is trivial iff its Artin action is the identity.

``psi_action`` sends beta_i to the pillar switching sigma_i of the
genus-n surface. On the z generators of the {y, z} basis every sigma_i
(i >= 1) acts by exactly the Artin substitution, so psi inherits
injectivity from the Artin map; ``verify_artin_restriction`` certifies
that diagram generator by generator. One evaluator computes both actions
on the freely reduced word (psi's inverse letters are certified inverses).

Braid text grammar: whitespace-separated tokens ``b<k>`` with optional
``^-1``, rightmost letter acting first, plus a strand count. Far
commutation is taken for |i-j| >= 2, the index gap at which the twist
regions of beta_i and beta_j are disjoint.
"""

from __future__ import annotations

from functools import lru_cache, partial
from random import Random
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from . import _wordops
from .endos import DEFAULT_IMAGE_BUDGET, FreeEndomorphism, _code_table, product
from .errors import BasisMismatchError, NotZStableError
from .pillars import (
    conjugate_to_yz,
    pillar_switching_action,
    pillar_switching_inverse,
    pillar_switching_yz,
)
from .reports import CheckCase, Mismatch, VerificationReport, case_from_endos, identity_report
from .words import Basis, BasisKind, Word, _int_keyed, _join_tokens, _tokenize, _Value


class BraidWord(_Value):
    """A word in the braid generators: signed indices, |k| < strands."""

    strands: int
    letters: tuple[int, ...]

    def __init__(self, strands: int, letters: Iterable[int] = ()):
        self.__dict__.update(strands=strands, letters=tuple(letters))
        self.__post_init__()

    def __post_init__(self):
        if type(self.strands) is not int:  # no bool or float either
            raise ValueError(f"strand count must be an int, got {self.strands!r}")
        if self.strands < 1:
            raise ValueError(f"strand count must be >= 1, got {self.strands}")
        for k in self.letters:
            if type(k) is not int:  # bools and other int subclasses too
                raise TypeError(f"braid letters are ints, not {type(k).__name__}")
            if k == 0 or abs(k) > self.strands - 1:
                raise ValueError(
                    f"braid letter {k} out of range for {self.strands} strands "
                    f"(indices run 1..{self.strands - 1})"
                )

    @classmethod
    def _trusted(cls, strands: int, letters: tuple[int, ...]) -> "BraidWord":
        # trusted fast path for letters a strand count's token table admitted
        b = object.__new__(cls)
        b.__dict__.update(strands=strands, letters=letters)
        return b

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-k for k in reversed(self.letters)))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if other.strands != self.strands:
            raise ValueError("cannot multiply braid words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def free_reduce(self) -> "BraidWord":
        """Cancel adjacent inverse pairs (a correct move in the braid group)."""
        return BraidWord(self.strands, _wordops.reduce_letters(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_braid_word(self)


@_int_keyed(strands="strand count")
def _braid_letter_table(strands: int) -> Mapping[str, int]:
    """The braid letters on ``strands`` strands by canonical token (``b2^-1`` -> -2).

    A strand count that is not an int, or is below 1, raises ``BraidWord``'s
    ValueError before any token is read, whatever the text, and leaves
    nothing in the cache; ``parse_braid_word`` trusts the strand count too.
    """
    BraidWord(strands)
    letters = {}
    for k in range(1, strands):
        letters[f"b{k}"] = k
        letters[f"b{k}^-1"] = -k
    return MappingProxyType(letters)


def _braid_error(strands: int, token: str, name: str, index: int, sign: int) -> str:
    """The message for a well-formed braid token that is no letter on ``strands``."""
    return f"braid index {index} out of range for {strands} strands"


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse braid text; ``1`` denotes the empty braid.

    The strand count's token table admits only the letters in range, so
    the word skips ``BraidWord``'s check of every letter.
    """
    table = _braid_letter_table(strands)
    reject = partial(_braid_error, strands)
    letters = _tokenize(text, "braid text", table, ("b",), reject, "braid ")
    return BraidWord._trusted(strands, tuple(letters))


def format_braid_word(b: BraidWord) -> str:
    return _join_tokens(f"b{k}" if k > 0 else f"b{-k}^-1" for k in b.letters)


@lru_cache(maxsize=None)
def _artin_generator(k: int, strands: int) -> FreeEndomorphism:
    """The Artin action of the braid letter ``k``: beta_k, or beta_{-k}^-1 for k < 0.

    Built from its two moved rows (``FreeEndomorphism._moving``).
    """
    basis = Basis.abstract(strands)
    codes = basis._codes
    a, b = codes[f"al{abs(k)}"], codes[f"al{abs(k) + 1}"]
    if k > 0:
        rows = {a: (b,), b: (-b, a, b)}
    else:
        rows = {a: (a, b, -a), b: (a,)}
    return FreeEndomorphism._moving(basis, rows)


def _evaluate(b: BraidWord, basis: Basis, factor: Callable, budget: int) -> FreeEndomorphism:
    """``product`` of ``factor(k, b.strands)`` over the freely reduced letters k."""
    letters = _wordops.reduce_letters(b.letters)
    factors = {k: factor(k, b.strands) for k in set(letters)}
    return product(basis, [factors[k] for k in letters], budget=budget)


def artin_action(b: BraidWord, *, budget: int = DEFAULT_IMAGE_BUDGET) -> FreeEndomorphism:
    """The Artin automorphism of the rank-n free group, rightmost letter first.

    The freely reduced word is evaluated, within ``budget``.
    """
    return _evaluate(b, Basis.abstract(b.strands), _artin_generator, budget)


def is_trivial_braid(b: BraidWord, *, budget: int = DEFAULT_IMAGE_BUDGET) -> bool:
    """Word problem: true iff the braid word represents the identity braid.

    Decided by an exact identity check of ``artin_action``, which evaluates
    the freely reduced word within ``budget``.
    """
    return artin_action(b, budget=budget).is_identity()


def _switching(k: int, g: int) -> FreeEndomorphism:
    """psi of the braid letter ``k``: sigma_k, or its certified inverse for k < 0."""
    return pillar_switching_action(k, g) if k > 0 else pillar_switching_inverse(-k, g)


def psi_action(b: BraidWord, *, budget: int = DEFAULT_IMAGE_BUDGET) -> FreeEndomorphism:
    """Image of a braid word under beta_i -> sigma_i, over the xy basis.

    The genus is the strand count (no implicit stabilization) and must be
    at least 2. Inverse letters are the certified switching inverses, so,
    as in ``artin_action``, the freely reduced word is evaluated and
    ``budget`` bounds the images of that evaluation.
    """
    if b.strands < 2:
        raise ValueError(f"psi needs genus >= 2, got {b.strands}")
    return _evaluate(b, Basis.xy(b.strands), _switching, budget)


def restrict_to_z(f: FreeEndomorphism) -> FreeEndomorphism:
    """Restrict a yz endomorphism to the subgroup on z_1..z_g, as al_1..al_g.

    Every z generator must map to a word in z letters only; otherwise a
    ``NotZStableError`` names the first offending generator and image.
    """
    if f.basis.kind is not BasisKind.YZ:
        raise BasisMismatchError(
            f"restrict_to_z expects a yz endomorphism, got one over {f.basis}"
        )
    g = f.basis.genus_or_rank
    z_symbols = f.basis.symbols[g:]  # a yz basis lists y_1..y_g, then z_1..z_g
    abstract = Basis.abstract(g)
    al_of = {}
    for z, al in zip(z_symbols, abstract.symbols):
        al_of[z.code], al_of[-z.code] = al.code, -al.code
    images = []
    for z in z_symbols:
        image = f.table[z.code]
        try:
            images.append(tuple([al_of[code] for code in image]))
        except KeyError:
            raise NotZStableError(z.name, Word._reduced(f.basis, image)) from None
    return FreeEndomorphism._trusted(abstract, _code_table(abstract, images))


def verify_psi_relations(
    genus: int, *, budget: int = DEFAULT_IMAGE_BUDGET
) -> VerificationReport:
    """Braid relations among all switchings sigma_0 .. sigma_{g-1}.

    Lists sigma_i sigma_{i+1} sigma_i = sigma_{i+1} sigma_i sigma_{i+1}
    for 0 <= i <= g-2, then sigma_i sigma_j = sigma_j sigma_i for
    |i-j| >= 2, as identities over the xy basis for ``identity_report``.
    """
    if genus < 2:
        raise ValueError(f"pillar switchings need genus >= 2, got {genus}")
    s = [pillar_switching_action(i, genus) for i in range(genus)]
    relations = [
        (f"braid-relation-sigma{i}-sigma{j}", [s[i], s[j], s[i]], [s[j], s[i], s[j]])
        for i, j in zip(range(genus), range(1, genus))
    ] + [
        (f"commutation-sigma{i}-sigma{j}", [s[i], s[j]], [s[j], s[i]])
        for i in range(genus) for j in range(i + 2, genus)
    ]
    return identity_report(genus, Basis.xy(genus), relations, budget=budget)


def verify_artin_restriction(
    genus: int, *, budget: int = DEFAULT_IMAGE_BUDGET
) -> VerificationReport:
    """The injectivity diagram: psi restricted to the z subgroup is Artin.

    For each i, carries sigma_i to the yz basis, checks the substitution
    form against ``pillar_switching_yz``, then checks that the
    z-restriction equals the Artin action of beta_i.
    """
    if genus < 2:
        raise ValueError(f"the restriction diagram needs genus >= 2, got {genus}")
    cases = []
    for i in range(1, genus):
        yz_form = conjugate_to_yz(pillar_switching_action(i, genus), budget=budget)
        cases.append(
            case_from_endos(
                f"cor-2.1-yz-action-sigma{i}", yz_form, pillar_switching_yz(i, genus)
            )
        )
        name = f"thm-4.1-artin-restriction-beta{i}"
        try:
            restricted = restrict_to_z(yz_form)
        except NotZStableError as exc:
            cases.append(CheckCase(name, (Mismatch(exc.generator, exc.image, None),)))
            continue
        cases.append(
            case_from_endos(
                name, restricted, artin_action(BraidWord(genus, (i,)), budget=budget)
            )
        )
    return VerificationReport(genus, tuple(cases))


def random_braid_word(strands: int, length: int, rng: Random) -> BraidWord:
    """A uniformly random braid word (letters independent, both signs)."""
    if strands < 2 and length > 0:
        raise ValueError("a braid on fewer than 2 strands has no letters")
    letters = tuple(
        rng.randint(1, strands - 1) * rng.choice((1, -1)) for _ in range(length)
    )
    return BraidWord(strands, letters)


def insert_relations(b: BraidWord, moves: int, rng: Random) -> BraidWord:
    """An equivalent braid word: apply random identity-preserving moves.

    Moves insert canceling pairs, braid-relation relators
    (b_i b_{i+1} b_i b_{i+1}^-1 b_i^-1 b_{i+1}^-1) and far-commutation
    relators, or remove an adjacent canceling pair. The result represents
    the same braid group element as ``b``.
    """
    n = b.strands
    letters = list(b.letters)
    for _ in range(moves):
        move = rng.choice(("pair", "braid-rel", "far-comm", "remove"))
        pos = rng.randrange(len(letters) + 1)
        if move == "pair" and n >= 2:
            k = rng.randint(1, n - 1) * rng.choice((1, -1))
            letters[pos:pos] = [k, -k]
        elif move == "braid-rel" and n >= 3:
            i = rng.randint(1, n - 2)
            relator = [i, i + 1, i, -(i + 1), -i, -(i + 1)]
            if rng.random() < 0.5:
                relator = [-k for k in reversed(relator)]
            letters[pos:pos] = relator
        elif move == "far-comm" and n >= 4:
            i = rng.randint(1, n - 3)
            j = rng.randint(i + 2, n - 1)
            relator = [i, j, -i, -j]
            if rng.random() < 0.5:
                relator = [-k for k in reversed(relator)]
            letters[pos:pos] = relator
        elif move == "remove":
            for k in range(len(letters) - 1):
                if letters[k] == -letters[k + 1]:
                    del letters[k : k + 2]
                    break
    return BraidWord(n, tuple(letters))
