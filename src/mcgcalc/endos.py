"""Endomorphisms of a free group, given by one image word per generator.

A map is stored as its code table, the form the word kernel substitutes
with: ``table[code]`` is the image (a tuple of signed letter codes) of
the generator with that positive code, and codes the basis does not use
hold ``()``. Images of inverse letters are never stored; they are the
inverted images of the positive letters.

Everything downstream composes maps right to left: ``compose(f, h)``
acts as ``h`` first, then ``f``, so a product written left to right
applies its rightmost factor first. ``product`` is the one evaluator of
a product of generators; ``compose`` and ``power`` are its two- and
k-factor cases. Iterated composition can grow images exponentially, so
``apply`` and ``product`` take a total-letter ``budget`` per call
(default 10**7) and raise ``ImageBudgetError`` instead of thrashing. The
budget is checked inside the kernel's ``substitute``, which sums the
image lengths before it substitutes; ``product`` also checks its running
total after each step. A row that a generator only renames, as each braid
generator renames one of its two moved rows, is reused there, not copied.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from . import _wordops
from .errors import BasisMismatchError, ImageBudgetError
from .words import (
    Basis, BasisKind, Symbol, Word, _letter_table, format_word, parse_word
)

DEFAULT_IMAGE_BUDGET = 10**7


def _code_table(
    basis: Basis, images: Iterable[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """The code table of ``images``, which are aligned with ``basis.symbols``."""
    table: list[tuple[int, ...]] = [()] * _row_count(basis)
    for sym, image in zip(basis.symbols, images, strict=True):
        table[sym.code] = image
    return tuple(table)


def _row_count(basis: Basis) -> int:
    # the cached names run from the largest code's inverse to the largest code
    return len(_letter_table(basis)[1]) // 2 + 1


@dataclass(frozen=True, repr=False)
class FreeEndomorphism:
    """A map of the free group over ``basis``, held as its code table.

    ``table[code]`` is the image of the generator with that code, as
    signed letter codes; build maps with ``from_images``, ``identity`` or
    ``product``. Instances are immutable values; composition materializes
    all images eagerly.
    """

    basis: Basis
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.table) != _row_count(self.basis):
            raise ValueError(
                f"expected a table of {_row_count(self.basis)} rows for "
                f"{self.basis}, got {len(self.table)}"
            )

    @property
    def images(self) -> tuple[Word, ...]:
        """The image words, aligned with ``basis.symbols``."""
        return tuple(
            Word._reduced(self.basis, self.table[sym.code])
            for sym in self.basis.symbols
        )

    @classmethod
    def identity(cls, basis: Basis) -> "FreeEndomorphism":
        return cls(basis, _code_table(basis, ((sym.code,) for sym in basis.symbols)))

    @classmethod
    def from_images(
        cls,
        basis: Basis,
        mapping: Mapping[str, Union[Word, str]],
        *,
        fix_unlisted: bool = False,
    ) -> "FreeEndomorphism":
        """Build from a name -> image mapping (image words or word text).

        With ``fix_unlisted`` the generators absent from the mapping map
        to themselves; otherwise every generator must be listed.
        """
        by_name = dict(mapping)
        images = []
        for sym in basis.symbols:
            if sym.name in by_name:
                value = by_name.pop(sym.name)
                if not isinstance(value, Word):
                    value = parse_word(value, basis)
                elif value.basis != basis:
                    raise BasisMismatchError(
                        f"image {value} lives over {value.basis}, not {basis}"
                    )
                images.append(value.data)
            elif fix_unlisted:
                images.append((sym.code,))
            else:
                raise ValueError(f"missing image for generator {sym.name}")
        if by_name:
            raise ValueError(f"unknown generators in mapping: {sorted(by_name)}")
        return cls(basis, _code_table(basis, images))

    def image_of(self, name_or_symbol: Union[str, Symbol]) -> Word:
        code = self.basis.generator(name_or_symbol).data[0]
        return Word._reduced(self.basis, self.table[code])

    def apply(self, w: Word, *, budget: int = DEFAULT_IMAGE_BUDGET) -> Word:
        """Image of ``w``: substitute letterwise and reduce."""
        if w.basis != self.basis:
            raise BasisMismatchError(
                f"cannot apply a map over {self.basis} to a word over {w.basis}"
            )
        return Word._reduced(
            self.basis, _wordops.substitute(w.data, self.table, budget=budget)
        )

    def compose(
        self, other: "FreeEndomorphism", *, budget: int = DEFAULT_IMAGE_BUDGET
    ) -> "FreeEndomorphism":
        """The map acting as ``other`` first, then ``self``."""
        return product(self.basis, (self, other), budget=budget)

    def __mul__(self, other: "FreeEndomorphism") -> "FreeEndomorphism":
        if not isinstance(other, FreeEndomorphism):
            return NotImplemented
        return self.compose(other)

    def power(
        self, k: int, *, budget: int = DEFAULT_IMAGE_BUDGET
    ) -> "FreeEndomorphism":
        """k-fold self-composition; ``power(0)`` is the identity."""
        if k < 0:
            raise ValueError(f"power expects k >= 0, got {k}")
        return product(self.basis, (self,) * k, budget=budget)

    def is_identity(self) -> bool:
        return all(self.table[sym.code] == (sym.code,) for sym in self.basis.symbols)

    def to_json_dict(self) -> dict:
        return {
            "basis": {
                "kind": self.basis.kind.value,
                "genus_or_rank": self.basis.genus_or_rank,
            },
            "images": {
                sym.name: format_word(img)
                for sym, img in zip(self.basis.symbols, self.images)
            },
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "FreeEndomorphism":
        basis = Basis(
            BasisKind(payload["basis"]["kind"]),
            int(payload["basis"]["genus_or_rank"]),
        )
        return cls.from_images(basis, payload["images"])

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{sym.name} -> {format_word(img)}"
            for sym, img in zip(self.basis.symbols, self.images)
        )
        return f"FreeEndomorphism({self.basis}: {parts})"


def product(
    basis: Basis,
    factors: Sequence[FreeEndomorphism],
    *,
    budget: int = DEFAULT_IMAGE_BUDGET,
) -> FreeEndomorphism:
    """The product f_1 f_2 ... f_n of ``factors``, rightmost acting first.

    ``product(basis, ())`` is the identity. The factors' code tables are
    composed directly: each step substitutes only the generators its
    factor moves, a generator it fixes keeps its accumulated image, and a
    generator it sends to a positive letter c takes c's accumulated image,
    the same object, without a kernel call. Raises ``ImageBudgetError``
    before materializing an image whose unreduced size exceeds ``budget``,
    and after any step whose images total more than ``budget`` letters.
    """
    # a product repeats a few generators: compare each distinct factor once
    for f in {id(f): f for f in factors}.values():
        if f.basis is not basis and f.basis != basis:
            raise BasisMismatchError(f"cannot compose maps over {basis} and {f.basis}")
    if not factors:
        return FreeEndomorphism.identity(basis)
    codes = [sym.code for sym in basis.symbols]
    # id of a factor's table -> the (code, image, renamed) rows it moves, in
    # basis order, where ``renamed`` is c for an image (c,) with c > 0 and else 0;
    # ``factors`` keeps every table alive, so no id is reused within the call
    moved: dict[int, list[tuple[int, tuple[int, ...], int]]] = {}
    table = factors[0].table
    total = sum([len(table[code]) for code in codes])
    if total > budget:
        raise ImageBudgetError(total, budget)
    for f in factors[1:]:
        rows = moved.get(id(f.table))
        if rows is None:
            rows = moved[id(f.table)] = [
                (code, img, img[0] if len(img) == 1 and img[0] > 0 else 0)
                for code in codes
                if (img := f.table[code]) != (code,)
            ]
        step = list(table)
        for code, img, renamed in rows:
            # A rename reuses the accumulated row and, like a fixed row, needs
            # no budget check: the total checked before this step counts
            # table[renamed], so len(table[renamed]) <= total <= budget.
            if renamed:
                new = table[renamed]
            else:
                new = _wordops.substitute(img, table, budget=budget)
            total += len(new) - len(table[code])
            step[code] = new
        table = tuple(step)
        if total > budget:
            raise ImageBudgetError(total, budget)
    return FreeEndomorphism(basis, table)


def verify_inverse_pair(
    f: FreeEndomorphism, h: FreeEndomorphism, *, budget: int = DEFAULT_IMAGE_BUDGET
) -> bool:
    """True iff ``f`` and ``h`` compose to the identity in both orders."""
    if f.basis != h.basis:
        raise BasisMismatchError(
            f"cannot compare maps over {f.basis} and {h.basis}"
        )
    return (
        f.compose(h, budget=budget).is_identity()
        and h.compose(f, budget=budget).is_identity()
    )
