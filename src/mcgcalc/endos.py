"""Endomorphisms of a free group, given by one image word per generator.

Everything downstream composes maps right to left: ``compose(f, h)``
acts as ``h`` first, then ``f``, so a product written left to right
applies its rightmost factor first. Images of inverse letters are never
stored; they are the inverted images of the positive letters.

``product`` is the one evaluator of a product of generators; ``compose``
and ``power`` are its two- and k-factor cases. Iterated composition can
grow images exponentially, so ``apply`` and ``product`` take a
total-letter ``budget`` per call (default 10**7) and raise
``ImageBudgetError`` instead of thrashing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from . import _wordops
from .errors import BasisMismatchError, ImageBudgetError
from .words import Basis, BasisKind, Symbol, Word, format_word, parse_word

DEFAULT_IMAGE_BUDGET = 10**7


@dataclass(frozen=True, repr=False)
class FreeEndomorphism:
    """A map of the free group over ``basis``, one image per generator.

    ``images`` is aligned with ``basis.symbols``. Instances are immutable
    values; composition materializes all images eagerly.
    """

    basis: Basis
    images: tuple[Word, ...]

    def __post_init__(self):
        if len(self.images) != self.basis.rank:
            raise ValueError(
                f"expected {self.basis.rank} images for {self.basis}, "
                f"got {len(self.images)}"
            )
        for img in self.images:
            if img.basis != self.basis:
                raise BasisMismatchError(
                    f"image {img} lives over {img.basis}, not {self.basis}"
                )
        # code -> image data, densely indexed for the kernel
        table: list[tuple[int, ...]] = [()] * (
            max(sym.code for sym in self.basis.symbols) + 1
        )
        for sym, img in zip(self.basis.symbols, self.images):
            table[sym.code] = img.data
        object.__setattr__(self, "_table", table)

    @classmethod
    def identity(cls, basis: Basis) -> "FreeEndomorphism":
        return cls(basis, tuple(basis.generator(sym) for sym in basis.symbols))

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
                images.append(
                    value if isinstance(value, Word) else parse_word(value, basis)
                )
            elif fix_unlisted:
                images.append(basis.generator(sym))
            else:
                raise ValueError(f"missing image for generator {sym.name}")
        if by_name:
            raise ValueError(f"unknown generators in mapping: {sorted(by_name)}")
        return cls(basis, tuple(images))

    def image_of(self, name_or_symbol: Union[str, Symbol]) -> Word:
        sym = (
            name_or_symbol
            if isinstance(name_or_symbol, Symbol)
            else Symbol.from_code(self.basis.generator(name_or_symbol).data[0])
        )
        try:
            position = self.basis.symbols.index(sym)
        except ValueError:
            raise BasisMismatchError(
                f"symbol {sym.name} is not a generator of {self.basis}"
            ) from None
        return self.images[position]

    def apply(self, w: Word, *, budget: int = DEFAULT_IMAGE_BUDGET) -> Word:
        """Image of ``w``: substitute letterwise and reduce."""
        if w.basis != self.basis:
            raise BasisMismatchError(
                f"cannot apply a map over {self.basis} to a word over {w.basis}"
            )
        table = self._table  # type: ignore[attr-defined]
        needed = _unreduced_size(w.data, table)
        if needed > budget:
            raise ImageBudgetError(needed, budget)
        return Word._reduced(self.basis, _wordops.substitute(w.data, table))

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
        return all(
            img.data == (sym.code,)
            for sym, img in zip(self.basis.symbols, self.images)
        )

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


def _unreduced_size(word: tuple[int, ...], table: Sequence[tuple[int, ...]]) -> int:
    """Letters in the image of ``word`` under ``table`` before reduction."""
    return sum([len(table[code if code > 0 else -code]) for code in word])


def product(
    basis: Basis,
    factors: Sequence[FreeEndomorphism],
    *,
    budget: int = DEFAULT_IMAGE_BUDGET,
) -> FreeEndomorphism:
    """The product f_1 f_2 ... f_n of ``factors``, rightmost acting first.

    ``product(basis, ())`` is the identity. The factors' code tables are
    composed directly and the result is wrapped once; a generator a
    factor fixes keeps its accumulated image without a substitution.
    Raises ``ImageBudgetError`` before materializing an image whose
    unreduced size exceeds ``budget``, and after any step whose images
    total more than ``budget`` letters.
    """
    for f in factors:
        if f.basis != basis:
            raise BasisMismatchError(f"cannot compose maps over {basis} and {f.basis}")
    if not factors:
        return FreeEndomorphism.identity(basis)
    codes = [sym.code for sym in basis.symbols]
    letters = [(code, (code,)) for code in codes]

    def check_total(table):
        total = sum([len(table[code]) for code in codes])
        if total > budget:
            raise ImageBudgetError(total, budget)

    table = factors[0]._table  # type: ignore[attr-defined]
    check_total(table)
    for f in factors[1:]:
        factor_table = f._table  # type: ignore[attr-defined]
        step = list(table)
        for code, letter in letters:
            img = factor_table[code]
            if img == letter:  # f fixes this generator
                continue
            needed = _unreduced_size(img, table)
            if needed > budget:
                raise ImageBudgetError(needed, budget)
            step[code] = _wordops.substitute(img, table)
        table = step
        check_total(table)
    return FreeEndomorphism(
        basis, tuple(Word._reduced(basis, table[code]) for code in codes)
    )


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
