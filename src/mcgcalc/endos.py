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
Each map computes the rows it moves and its letter total once, the first
time ``product`` reads them, so a step costs what its factor moves; a map
built from its moved rows (``FreeEndomorphism._moving``) records them as
it is built and never scans the rank. A product of one factor is that
factor.

The public constructor ``FreeEndomorphism(basis, table)`` checks every
row: it refuses a letter the basis does not admit, an unreduced row and a
nonempty row at a code the basis does not use. The package's own
builders (``identity``, ``from_images``, ``_moving``, ``product`` and the
basis-change and restriction maps of ``pillars`` and ``braids``) build
rows that hold already and take the trusted path, ``_trusted``, which
skips that check; every path still runs ``__post_init__``, which checks
the table's length. ``image_text`` prints the image of
a word with one call of the kernel's ``format_image``, which substitutes
and writes the names without building the image word; ``format_word``
prints a word with the same op, through a one-row table.
"""

from __future__ import annotations

import json
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

from . import _wordops
from .errors import BasisMismatchError, ImageBudgetError
from .words import (
    Basis, BasisKind, Symbol, Word, _Value, format_word, parse_word
)

DEFAULT_IMAGE_BUDGET = 10**7


def _code_table(
    basis: Basis, images: Iterable[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """The code table of ``images``, which are aligned with ``basis.symbols``."""
    table: list[tuple[int, ...]] = [()] * len(basis._identity_table)
    for sym, image in zip(basis.symbols, images, strict=True):
        table[sym.code] = image
    return tuple(table)


def _moved_rows(
    table: tuple[tuple[int, ...], ...], codes: Iterable[int]
) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """The ``(code, image, renamed)`` rows of ``table`` at ``codes`` that are
    not ``(code,)``, in the order of ``codes``; ``renamed`` is c for an image
    ``(c,)`` with c > 0, else 0."""
    return tuple(
        (code, img, img[0] if len(img) == 1 and img[0] > 0 else 0)
        for code in codes
        if (img := table[code]) != (code,)
    )


class FreeEndomorphism(_Value):
    """A map of the free group over ``basis``, held as its code table.

    ``table[code]`` is the image of the generator with that code, as
    signed letter codes; build maps with ``from_images``, ``identity`` or
    ``product``. ``FreeEndomorphism(basis, table)`` checks every row (see
    the module docstring). Instances are immutable values; composition
    materializes all images eagerly. A map computes the rows it moves and
    its letter total once, when ``product`` first asks for them; like the
    basis's tables they stay out of equality and out of the pickled state.
    """

    basis: Basis
    table: tuple[tuple[int, ...], ...]

    def __init__(self, basis: Basis, table: Iterable[Iterable[int]]):
        self.__dict__.update(basis=basis, table=tuple(map(tuple, table)))
        self.__post_init__()
        self._check_rows()

    def __post_init__(self):
        rows = len(self.basis._identity_table)
        if len(self.table) != rows:
            raise ValueError(
                f"expected a table of {rows} rows for {self.basis}, got {len(self.table)}"
            )

    def _check_rows(self) -> None:
        """Refuse a row the trusted builders never make: one that is no reduced
        word of admitted letters (``Word``'s check), or a nonempty row at an
        unused code."""
        basis = self.basis
        for code, (row, used) in enumerate(zip(self.table, basis._identity_table)):
            if not used:
                if row:
                    raise ValueError(
                        f"code {code} is no generator of {basis}, but its row is {row}"
                    )
                continue
            try:
                Word(basis, row)
            except ValueError as exc:  # BasisMismatchError too, keeping its type
                raise type(exc)(f"image of {basis._names[code]}: {exc}") from None

    @classmethod
    def _trusted(cls, basis: Basis, table: tuple[tuple[int, ...], ...]) -> "FreeEndomorphism":
        # the builders' path: rows they made hold, so only __post_init__ runs
        f = object.__new__(cls)
        f.__dict__.update(basis=basis, table=table)
        f.__post_init__()
        return f

    @classmethod
    def _moving(
        cls, basis: Basis, rows: Mapping[int, tuple[int, ...]]
    ) -> "FreeEndomorphism":
        """The map sending each code of ``rows`` to its reduced row of admitted
        letters and fixing every other generator.

        It takes the trusted path and records ``_moved`` from ``rows``, in
        code order, which is basis order on xy and abstract bases (not on
        yz), so the rank is never scanned.
        """
        table = list(basis._identity_table)
        for code, row in rows.items():
            table[code] = row
        f = cls._trusted(basis, tuple(table))
        f.__dict__["_moved"] = _moved_rows(f.table, sorted(rows))
        return f

    def __getstate__(self) -> dict:
        # the fields alone: the cached rows and total are not part of the value
        return {"basis": self.basis, "table": self.table}

    @cached_property
    def _moved(self) -> tuple[tuple[int, tuple[int, ...], int], ...]:
        """The ``(code, image, renamed)`` rows this map moves, in basis order.

        ``renamed`` is c for an image ``(c,)`` with c > 0, else 0.
        """
        return _moved_rows(self.table, [sym.code for sym in self.basis.symbols])

    @cached_property
    def _letter_total(self) -> int:
        return sum(map(len, self.table))

    @property
    def images(self) -> tuple[Word, ...]:
        """The image words, aligned with ``basis.symbols``."""
        return tuple(
            Word._reduced(self.basis, self.table[sym.code])
            for sym in self.basis.symbols
        )

    @classmethod
    def identity(cls, basis: Basis) -> "FreeEndomorphism":
        return cls._trusted(basis, basis._identity_table)

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
        letters = basis._codes
        if not fix_unlisted:
            for sym in basis.symbols:
                if sym.name not in mapping:
                    raise ValueError(f"missing image for generator {sym.name}")
        table = list(basis._identity_table)
        unknown = []
        for name, value in mapping.items():
            code = letters.get(name, 0)
            if code <= 0:  # no generator's name, or an inverse letter's
                unknown.append(name)
                continue
            if not isinstance(value, Word):
                value = parse_word(value, basis)
            elif value.basis is not basis:
                raise BasisMismatchError(
                    f"image {value} lives over {value.basis}, not {basis}"
                )
            table[code] = value.data
        if unknown:
            raise ValueError(f"unknown generators in mapping: {sorted(unknown)}")
        return cls._trusted(basis, tuple(table))

    def image_of(self, name_or_symbol: Union[str, Symbol]) -> Word:
        code = self.basis.generator(name_or_symbol).data[0]
        return Word._reduced(self.basis, self.table[code])

    def _check_word(self, w: Word) -> None:
        if w.basis is not self.basis:
            raise BasisMismatchError(
                f"cannot apply a map over {self.basis} to a word over {w.basis}"
            )

    def apply(self, w: Word, *, budget: int = DEFAULT_IMAGE_BUDGET) -> Word:
        """Image of ``w``: substitute letterwise and reduce."""
        self._check_word(w)
        return Word._reduced(
            self.basis, _wordops.substitute(w.data, self.table, budget=budget)
        )

    def image_text(self, w: Word, *, budget: int = DEFAULT_IMAGE_BUDGET) -> str:
        """``format_word(self.apply(w, budget=budget))``, ``1`` for the identity.

        One call of the kernel's ``format_image`` substitutes and writes the
        names, so the image is never built as a ``Word``; the word's basis
        and the budget are checked as ``apply`` checks them.
        """
        self._check_word(w)
        return _wordops.format_image(w.data, self.table, self.basis._names, budget=budget) or "1"

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
        # the shared basis; the constructor refuses a rank that is not an int
        basis = Basis(BasisKind(payload["basis"]["kind"]), payload["basis"]["genus_or_rank"])
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

    ``product(basis, ())`` is the identity, and one factor is returned as
    it is. The factors' code tables are composed directly: each step
    substitutes only the rows its factor moves (``_moved``, computed once
    per map), a generator it fixes keeps its accumulated image, and a
    generator it sends to a positive letter c takes c's accumulated image,
    the same object, without a kernel call. Raises ``ImageBudgetError``
    before materializing an image whose unreduced size exceeds ``budget``,
    and after any step whose images total more than ``budget`` letters.
    """
    for f in factors:
        if f.basis is not basis:
            raise BasisMismatchError(f"cannot compose maps over {basis} and {f.basis}")
    if not factors:
        return FreeEndomorphism.identity(basis)
    table = factors[0].table
    total = factors[0]._letter_total
    if total > budget:
        raise ImageBudgetError(total, budget)
    if len(factors) == 1:
        return factors[0]
    for f in factors[1:]:
        step = list(table)
        for code, img, renamed in f._moved:
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
    return FreeEndomorphism._trusted(basis, table)


def verify_inverse_pair(
    f: FreeEndomorphism, h: FreeEndomorphism, *, budget: int = DEFAULT_IMAGE_BUDGET
) -> bool:
    """True iff ``f`` and ``h`` compose to the identity in both orders."""
    if f.basis is not h.basis:
        raise BasisMismatchError(
            f"cannot compare maps over {f.basis} and {h.basis}"
        )
    return (
        f.compose(h, budget=budget).is_identity()
        and h.compose(f, budget=budget).is_identity()
    )
