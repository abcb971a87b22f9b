"""Dehn-twist generators of the genus-g mapping class group.

The standard generating twists used here are a_1..a_g, b_1..b_g and
w_1..w_{g-1}. On the fundamental group (free on x_1, y_1, ..., x_g, y_g)
they act by

    a_i: y_i -> y_i x_i^-1
    b_i: x_i -> x_i y_i
    w_i: x_i -> z_i^-1 y_{i+1} x_{i+1} y_{i+1}^-1
         y_i -> y_i z_i
         y_{i+1} -> z_i^-1 y_{i+1}

where z_i abbreviates x_i^-1 y_{i+1} x_{i+1} y_{i+1}^-1 (the loop
parallel to the twist curve of w_i) and every unmentioned generator is
fixed. Stored images are fully expanded over the x/y letters. Inverse
twists carry the back-substituted images listed in ``dehn_twist_action``;
the test suite certifies every twist/inverse pair by composing both ways.

A ``TwistWord`` is a product of signed twists; like all products here it
is evaluated rightmost factor first. Text grammar: whitespace-separated
tokens ``a<k>``, ``b<k>``, ``w<k>``, optional ``^-1`` suffix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from . import _wordops
from .endos import DEFAULT_IMAGE_BUDGET, FreeEndomorphism, product
from .errors import WordSyntaxError
from .words import Basis, Word, _join_tokens, _letter_decoder, _tokenize, parse_word


class TwistKind(Enum):
    A = "a"
    B = "b"
    W = "w"


@dataclass(frozen=True, order=True)
class TwistSymbol:
    """One signed Dehn twist: a_i, b_i or w_i, or an inverse thereof."""

    kind: TwistKind
    index: int
    sign: int = 1

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"twist index must be >= 1, got {self.index}")
        if self.sign not in (1, -1):
            raise ValueError(f"twist sign must be +1 or -1, got {self.sign}")

    def validate_for_genus(self, genus: int) -> None:
        limit = genus - 1 if self.kind is TwistKind.W else genus
        if self.index > limit:
            raise ValueError(
                f"twist {self} is out of range for genus {genus} "
                f"({self.kind.value} indices run 1..{limit})"
            )

    def inverse(self) -> "TwistSymbol":
        return TwistSymbol(self.kind, self.index, -self.sign)

    def __str__(self) -> str:
        return f"{self.kind.value}{self.index}" + ("" if self.sign > 0 else "^-1")


@dataclass(frozen=True)
class TwistWord:
    """A product of signed twists over a fixed genus, rightmost acting first."""

    genus: int
    symbols: tuple[TwistSymbol, ...] = ()

    def __post_init__(self):
        if self.genus < 1:
            raise ValueError(f"genus must be >= 1, got {self.genus}")
        for sym in self.symbols:
            sym.validate_for_genus(self.genus)

    def inverse(self) -> "TwistWord":
        return TwistWord(
            self.genus, tuple(sym.inverse() for sym in reversed(self.symbols))
        )

    def __mul__(self, other: "TwistWord") -> "TwistWord":
        if not isinstance(other, TwistWord):
            return NotImplemented
        if other.genus != self.genus:
            raise ValueError("cannot multiply twist words of different genus")
        return TwistWord(self.genus, self.symbols + other.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return format_twist_word(self)


_TWIST_TOKEN_RE = re.compile(r"([abw])([0-9]+)(\^-1)?")


def parse_twist_word(text: str, genus: int) -> TwistWord:
    """Parse twist-word text; ``1`` denotes the empty product."""

    def decode(token: str, pos: int) -> TwistSymbol:
        tm = _TWIST_TOKEN_RE.fullmatch(token)
        if tm is None:
            raise WordSyntaxError(f"bad twist token {token!r}", pos)
        index = int(tm.group(2))
        if index < 1:
            raise WordSyntaxError(f"index must be >= 1 in {token!r}", pos)
        sym = TwistSymbol(TwistKind(tm.group(1)), index, -1 if tm.group(3) else 1)
        try:
            sym.validate_for_genus(genus)
        except ValueError as exc:
            raise WordSyntaxError(str(exc), pos) from None
        return sym

    return TwistWord(genus, tuple(_tokenize(text, "twist word", decode)))


def format_twist_word(tw: TwistWord) -> str:
    return _join_tokens(str(sym) for sym in tw.symbols)


@lru_cache(maxsize=None)
def z_loop(i: int, genus: int) -> Word:
    """The loop z_i = x_i^-1 y_{i+1} x_{i+1} y_{i+1}^-1 over the xy basis.

    Runs parallel to the twist curve of w_i for i <= g-1; the index
    i = g is also accepted and denotes z_g = x_g^-1, the convention that
    extends {y, z} to a full free basis.
    """
    if not 1 <= i <= genus:
        raise ValueError(f"z index {i} out of range for genus {genus}")
    basis = Basis.xy(genus)
    if i == genus:
        return parse_word(f"x{genus}^-1", basis)
    return parse_word(f"x{i}^-1 y{i + 1} x{i + 1} y{i + 1}^-1", basis)


_Z_TOKEN_RE = re.compile(r"(x|y|z)([0-9]+)(\^-1)?")


def word_with_z(text: str, genus: int) -> Word:
    """Parse a word over x/y letters where z<k> abbreviates its xy expansion.

    This is the notation the factorization chains are tabulated in.
    """
    basis = Basis.xy(genus)
    letter = _letter_decoder(basis)

    def decode(token: str, pos: int) -> tuple[int, ...]:
        tm = _Z_TOKEN_RE.fullmatch(token)
        if tm is None:
            raise WordSyntaxError(f"bad token {token!r}", pos)
        if tm.group(1) != "z":
            return (letter(token, pos),)
        index = int(tm.group(2))
        if not 1 <= index <= genus:
            raise WordSyntaxError(
                f"z index {index} out of range for genus {genus}", pos
            )
        z = z_loop(index, genus)
        return (z.inverse() if tm.group(3) else z).data

    pieces = _tokenize(text, "word text", decode)
    codes = [code for piece in pieces for code in piece]
    return Word._reduced(basis, _wordops.reduce_letters(codes))


@lru_cache(maxsize=None)
def dehn_twist_action(sym: TwistSymbol, genus: int) -> FreeEndomorphism:
    """The action of one signed twist on the xy free group."""
    sym.validate_for_genus(genus)
    i = sym.index
    # suffixes raising a letter to the twist's sign and to its opposite
    same, opposite = ("", "^-1") if sym.sign > 0 else ("^-1", "")
    if sym.kind is TwistKind.A:
        images = {f"y{i}": f"y{i} x{i}{opposite}"}
    elif sym.kind is TwistKind.B:
        images = {f"x{i}": f"x{i} y{i}{same}"}
    else:
        # the inverse images are back-substituted (z_i is itself fixed by w_i)
        images = {
            f"x{i}": f"z{i}{opposite} x{i} z{i}{same}",
            f"y{i}": f"y{i} z{i}{same}",
            f"y{i + 1}": f"z{i}{opposite} y{i + 1}",
        }
    expanded = {name: word_with_z(text, genus) for name, text in images.items()}
    return FreeEndomorphism.from_images(Basis.xy(genus), expanded, fix_unlisted=True)


def evaluate_twist_word(
    tw: TwistWord, *, budget: int = DEFAULT_IMAGE_BUDGET
) -> FreeEndomorphism:
    """Evaluate a twist word to one endomorphism, rightmost twist first."""
    return product(
        Basis.xy(tw.genus),
        [dehn_twist_action(sym, tw.genus) for sym in tw.symbols],
        budget=budget,
    )
