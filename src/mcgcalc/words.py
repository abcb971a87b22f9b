"""Freely reduced words over an indexed alphabet.

Every word lives over a fixed basis (a free generating set). Three basis
kinds cover all uses downstream:

* ``Basis.xy(g)`` -- x1, y1, ..., xg, yg: the fundamental group of a
  genus-g surface with one boundary circle;
* ``Basis.yz(g)`` -- y1..yg, z1..zg: the alternative free basis on which
  pillar switchings act by braid-style substitutions;
* ``Basis.abstract(n)`` -- al1..aln: a plain rank-n free group, the
  target of the Artin representation.

Words are always stored freely reduced, so equality is a plain sequence
comparison. Internally a letter is one signed integer code (positive for
the generator, negative for its inverse), which is what the word kernel
operates on; the ``Letter``/``Symbol`` views decode on demand.

Text grammar: whitespace-separated tokens ``x<k>``, ``y<k>``, ``z<k>``,
``al<k>`` (k >= 1), each optionally suffixed ``^-1``; the single token
``1`` denotes the identity. ``_tokenize`` reads this text and the twist,
braid and z-word text alike; each grammar supplies only a token decoder.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import lru_cache
from random import Random
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Union

from . import _wordops
from .errors import BasisMismatchError, WordSyntaxError


class Family(IntEnum):
    """Symbol families; the integer value is baked into the letter codes."""

    X = 0
    Y = 1
    Z = 2
    ALPHA = 3


_FAMILY_PREFIX = {Family.X: "x", Family.Y: "y", Family.Z: "z", Family.ALPHA: "al"}
_PREFIX_FAMILY = {text: fam for fam, text in _FAMILY_PREFIX.items()}


@dataclass(frozen=True, order=True)
class Symbol:
    """One generator: a family plus a positive index."""

    family: Family
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"symbol index must be >= 1, got {self.index}")

    @property
    def code(self) -> int:
        return (self.index - 1) * 4 + int(self.family) + 1

    @property
    def name(self) -> str:
        return f"{_FAMILY_PREFIX[self.family]}{self.index}"

    @classmethod
    def from_code(cls, code: int) -> "Symbol":
        if code < 1:
            raise ValueError(f"symbol codes are positive, got {code}")
        return cls(Family((code - 1) & 3), ((code - 1) >> 2) + 1)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Letter:
    """A single occurrence of a generator or its inverse."""

    symbol: Symbol
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {self.sign}")

    @property
    def code(self) -> int:
        return self.sign * self.symbol.code

    @classmethod
    def from_code(cls, code: int) -> "Letter":
        return cls(Symbol.from_code(abs(code)), 1 if code > 0 else -1)

    def inverse(self) -> "Letter":
        return Letter(self.symbol, -self.sign)

    def __str__(self) -> str:
        return self.symbol.name + ("" if self.sign > 0 else "^-1")


class BasisKind(Enum):
    XY = "xy"
    YZ = "yz"
    ABSTRACT = "abstract"


_KIND_FAMILIES = {
    BasisKind.XY: frozenset((int(Family.X), int(Family.Y))),
    BasisKind.YZ: frozenset((int(Family.Y), int(Family.Z))),
    BasisKind.ABSTRACT: frozenset((int(Family.ALPHA),)),
}


@lru_cache(maxsize=None)
def _basis_symbols(kind: BasisKind, n: int) -> tuple[Symbol, ...]:
    if kind is BasisKind.XY:
        syms = []
        for i in range(1, n + 1):
            syms.append(Symbol(Family.X, i))
            syms.append(Symbol(Family.Y, i))
        return tuple(syms)
    if kind is BasisKind.YZ:
        return tuple(Symbol(Family.Y, i) for i in range(1, n + 1)) + tuple(
            Symbol(Family.Z, i) for i in range(1, n + 1)
        )
    return tuple(Symbol(Family.ALPHA, i) for i in range(1, n + 1))


@dataclass(frozen=True)
class Basis:
    """A free generating set: a kind plus its genus (xy, yz) or rank."""

    kind: BasisKind
    genus_or_rank: int

    def __post_init__(self):
        if self.genus_or_rank < 1:
            raise ValueError(f"genus/rank must be >= 1, got {self.genus_or_rank}")

    @classmethod
    def xy(cls, genus: int) -> "Basis":
        return cls(BasisKind.XY, genus)

    @classmethod
    def yz(cls, genus: int) -> "Basis":
        return cls(BasisKind.YZ, genus)

    @classmethod
    def abstract(cls, rank: int) -> "Basis":
        return cls(BasisKind.ABSTRACT, rank)

    @property
    def rank(self) -> int:
        """Number of free generators (2g for xy and yz, n for abstract)."""
        if self.kind is BasisKind.ABSTRACT:
            return self.genus_or_rank
        return 2 * self.genus_or_rank

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        return _basis_symbols(self.kind, self.genus_or_rank)

    def admits(self, symbol: Symbol) -> bool:
        return (
            int(symbol.family) in _KIND_FAMILIES[self.kind]
            and symbol.index <= self.genus_or_rank
        )

    def _admits_code(self, code: int) -> bool:
        # code is the positive symbol code
        return ((code - 1) & 3) in _KIND_FAMILIES[self.kind] and (
            (code - 1) >> 2
        ) < self.genus_or_rank

    def generator(self, name_or_symbol: Union[str, Symbol]) -> "Word":
        """The one-letter word for a generator of this basis."""
        sym = (
            name_or_symbol
            if isinstance(name_or_symbol, Symbol)
            else _symbol_from_name(name_or_symbol)
        )
        if not self.admits(sym):
            raise BasisMismatchError(f"symbol {sym.name} is not admitted by {self}")
        return Word._reduced(self, (sym.code,))

    def __str__(self) -> str:
        return f"{self.kind.value}({self.genus_or_rank})"


def _symbol_from_name(name: str) -> Symbol:
    m = _TOKEN_RE.fullmatch(name)
    if m is None or m.group(3):
        raise ValueError(f"bad symbol name {name!r}")
    return Symbol(_PREFIX_FAMILY[m.group(1)], int(m.group(2)))


@dataclass(frozen=True, repr=False)
class Word:
    """A freely reduced word; the empty word is the group identity.

    ``data`` holds the signed letter codes. Direct construction
    validates basis membership and reducedness; operations preserve both
    invariants by going through the word kernel.
    """

    basis: Basis
    data: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.data, tuple):
            object.__setattr__(self, "data", tuple(self.data))
        prev = 0
        for code in self.data:
            mag = code if code > 0 else -code
            if code == 0 or not self.basis._admits_code(mag):
                raise BasisMismatchError(
                    f"letter code {code} is not admitted by {self.basis}"
                )
            if prev == -code:
                raise ValueError("word is not freely reduced")
            prev = code

    @classmethod
    def _reduced(cls, basis: Basis, data: tuple[int, ...]) -> "Word":
        # trusted fast path for kernel output (already reduced and admitted)
        w = object.__new__(cls)
        object.__setattr__(w, "basis", basis)
        object.__setattr__(w, "data", data)
        return w

    @classmethod
    def identity(cls, basis: Basis) -> "Word":
        return cls._reduced(basis, ())

    @classmethod
    def from_letters(
        cls, basis: Basis, letters: Iterable[Union[Letter, int]]
    ) -> "Word":
        """Freely reduce a raw letter sequence over ``basis``.

        Accepts ``Letter`` objects or raw signed codes; every letter must
        be admitted by the basis.
        """
        codes = []
        for item in letters:
            code = item.code if isinstance(item, Letter) else int(item)
            mag = code if code > 0 else -code
            if code == 0 or not basis._admits_code(mag):
                raise BasisMismatchError(
                    f"letter {item} is not admitted by {basis}"
                )
            codes.append(code)
        return cls._reduced(basis, _wordops.reduce_letters(codes))

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(Letter.from_code(code) for code in self.data)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if other.basis != self.basis:
            raise BasisMismatchError(
                f"cannot multiply a word over {self.basis} by one over {other.basis}"
            )
        return Word._reduced(self.basis, _wordops.concat_reduced(self.data, other.data))

    def inverse(self) -> "Word":
        return Word._reduced(self.basis, _wordops.invert_reduced(self.data))

    def __len__(self) -> int:
        return len(self.data)

    def __bool__(self) -> bool:
        return bool(self.data)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, basis={self.basis})"


_TOKEN_RE = re.compile(r"(al|x|y|z)([0-9]+)(\^-1)?")


def _tokenize(text: str, what: str, decode: Callable[[str, int], Any]) -> list:
    """Decode every whitespace-separated token of ``text``, left to right.

    This is the one reader of word, twist, braid and z-word text.
    ``decode(token, offset)`` returns the token's value or raises
    ``WordSyntaxError`` at that offset. The text ``1`` alone gives no
    values (the identity); text without tokens is an error naming ``what``.
    """
    if text.strip() == "1":
        return []
    values = [decode(m.group(0), m.start()) for m in re.finditer(r"\S+", text)]
    if not values:
        raise WordSyntaxError(f'empty {what} (use "1" for the identity)', 0)
    return values


def _join_tokens(tokens: Iterable[str]) -> str:
    """Tokens written as text: one space apart, and ``1`` for none."""
    return " ".join(tokens) or "1"


@lru_cache(maxsize=None)
def _letter_table(basis: Basis) -> tuple[Mapping[str, int], tuple[str, ...]]:
    """The letters of ``basis`` both ways: name -> signed code, signed code -> name.

    The cache hands the same pair to every caller, so both are read-only.
    The names are indexed by the signed code itself: a negative code
    counts from the end of the tuple.
    """
    codes = {}
    for sym in basis.symbols:
        codes[sym.name] = sym.code
        codes[sym.name + "^-1"] = -sym.code
    names = [""] * (2 * max(codes.values()) + 1)
    for name, code in codes.items():
        names[code] = name
    return MappingProxyType(codes), tuple(names)


def _letter_decoder(basis: Basis) -> Callable[[str, int], int]:
    """The decoder of one letter token over ``basis`` to its signed code."""
    codes = _letter_table(basis)[0]

    def decode(token: str, pos: int) -> int:
        code = codes.get(token)
        if code is not None:
            return code
        # Another spelling of a letter (``x01``), or the reason for rejecting it.
        tm = _TOKEN_RE.fullmatch(token)
        if tm is None:
            raise WordSyntaxError(f"bad token {token!r}", pos)
        index = int(tm.group(2))
        if index < 1:
            raise WordSyntaxError(f"index must be >= 1 in {token!r}", pos)
        sym = Symbol(_PREFIX_FAMILY[tm.group(1)], index)
        if not basis.admits(sym):
            raise WordSyntaxError(
                f"symbol {sym.name} is out of range for {basis}", pos
            )
        return -sym.code if tm.group(3) else sym.code

    return decode


def parse_word(text: str, basis: Basis) -> Word:
    """Parse word text over ``basis``; the result is freely reduced.

    Raises ``WordSyntaxError`` (with the character offset) for malformed
    tokens or indices the basis does not admit.
    """
    codes = _tokenize(text, "word text", _letter_decoder(basis))
    return Word._reduced(basis, _wordops.reduce_letters(codes))


def format_word(w: Word) -> str:
    """Render a word in the text grammar; the identity renders as ``1``."""
    return _join_tokens(map(_letter_table(w.basis)[1].__getitem__, w.data))


def random_word(basis: Basis, length: int, rng: Random) -> Word:
    """A uniformly random reduced word of exactly ``length`` letters."""
    pool = [sym.code for sym in basis.symbols]
    codes: list[int] = []
    for _ in range(length):
        while True:
            code = rng.choice(pool) * rng.choice((1, -1))
            if not codes or codes[-1] != -code:
                break
        codes.append(code)
    return Word._reduced(basis, tuple(codes))
