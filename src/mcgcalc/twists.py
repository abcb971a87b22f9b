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
z-word text, the notation of these images and of the chain tables, is read
by ``_z_codes`` straight to reduced letter codes, and a twist's map is
built from its moved rows alone (``FreeEndomorphism._moving``), so
building it neither boxes a word nor scans the rank.

A ``TwistWord`` is a product of signed twists; like all products here it
is evaluated rightmost factor first. Text grammar: whitespace-separated
tokens ``a<k>``, ``b<k>``, ``w<k>``, optional ``^-1`` suffix.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Iterable, Mapping

from . import _wordops
from .endos import DEFAULT_IMAGE_BUDGET, FreeEndomorphism, product
from .words import (
    Basis, Word, _int_keyed, _join_tokens, _letter_error, _Ordered, _tokenize, _Value, parse_word
)


class TwistKind(Enum):
    A = "a"
    B = "b"
    W = "w"


class TwistSymbol(_Ordered):
    """One signed Dehn twist: a_i, b_i or w_i, or an inverse thereof."""

    kind: TwistKind
    index: int
    sign: int

    def __init__(self, kind: TwistKind, index: int, sign: int = 1):
        self.__dict__.update(kind=kind, index=index, sign=sign)
        self.__post_init__()

    def __post_init__(self):
        if not isinstance(self.kind, TwistKind):
            raise ValueError(f"twist kind must be a TwistKind, got {self.kind!r}")
        for field, value in (("index", self.index), ("sign", self.sign)):
            if type(value) is not int:  # no bool or float either
                raise ValueError(f"twist {field} must be an int, got {value!r}")
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


class TwistWord(_Value):
    """A product of signed twists over a fixed genus, rightmost acting first."""

    genus: int
    symbols: tuple[TwistSymbol, ...]

    def __init__(self, genus: int, symbols: Iterable[TwistSymbol] = ()):
        self.__dict__.update(genus=genus, symbols=tuple(symbols))
        self.__post_init__()

    def __post_init__(self):
        if type(self.genus) is not int:  # no bool or float either
            raise ValueError(f"genus must be an int, got {self.genus!r}")
        if self.genus < 1:
            raise ValueError(f"genus must be >= 1, got {self.genus}")
        for sym in self.symbols:
            if not isinstance(sym, TwistSymbol):
                raise TypeError(f"twist symbols are TwistSymbols, not {type(sym).__name__}")
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


def _all_twist_symbols(genus: int):
    """Every signed twist of ``genus``: the positive ones first, a_i and b_i
    for i <= g, then w_i for i <= g - 1."""
    for sign in (1, -1):
        for i in range(1, genus + 1):
            yield TwistSymbol(TwistKind.A, i, sign)
            yield TwistSymbol(TwistKind.B, i, sign)
        for i in range(1, genus):
            yield TwistSymbol(TwistKind.W, i, sign)


@lru_cache(maxsize=None)
def _twist_token_table(genus: int) -> Mapping[str, TwistSymbol]:
    """The signed twists of ``genus`` by canonical token (``w2^-1``).

    A genus below 1 raises ``TwistWord``'s ValueError before any token is
    read, whatever the text, and leaves nothing in the cache.
    """
    TwistWord(genus)
    return MappingProxyType({str(sym): sym for sym in _all_twist_symbols(genus)})


def _twist_error(genus: int, token: str, name: str, index: int, sign: int) -> str:
    """The message for a well-formed twist token that is no twist of ``genus``."""
    if index < 1:
        return f"index must be >= 1 in {token!r}"
    try:
        TwistSymbol(TwistKind(name), index, sign).validate_for_genus(genus)
    except ValueError as exc:
        return str(exc)


def parse_twist_word(text: str, genus: int) -> TwistWord:
    """Parse twist-word text; ``1`` denotes the empty product."""
    twists = _twist_token_table(genus)
    reject = partial(_twist_error, genus)
    symbols = _tokenize(text, "twist word", twists, ("a", "b", "w"), reject, "twist ")
    return TwistWord(genus, tuple(symbols))


def format_twist_word(tw: TwistWord) -> str:
    return _join_tokens(str(sym) for sym in tw.symbols)


@_int_keyed(i="z index", genus="genus")
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


@lru_cache(maxsize=None)
def _z_token_table(genus: int) -> Mapping[str, tuple[int, ...]]:
    """The letter codes of every canonical z-word token of ``genus``.

    An x/y letter maps to its one code, ``z<k>`` and ``z<k>^-1`` to the
    codes of ``z_loop(k, genus)`` and of its inverse.
    """
    pieces = {name: (code,) for name, code in Basis.xy(genus)._codes.items()}
    for k in range(1, genus + 1):
        z = z_loop(k, genus)
        pieces[f"z{k}"] = z.data
        pieces[f"z{k}^-1"] = z.inverse().data
    return MappingProxyType(pieces)


def _z_error(genus: int, token: str, name: str, index: int, sign: int) -> str:
    """The message for a well-formed z-word token that is no token of ``genus``."""
    if name == "z":
        return f"z index {index} out of range for genus {genus}"
    return _letter_error(Basis.xy(genus), token, name, index, sign)


def _z_codes(text: str, genus: int) -> tuple[int, ...]:
    """The reduced letter codes of z-word text over the xy basis of ``genus``.

    Like every grammar, its tokens are read through a cached table
    (``_z_token_table``), which is its one rule for the tokens it admits;
    the verifiers compare these codes without building a ``Word``.
    """
    reject = partial(_z_error, genus)
    pieces = _tokenize(text, "word text", _z_token_table(genus), ("x", "y", "z"), reject)
    return _wordops.reduce_letters([code for piece in pieces for code in piece])


def word_with_z(text: str, genus: int) -> Word:
    """Parse a word over x/y letters where z<k> abbreviates its xy expansion.

    This is the notation the factorization chains are tabulated in; the
    word holds the codes ``_z_codes`` reads.
    """
    return Word._reduced(Basis.xy(genus), _z_codes(text, genus))


@_int_keyed(genus="genus")
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
    return _z_map(images, genus)


def _z_map(images: Mapping[str, str], genus: int) -> FreeEndomorphism:
    """The xy map sending each generator named in ``images`` to its z-word
    text, built from those moved rows, and fixing the others."""
    basis = Basis.xy(genus)
    codes = basis._codes
    return FreeEndomorphism._moving(
        basis, {codes[name]: _z_codes(text, genus) for name, text in images.items()}
    )


def evaluate_twist_word(
    tw: TwistWord, *, budget: int = DEFAULT_IMAGE_BUDGET
) -> FreeEndomorphism:
    """Evaluate a twist word to one endomorphism, rightmost twist first."""
    return product(
        Basis.xy(tw.genus),
        [dehn_twist_action(sym, tw.genus) for sym in tw.symbols],
        budget=budget,
    )
