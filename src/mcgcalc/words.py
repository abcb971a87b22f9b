"""Freely reduced words over an indexed alphabet.

Every word lives over a fixed basis (a free generating set). Three basis
kinds cover all uses downstream:

* ``Basis.xy(g)`` -- x1, y1, ..., xg, yg: the fundamental group of a
  genus-g surface with one boundary circle;
* ``Basis.yz(g)`` -- y1..yg, z1..zg: the alternative free basis on which
  pillar switchings act by braid-style substitutions;
* ``Basis.abstract(n)`` -- al1..aln: a plain rank-n free group, the
  target of the Artin representation.

There is one basis per kind and rank, and no twin: the constructor
interns, so ``Basis(kind, rank)``, the factories, ``pickle``,
``copy.deepcopy`` and ``dataclasses.replace`` all return the one object in
``_BASES``, and bases compare and hash by identity. A basis computes its
symbols and tables once. A rank that is not an ``int`` (``True``, ``2.0``,
``"2"``) is refused before anything is stored.

Words are always stored freely reduced, so equality is a plain sequence
comparison. A letter is one signed integer code: positive for the
generator, negative for its inverse. ``Word.data`` is the tuple of these
codes, the form the word kernel operates on; ``Symbol`` names the
generator behind a positive code. The basis's ``_codes`` and ``_names``
decide which codes a basis admits and what they are called.

Text grammar: whitespace-separated tokens ``x<k>``, ``y<k>``, ``z<k>``,
``al<k>`` (k >= 1), each optionally suffixed ``^-1``; the single token
``1`` denotes the identity. ``_tokenize`` reads this text and the twist,
braid and z-word text alike. Each grammar's cached table of its canonical
tokens is its one rule for the tokens it admits; the grammar adds only
the wording of the error for a token missing from it.
Every token of every grammar has one shape, a name, a decimal index and
an optional ``^-1``, and ``_split_token`` is its one reader.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property, lru_cache, partial, wraps
from operator import neg
from random import Random
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Sequence, Union

from . import _wordops
from .errors import BasisMismatchError, WordSyntaxError


class Family(IntEnum):
    """Symbol families; the integer value is baked into the letter codes."""

    X = 0
    Y = 1
    Z = 2
    ALPHA = 3


_FAMILY_PREFIX = {Family.X: "x", Family.Y: "y", Family.Z: "z", Family.ALPHA: "al"}
_LETTER_PREFIXES = frozenset(_FAMILY_PREFIX.values())


@dataclass(frozen=True, order=True)
class Symbol:
    """One generator: a family plus a positive index."""

    family: Family
    index: int

    def __post_init__(self):
        if type(self.index) is not int:  # no bool or float either
            raise ValueError(f"symbol index must be an int, got {self.index!r}")
        if self.index < 1:
            raise ValueError(f"symbol index must be >= 1, got {self.index}")

    @cached_property
    def code(self) -> int:
        # the basis symbols are cached instances, so each computes this once
        return (self.index - 1) * 4 + int(self.family) + 1

    def __getstate__(self) -> dict:
        # the fields alone: a cached ``code`` or ``name`` is not part of the value
        return {"family": self.family, "index": self.index}

    @cached_property
    def name(self) -> str:
        return f"{_FAMILY_PREFIX[self.family]}{self.index}"

    @classmethod
    def from_code(cls, code: int) -> "Symbol":
        if code < 1:
            raise ValueError(f"symbol codes are positive, got {code}")
        return cls(Family((code - 1) & 3), ((code - 1) >> 2) + 1)

    def __str__(self) -> str:
        return self.name


class BasisKind(Enum):
    XY = "xy"
    YZ = "yz"
    ABSTRACT = "abstract"


@dataclass(frozen=True, eq=False, init=False)
class Basis:
    """A free generating set: a kind plus its genus (xy, yz) or rank, one
    object per kind and rank (see the module docstring), compared by
    identity. Its cached tables are not pickled."""

    kind: BasisKind
    genus_or_rank: int

    def __new__(cls, kind: BasisKind, genus_or_rank: int) -> "Basis":
        if type(genus_or_rank) is not int:  # no bool, float or numeric text either
            raise ValueError(f"genus_or_rank must be an int, got {genus_or_rank!r}")
        if genus_or_rank < 1:
            raise ValueError(f"genus/rank must be >= 1, got {genus_or_rank}")
        basis = _BASES[kind].get(genus_or_rank)
        if basis is None:
            basis = object.__new__(cls)
            vars(basis).update(kind=kind, genus_or_rank=genus_or_rank)
            # two threads building the same rank both get the one stored first
            basis = _BASES[kind].setdefault(genus_or_rank, basis)
        return basis

    def __reduce__(self):
        # rebuilt by the constructor, so a pickle loads as the shared basis
        return (Basis, (self.kind, self.genus_or_rank))

    # one dict lookup; a rank that only equals an int (True, 2.0) is refused
    @staticmethod
    def xy(genus: int) -> "Basis":
        return (type(genus) is int and _XY_BASES.get(genus)) or Basis(BasisKind.XY, genus)

    @staticmethod
    def yz(genus: int) -> "Basis":
        return (type(genus) is int and _YZ_BASES.get(genus)) or Basis(BasisKind.YZ, genus)

    @staticmethod
    def abstract(rank: int) -> "Basis":
        return (type(rank) is int and _ABSTRACT_BASES.get(rank)) or Basis(BasisKind.ABSTRACT, rank)

    @cached_property
    def symbols(self) -> tuple[Symbol, ...]:
        n = self.genus_or_rank
        if self.kind is BasisKind.XY:
            return tuple(Symbol(f, i) for i in range(1, n + 1) for f in (Family.X, Family.Y))
        if self.kind is BasisKind.YZ:
            return tuple(Symbol(f, i) for f in (Family.Y, Family.Z) for i in range(1, n + 1))
        return tuple(Symbol(Family.ALPHA, i) for i in range(1, n + 1))

    @cached_property
    def _codes(self) -> Mapping[str, int]:
        """Name -> signed code. With ``_names``, the one rule for which codes
        and names a basis admits; both are computed once and read-only."""
        codes = {}
        for sym in self.symbols:
            codes[sym.name] = sym.code
            codes[sym.name + "^-1"] = -sym.code
        return MappingProxyType(codes)

    @cached_property
    def _names(self) -> tuple[str, ...]:
        """Signed code -> name, ``""`` at a code not admitted; a negative
        code counts from the end of the tuple."""
        names = [""] * (2 * max(sym.code for sym in self.symbols) + 1)
        for name, code in self._codes.items():
            names[code] = name
        return tuple(names)

    @cached_property
    def _identity_table(self) -> tuple[tuple[int, ...], ...]:
        """The identity map's code table: ``(code,)`` at each code of the
        basis, ``()`` at every code it does not use."""
        table: list[tuple[int, ...]] = [()] * (len(self._names) // 2 + 1)
        for sym in self.symbols:
            table[sym.code] = (sym.code,)
        return tuple(table)

    @cached_property
    def _signed_letters(self) -> tuple[int, ...]:
        """The 2r letter codes, each inverse pair adjacent: c, -c, ...

        The inverse of the letter at index ``k`` sits at index ``k ^ 1``.
        """
        return tuple(code for sym in self.symbols for code in (sym.code, -sym.code))

    def admits(self, symbol: Symbol) -> bool:
        return symbol.name in self._codes

    def generator(self, name_or_symbol: Union[str, Symbol]) -> "Word":
        """The one-letter word for a generator of this basis, by canonical name."""
        name = (
            name_or_symbol.name
            if isinstance(name_or_symbol, Symbol)
            else name_or_symbol
        )
        code = self._codes.get(name, 0)
        if code <= 0:
            raise BasisMismatchError(f"{name!r} is not a generator of {self}")
        return Word._reduced(self, (code,))

    def __str__(self) -> str:
        return f"{self.kind.value}({self.genus_or_rank})"


# The one intern table: the bases made so far, one dict per kind keyed by the
# int rank. Like the other per-genus caches it is unbounded.
_BASES: dict[BasisKind, dict[int, Basis]] = {kind: {} for kind in BasisKind}
_XY_BASES = _BASES[BasisKind.XY]
_YZ_BASES = _BASES[BasisKind.YZ]
_ABSTRACT_BASES = _BASES[BasisKind.ABSTRACT]


def _int_keyed(**labels: str) -> Callable[[Callable], Callable]:
    """``lru_cache(maxsize=None)`` for a function keyed by a genus or index,
    which refuses a value that is not an ``int`` before the cache is read.

    ``True`` and ``2.0`` hash and compare like 1 and 2, so the cache alone
    would serve them the int's entry. Each parameter named in ``labels``
    must be an ``int`` (``bool`` refused), or ``ValueError`` is raised,
    worded like ``Basis``'s with the label as its name. Arguments passed
    by keyword are bound to their positions first, so ``f(i=0, genus=2)``
    is the cache entry of ``f(0, 2)``. The wrapper keeps the cache's
    ``cache_info`` and ``cache_clear``.
    """

    def decorate(fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        params = list(signature.parameters)
        checks = [(params.index(name), label) for name, label in labels.items()]
        cached = lru_cache(maxsize=None)(fn)

        @wraps(fn)
        def checked(*args, **kwargs):
            if kwargs:
                args = signature.bind(*args, **kwargs).args
            for k, label in checks:
                # a missing argument passes here and is the cache's TypeError
                value = args[k] if k < len(args) else 0
                if type(value) is not int:
                    raise ValueError(f"{label} must be an int, got {value!r}")
            return cached(*args)

        checked.cache_info, checked.cache_clear = cached.cache_info, cached.cache_clear
        return checked

    return decorate


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
            _admitted(self.basis, code)
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
    def from_letters(cls, basis: Basis, codes: Iterable[int]) -> "Word":
        """Freely reduce a sequence of signed letter codes over ``basis``.

        Every letter must be admitted by the basis.
        """
        codes = [_admitted(basis, code) for code in codes]
        return cls._reduced(basis, _wordops.reduce_letters(codes))

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if other.basis is not self.basis:
            raise BasisMismatchError(
                f"cannot multiply a word over {self.basis} by one over {other.basis}"
            )
        return Word._reduced(self.basis, _wordops.concat_reduced(self.data, other.data))

    def inverse(self) -> "Word":
        return Word._reduced(self.basis, tuple(map(neg, reversed(self.data))))

    def __len__(self) -> int:
        return len(self.data)

    def __bool__(self) -> bool:
        return bool(self.data)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, basis={self.basis})"


_TOKEN_RE = re.compile(r"([a-z]+)([0-9]+)(\^-1)?")


def _tokenize(
    text: str,
    what: str,
    table: Mapping[str, Any],
    names: frozenset[str] | tuple[str, ...],
    reject: Callable[[str, str, int, int], str],
    label: str = "",
) -> Sequence:
    """The values of the whitespace-separated tokens of ``text``, left to right.

    This is the one reader of word, twist, braid and z-word text. Every
    grammar passes ``table``, a cached map from its canonical token
    spellings to their values and its one rule for the tokens it admits.
    When every token is in it, the values come straight from it, read by
    one call of the kernel's ``read_tokens``, which looks each distinct
    token up once. Otherwise (a token it lacks, or no token at all) each
    token is read by ``_split_token`` and looked up in ``table`` by its
    canonical spelling (``x1`` for ``x01``); a token still missing is a
    ``WordSyntaxError`` at its offset, with the message
    ``reject(token, name, index, sign)``. The text ``1`` alone gives no
    values (the identity); text without tokens is an error naming ``what``.
    """
    try:
        values = _wordops.read_tokens(text, table)
    except KeyError:
        values = ()
    if values:
        return values
    if text.strip() == "1":
        return []
    values = []
    for m in re.finditer(r"\S+", text):
        token, pos = m.group(0), m.start()
        name, index, sign = _split_token(token, pos, names, label)
        value = table.get(f"{name}{index}^-1" if sign < 0 else f"{name}{index}")
        if value is None:
            raise WordSyntaxError(reject(token, name, index, sign), pos)
        values.append(value)
    if not values:
        raise WordSyntaxError(f'empty {what} (use "1" for the identity)', 0)
    return values


def _split_token(
    token: str, pos: int, names: frozenset[str] | tuple[str, ...], label: str = ""
) -> tuple[str, int, int]:
    """The ``(name, index, sign)`` of a token whose name is one of ``names``.

    This is the one reader of the token shape; ``_tokenize`` reads every
    token with it when a text is not all canonical tokens. The name is
    checked before the index is read, so a token with a foreign name is a
    ``bad {label}token`` however long its index. Leading zeros are allowed;
    an index with more digits than ``int`` converts is a
    ``WordSyntaxError`` at ``pos``.
    """
    tm = _TOKEN_RE.fullmatch(token)
    name, digits, inverse = tm.groups() if tm else (None, None, None)
    if name not in names:
        raise WordSyntaxError(f"bad {label}token {token!r}", pos)
    digits = digits.lstrip("0") or "0"
    try:
        index = int(digits)
    except ValueError:  # beyond sys.get_int_max_str_digits()
        message = f"index of {len(digits)} digits is too long"
        raise WordSyntaxError(message, pos) from None
    return name, index, -1 if inverse else 1


def _join_tokens(tokens: Iterable[str]) -> str:
    """Tokens written as text: one space apart, and ``1`` for none."""
    return " ".join(tokens) or "1"


def _admitted(basis: Basis, code: int) -> int:
    """``code`` itself if it is a letter of ``basis``, else BasisMismatchError."""
    if type(code) is not int:  # bools and other int subclasses too
        raise TypeError(f"letter codes are ints, not {type(code).__name__}")
    names = basis._names
    if 2 * abs(code) < len(names) and names[code]:
        return code
    raise BasisMismatchError(f"letter code {code} is not admitted by {basis}")


def _letter_error(basis: Basis, token: str, name: str, index: int, sign: int) -> str:
    """The message for a well-formed letter token that is no letter of ``basis``."""
    if index < 1:
        return f"index must be >= 1 in {token!r}"
    return f"symbol {name}{index} is out of range for {basis}"


def parse_word(text: str, basis: Basis) -> Word:
    """Parse word text over ``basis``; the result is freely reduced.

    Canonical text is two kernel calls: ``read_tokens`` looks its tokens
    up in ``basis._codes``, and ``reduce_letters`` reduces the codes.
    Raises ``WordSyntaxError`` (with the character offset) for malformed
    tokens or indices the basis does not admit.
    """
    reject = partial(_letter_error, basis)
    codes = _tokenize(text, "word text", basis._codes, _LETTER_PREFIXES, reject)
    return Word._reduced(basis, _wordops.reduce_letters(codes))


def format_word(w: Word) -> str:
    """Render a word in the text grammar; the identity renders as ``1``.

    The text is one call of the kernel's ``format_image``, its one name
    writer: the word is the image of the one-letter word ``(1,)`` under the
    one-row table ``((), w.data)``, so each letter is read once, and the
    basis's name tuple gives the names, one space apart. ``export``,
    reports and ``repr`` print through here; ``act`` prints with
    ``FreeEndomorphism.image_text``, the same call on its map's table.
    """
    return _wordops.format_image((1,), ((), w.data), w.basis._names) or "1"


def random_word(basis: Basis, length: int, rng: Random) -> Word:
    """A uniformly random reduced word of exactly ``length`` letters.

    Each letter costs one ``rng.random()``, drawn in order by the kernel's
    ``draw_letters``, which turns the draws into letters; a length of 0 or
    less gives the identity and draws nothing. The first letter is uniform
    over the 2r letters, every later one uniform over the 2r - 1 letters
    that do not cancel the previous one (the draw skips the previous
    letter's inverse by shifting the indices above it).
    """
    return Word._reduced(basis, _wordops.draw_letters(rng.random, length, basis._signed_letters))


def _random_codes(basis: Basis, rng: Random, max_length: int) -> Callable[[], tuple[int, ...]]:
    """A function whose every call draws the letter codes of one random reduced
    word over ``basis``: ``rng.randrange(max_length + 1)`` letters, then the
    letters as ``random_word`` draws them, from the same stream.

    Everything it needs is looked up here, once, so a long run of draws
    pays for no ``Word`` and no lookup per word.
    """
    draw, random, randrange = _wordops.draw_letters, rng.random, rng.randrange
    letters, stop = basis._signed_letters, max_length + 1
    return lambda: draw(random, randrange(stop), letters)
