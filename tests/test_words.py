import copy
import dataclasses
import hashlib
import pickle
import threading
import time
from functools import lru_cache, partial
from random import Random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from mcgcalc import _wordops, braids, endos, twists, words as words_module
from mcgcalc import _wordops_py as py
from mcgcalc import (
    Basis,
    BasisKind,
    BasisMismatchError,
    BraidWord,
    Family,
    Symbol,
    TwistKind,
    TwistSymbol,
    TwistWord,
    Word,
    WordSyntaxError,
    format_braid_word,
    format_twist_word,
    format_word,
    fundamental_relator,
    parse_braid_word,
    parse_twist_word,
    parse_word,
    random_word,
    verify_yz_roundtrip,
    word_with_z,
    z_loop,
)
from mcgcalc.words import _tokenize

XY2 = Basis.xy(2)
YZ2 = Basis.yz(2)


def naive_reduce(codes):
    """Oracle: repeated single-pass cancellation scan until a fixed point."""
    codes = list(codes)
    changed = True
    while changed:
        changed = False
        for k in range(len(codes) - 1):
            if codes[k] == -codes[k + 1]:
                del codes[k : k + 2]
                changed = True
                break
    return tuple(codes)


def signed_codes(basis):
    pool = [sym.code for sym in basis.symbols]
    return st.sampled_from([c for code in pool for c in (code, -code)])


def words(basis, max_size=30):
    return st.lists(signed_codes(basis), max_size=max_size).map(
        lambda codes: Word.from_letters(basis, codes)
    )


# --- reduce ------------------------------------------------------------------


def test_reduce_cancels_to_identity():
    x1 = XY2.generator("x1")
    w = Word.from_letters(XY2, [x1.data[0], -x1.data[0]])
    assert w == Word.identity(XY2)
    assert len(w) == 0


def test_reduce_single_interior_cancellation():
    codes = [
        Symbol(Family.Y, 1).code,
        -Symbol(Family.X, 1).code,
        Symbol(Family.X, 1).code,
        Symbol(Family.Y, 2).code,
    ]
    assert Word.from_letters(XY2, codes) == parse_word("y1 y2", XY2)


def test_reduce_cascading_cancellation_matches_naive_oracle():
    z1, y1, y2 = (Symbol(Family.Z, 1).code, Symbol(Family.Y, 1).code,
                  Symbol(Family.Y, 2).code)
    codes = [-z1, y1, -y1, z1, y2]
    assert naive_reduce(codes) == (y2,)
    assert Word.from_letters(YZ2, codes).data == (y2,)


def test_reduce_rejects_foreign_letters():
    with pytest.raises(BasisMismatchError):
        Word.from_letters(XY2, [Symbol(Family.Z, 1).code])
    with pytest.raises(BasisMismatchError):
        Word.from_letters(XY2, [Symbol(Family.X, 3).code])


@given(st.lists(signed_codes(XY2), max_size=40))
def test_reduce_matches_naive_oracle(codes):
    assert Word.from_letters(XY2, codes).data == naive_reduce(codes)


@given(st.lists(signed_codes(XY2), max_size=40))
def test_reduce_is_idempotent(codes):
    once = Word.from_letters(XY2, codes)
    assert Word.from_letters(XY2, once.data) == once


@given(words(XY2), st.data())
def test_reduce_confluence_under_inserted_cancelling_pairs(w, data):
    codes = list(w.data)
    pool = [sym.code for sym in XY2.symbols]
    for _ in range(data.draw(st.integers(0, 6))):
        pos = data.draw(st.integers(0, len(codes)))
        c = data.draw(st.sampled_from(pool)) * data.draw(st.sampled_from((1, -1)))
        codes[pos:pos] = [c, -c]
    assert Word.from_letters(XY2, codes) == w


# --- multiply / invert -------------------------------------------------------


def test_multiply_boundary_cancellation():
    assert parse_word("y1 x1^-1", XY2) * parse_word("x1 y2", XY2) == parse_word(
        "y1 y2", XY2
    )


def test_multiply_identity_law():
    w = parse_word("x1 y2 x2^-1", XY2)
    eps = Word.identity(XY2)
    assert w * eps == w
    assert eps * w == w


def test_relator_times_inverse_is_identity():
    r = fundamental_relator(3)
    assert r * r.inverse() == Word.identity(Basis.xy(3))


def test_multiply_rejects_basis_mismatch():
    with pytest.raises(BasisMismatchError):
        parse_word("y1", XY2) * parse_word("y1", YZ2)


def test_invert_identity_and_reverse_flip():
    assert Word.identity(XY2).inverse() == Word.identity(XY2)
    assert parse_word("x1 y2^-1", XY2).inverse() == parse_word("y2 x1^-1", XY2)


def test_invert_z1_expansion():
    # z_1 = x1^-1 y2 x2 y2^-1, so its inverse is y2 x2^-1 y2^-1 x1
    z1 = parse_word("x1^-1 y2 x2 y2^-1", XY2)
    assert z1.inverse() == parse_word("y2 x2^-1 y2^-1 x1", XY2)


@given(words(XY2), words(XY2), words(XY2))
def test_multiply_is_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(words(XY2), words(XY2))
def test_length_subadditivity(u, v):
    product = u * v
    assert len(product) <= len(u) + len(v)
    if not u.data or not v.data or u.data[-1] != -v.data[0]:
        assert len(product) == len(u) + len(v)


@given(words(XY2))
def test_invert_is_a_two_sided_inverse(w):
    eps = Word.identity(XY2)
    assert w * w.inverse() == eps
    assert w.inverse() * w == eps
    assert w.inverse().inverse() == w


# --- parse / format ----------------------------------------------------------


def test_parse_simple():
    w = parse_word("x1 y1^-1", XY2)
    assert w.data == (Symbol(Family.X, 1).code, -Symbol(Family.Y, 1).code)


def test_parse_five_letter_reduced_word_over_yz():
    w = parse_word("z1^-1 y1 z1 y1^-1 z1", YZ2)
    assert len(w) == 5


def test_parse_identity_token():
    assert parse_word("1", XY2) == parse_word(" 1\n", XY2) == Word.identity(XY2)
    with pytest.raises(WordSyntaxError):
        parse_word("1 x1", XY2)
    with pytest.raises(WordSyntaxError):
        parse_word("   ", XY2)


def test_format_identity_and_letters():
    assert format_word(Word.identity(XY2)) == "1"
    assert format_word(parse_word("x1 y1^-1", XY2)) == "x1 y1^-1"
    assert format_word(parse_word("z1^-1 y1^-1 z1", YZ2)) == "z1^-1 y1^-1 z1"
    # a 1-letter word is its letter's name alone, inverses included
    for text, basis in (
        ("x1", XY2), ("y2^-1", XY2), ("z1", YZ2), ("z2^-1", YZ2), ("y1^-1", YZ2),
        ("al10", Basis.abstract(10)), ("al3^-1", Basis.abstract(10)),
    ):
        assert format_word(parse_word(text, basis)) == text


# two-digit indices, the yz basis, and the two-letter ``al`` prefix
ROUNDTRIP_BASES = (XY2, Basis.xy(12), Basis.yz(3), Basis.abstract(10))


@given(st.sampled_from(ROUNDTRIP_BASES).flatmap(words))
def test_parse_format_roundtrip(w):
    assert parse_word(format_word(w), w.basis) == w


# Names of up to 7 bytes (all of xy(300), al1 to al150 and al1^-1 to al99^-1)
# and of 8 (al100^-1 to al150^-1), which the compiled kernel writes on
# different paths.
PRINT_BASES = (Basis.abstract(150), Basis.xy(300))


@pytest.mark.parametrize("backend", ["py", "c"])
@given(basis=st.sampled_from(PRINT_BASES), length=st.integers(0, 300), seed=st.integers(0, 2**32))
def test_every_print_path_writes_the_joined_names(compiled_kernel, backend, basis, length, seed):
    kernel = {"py": py, "c": compiled_kernel}[backend]
    w = random_word(basis, length, Random(seed))
    expected = " ".join(basis._names[c] for c in w.data) or "1"
    with mock.patch.object(_wordops, "format_image", kernel.format_image):
        assert format_word(w) == str(w) == expected
        assert repr(w) == f"Word({expected!r}, basis={basis})"
        assert endos.FreeEndomorphism.identity(basis).image_text(w) == expected


def test_parse_accepts_leading_zeros():
    expected = parse_word("x1 y2^-1", XY2)
    assert parse_word("x01 y002^-1", XY2) == word_with_z("x01 y002^-1", 2) == expected
    # more leading zeros than int() reads in one string
    assert parse_word("x" + "0" * 5000 + "1 y2^-1", XY2) == expected


EMPTY = '(use "1" for the identity)'
W2 = "twist w2 is out of range for genus 2 (w indices run 1..1)"


@pytest.mark.parametrize(
    "parse, text, arg, message, position",
    [
        (parse_word, "x1 q7", XY2, "bad token 'q7'", 3),
        (parse_word, "x1 x0", XY2, "index must be >= 1 in 'x0'", 3),
        (parse_word, "y1 x3", XY2, "symbol x3 is out of range for xy(2)", 3),
        (parse_word, "y1 x03^-1", XY2, "symbol x3 is out of range for xy(2)", 3),
        (parse_word, "x1 z1", XY2, "symbol z1 is out of range for xy(2)", 3),
        (parse_word, "1 x1", XY2, "bad token '1'", 0),
        (parse_word, "", XY2, f"empty word text {EMPTY}", 0),
        (parse_word, "   ", XY2, f"empty word text {EMPTY}", 0),
        (parse_twist_word, "c1", 2, "bad twist token 'c1'", 0),
        (parse_twist_word, "a1 a0", 2, "index must be >= 1 in 'a0'", 3),
        (parse_twist_word, "w2", 2, W2, 0),
        (parse_twist_word, "", 2, f"empty twist word {EMPTY}", 0),
        (parse_braid_word, "a1", 3, "bad braid token 'a1'", 0),
        (parse_braid_word, "b0", 3, "braid index 0 out of range for 3 strands", 0),
        (parse_braid_word, "b1 b3", 3, "braid index 3 out of range for 3 strands", 3),
        (parse_braid_word, "", 3, f"empty braid text {EMPTY}", 0),
        (word_with_z, "z3", 2, "z index 3 out of range for genus 2", 0),
        (word_with_z, "y1 z3^-1", 2, "z index 3 out of range for genus 2", 3),
        (word_with_z, "al1", 2, "bad token 'al1'", 0),
        # a name outside the grammar is a bad token, however it begins
        (parse_twist_word, "ab1", 2, "bad twist token 'ab1'", 0),
        (parse_braid_word, "bb1", 3, "bad braid token 'bb1'", 0),
        (word_with_z, "xy1", 2, "bad token 'xy1'", 0),
        (parse_word, "y1 alx1", XY2, "bad token 'alx1'", 3),
        # zero-padded and inverse tokens off the table get the canonical token's error
        (parse_twist_word, "a1 w02^-1", 2, "twist w2^-1 is out of range for genus 2 "
         "(w indices run 1..1)", 3),
        (parse_braid_word, "b003^-1", 3, "braid index 3 out of range for 3 strands", 0),
        (word_with_z, "y1 x03", 2, "symbol x3 is out of range for xy(2)", 3),
        (word_with_z, "z00", 2, "z index 0 out of range for genus 2", 0),
    ],
)
def test_parse_error_contract(parse, text, arg, message, position):
    with pytest.raises(WordSyntaxError) as excinfo:
        parse(text, arg)
    assert str(excinfo.value) == f"{message} (at position {position})"
    assert excinfo.value.position == position


# An index with more digits than int() converts is a syntax error at its token.
@pytest.mark.parametrize(
    "parse, text, arg",
    [
        (parse_word, "y1 x" + "1" * 5000, XY2),
        (parse_twist_word, "a1 a" + "1" * 5000, 2),
        (parse_braid_word, "b1 b" + "1" * 5000, 3),
        (word_with_z, "y1 z" + "1" * 5000 + "^-1", 2),
    ],
    ids=["word", "twist", "braid", "z-word"],
)
def test_parse_rejects_overlong_index(parse, text, arg):
    with pytest.raises(WordSyntaxError) as excinfo:
        parse(text, arg)
    assert str(excinfo.value) == "index of 5000 digits is too long (at position 3)"
    assert excinfo.value.position == 3


# The name is read before the index: a foreign name is a bad token at any length.
@pytest.mark.parametrize(
    "parse, text, arg, message",
    [
        (parse_twist_word, "c" + "1" * 5000, 2, "bad twist token"),
        (parse_braid_word, "a" + "1" * 5000, 3, "bad braid token"),
        (parse_word, "q" + "1" * 5000, XY2, "bad token"),
    ],
    ids=["twist", "braid", "word"],
)
def test_parse_reads_the_name_before_the_index(parse, text, arg, message):
    with pytest.raises(WordSyntaxError) as excinfo:
        parse(text, arg)
    assert str(excinfo.value) == f"{message} {text!r} (at position 0)"
    assert excinfo.value.position == 0


# The rank is checked before the grammar's table is built, so a bad rank is one
# ValueError whatever the text, and a refused rank leaves no table cached.
@pytest.mark.parametrize(
    "parse, table, rank, message",
    [
        (parse_twist_word, twists._twist_token_table, 0, "genus must be >= 1, got 0"),
        (parse_twist_word, twists._twist_token_table, -2, "genus must be >= 1, got -2"),
        (parse_braid_word, braids._braid_letter_table, 0, "strand count must be >= 1, got 0"),
        (parse_braid_word, braids._braid_letter_table, -3, "strand count must be >= 1, got -3"),
    ],
    ids=["twist-genus-0", "twist-genus-negative", "braid-strands-0", "braid-strands-negative"],
)
def test_a_bad_rank_gives_one_error_whatever_the_text(parse, table, rank, message):
    cached = table.cache_info().currsize
    for text in ("1", "a1", "b1", "w1^-1", "b1 b2^-1", "c1", "x1", "", "b0"):
        with pytest.raises(ValueError) as excinfo:
            parse(text, rank)
        assert type(excinfo.value) is ValueError and str(excinfo.value) == message, text
    assert table.cache_info().currsize == cached


# Unicode whitespace that str.split() and the offset path's \S+ both split on
SPACES = [" ", "\t", "\n", "\xa0", "\x1c", "\x85", "\u3000"]

# (parser, its argument, the module whose _tokenize it calls, the canonical
# tokens, other tokens): other spellings, "1", foreign and out-of-range tokens
TABLE_GRAMMARS = {
    "word": (
        parse_word,
        XY2,
        words_module,
        ["x1", "x1^-1", "y1", "y1^-1", "x2", "x2^-1", "y2", "y2^-1"],
        ["x01", "y002^-1", "x007", "1", "x0", "x3", "z1^-1", "q7", "al1", "b1",
         "x1^-2", "x", "^-1"],
    ),
    "braid": (
        parse_braid_word,
        4,
        braids,
        ["b1", "b1^-1", "b2", "b2^-1", "b3", "b3^-1"],
        ["b01", "b003^-1", "1", "b0", "b4", "b9^-1", "a1", "bb1", "x1", "b1^1", "b"],
    ),
    "z-word": (
        word_with_z,
        2,
        twists,
        ["x1", "x1^-1", "y1", "y1^-1", "x2", "x2^-1", "y2", "y2^-1",
         "z1", "z1^-1", "z2", "z2^-1"],
        ["z01", "z3", "z0", "z1^-2", "al1", "x02^-1", "y3", "1", "zz1", "z"],
    ),
    "twist": (
        parse_twist_word,
        3,
        twists,
        ["a1", "a1^-1", "a2", "a2^-1", "a3", "a3^-1", "b1", "b1^-1", "b2", "b2^-1",
         "b3", "b3^-1", "w1", "w1^-1", "w2", "w2^-1"],
        ["a01", "w002^-1", "1", "a0", "a4", "w3", "x1", "ww1", "a1^-2", "w"],
    ),
}


@st.composite
def token_texts(draw, canonical, other):
    """Canonical tokens, alone or mixed with ``other`` ones, between runs of
    SPACES; the ends may be bare."""
    tokens = st.sampled_from(canonical)
    if draw(st.booleans()):
        tokens |= st.sampled_from(other)
    picked = draw(st.lists(tokens, max_size=8))
    gaps = st.text(st.sampled_from(SPACES), max_size=3)
    text = draw(gaps)
    for k, token in enumerate(picked):
        text += token + (draw(gaps) or " " if k < len(picked) - 1 else "")
    return text + draw(gaps)


def parse_outcome(parse, text, arg):
    try:
        return parse(text, arg)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


class MissingTable(dict):
    """A token table whose ``[]`` always misses: ``_tokenize``'s one
    ``read_tokens`` call fails on every text, so the offset path reads it,
    with ``get``."""

    def __getitem__(self, key):
        raise KeyError(key)


def offset_path(text, what, table, *rest):
    return _tokenize(text, what, MissingTable(table), *rest)


@pytest.mark.parametrize("grammar", TABLE_GRAMMARS)
@given(data=st.data())
def test_tokenizer_table_matches_the_offset_path(grammar, data):
    parse, arg, module, canonical, other = TABLE_GRAMMARS[grammar]
    text = data.draw(token_texts(canonical, other))
    expected = parse_outcome(parse, text, arg)
    with mock.patch.object(module, "_tokenize", offset_path):
        assert parse_outcome(parse, text, arg) == expected


@pytest.mark.parametrize("grammar", TABLE_GRAMMARS)
def test_tokenizer_table_matches_the_offset_path_on_every_listed_token(grammar):
    parse, arg, module, canonical, other = TABLE_GRAMMARS[grammar]
    texts = canonical + other + [" ".join(canonical), " ".join(canonical + other)]
    expected = [parse_outcome(parse, text, arg) for text in texts]
    with mock.patch.object(module, "_tokenize", offset_path):
        assert [parse_outcome(parse, text, arg) for text in texts] == expected


def test_tokenizer_reads_one_token_as_one_value():
    # one token gives one value, here a tuple itself
    table = {"t1": (1, 2), "t2": (3,), "t2^-1": (-3,)}

    def reject(token, name, index, sign):
        return f"no {name} {index} {sign} in {token!r}"

    def tokenize(text):
        return list(_tokenize(text, "t", table, ("t",), reject))

    assert tokenize("t1") == [(1, 2)]
    assert tokenize("\tt2 ") == [(3,)]
    assert tokenize("t1 t2") == [(1, 2), (3,)]
    # other spellings are looked up in the same table by their canonical one
    assert tokenize("  t01") == [(1, 2)]
    assert tokenize("t002^-1 t1") == [(-3,), (1, 2)]
    with pytest.raises(WordSyntaxError) as excinfo:
        tokenize("t1 t03^-1")
    assert str(excinfo.value) == "no t 3 -1 in 't03^-1' (at position 3)"


# 20,000 tokens over xy(2), whose table has the spellings ``x01`` and ``x3``
# never: the kernel's read fails on them and the offset path reads the text.
LONG_TEXT = " ".join(["x1 y2^-1", "y1\tx2"] * 5000)
LONG_CODES = (1, -6, 2, 5) * 5000


@pytest.mark.parametrize("backend", ["py", "c"])
def test_the_offset_path_stays_exact_on_long_text(compiled_kernel, backend):
    kernel = {"py": py, "c": compiled_kernel}[backend]
    with mock.patch.object(_wordops, "read_tokens", kernel.read_tokens):
        assert parse_word(LONG_TEXT, XY2).data == LONG_CODES
        # a bad token at the end, with its offset
        with pytest.raises(WordSyntaxError) as excinfo:
            parse_word(LONG_TEXT + " x3", XY2)
        end = len(LONG_TEXT) + 1
        assert excinfo.value.position == end
        assert str(excinfo.value) == f"symbol x3 is out of range for xy(2) (at position {end})"
        with pytest.raises(WordSyntaxError) as excinfo:
            parse_word(LONG_TEXT + "\xa0x1^-2", XY2)
        assert excinfo.value.position == end
        assert str(excinfo.value) == f"bad token 'x1^-2' (at position {end})"
        # another spelling inside a long text reads as its canonical token
        text = LONG_TEXT + " x01 " + LONG_TEXT
        assert parse_word(text, XY2).data == LONG_CODES + (1,) + LONG_CODES
        assert parse_word(LONG_TEXT + "\u3000x01", XY2).data == LONG_CODES + (1,)
        # the identity, and text without a token
        assert parse_word("1", XY2) == parse_word(" \t1\n", XY2) == Word.identity(XY2)
        for empty in ("", " \t\n\x1c", "\xa0\u3000"):
            with pytest.raises(WordSyntaxError) as excinfo:
                parse_word(empty, XY2)
            message = 'empty word text (use "1" for the identity) (at position 0)'
            assert str(excinfo.value) == message
        with pytest.raises(WordSyntaxError) as excinfo:
            parse_word("1 1", XY2)
        assert str(excinfo.value) == "bad token '1' (at position 0)"


def admitted(token, indices):
    """The tokens ``token(index, sign)`` writes over ``indices`` and both signs,
    leaving out those whose value its value type refuses with ValueError."""
    tokens = set()
    for index in indices:
        for sign in (1, -1):
            try:
                tokens.add(token(index, sign))
            except ValueError:
                pass
    return tokens


# Each grammar's table is its one rule for the tokens it admits: every key is
# the text its formatter writes for the key's value, and every token whose
# value the value type itself admits is a key, so no lookup of a canonical
# spelling misses a token of the grammar.
@pytest.mark.parametrize("rank", [1, 2, 3, 5])
def test_every_table_is_its_grammars_canonical_tokens(rank):
    for basis in (Basis.xy(rank), Basis.yz(rank), Basis.abstract(rank)):
        letters = basis._codes
        for key, code in letters.items():
            assert format_word(Word(basis, (code,))) == key
        names = [sym.name for sym in basis.symbols]
        assert set(letters) == {name + suffix for name in names for suffix in ("", "^-1")}

    twist_table = twists._twist_token_table(rank)
    for key, sym in twist_table.items():
        assert format_twist_word(TwistWord(rank, (sym,))) == key

    def twist(index, sign, kind):
        sym = TwistSymbol(kind, index, sign)
        sym.validate_for_genus(rank)
        return str(sym)

    assert set(twist_table) == set().union(
        *(admitted(partial(twist, kind=kind), range(rank + 2)) for kind in TwistKind)
    )

    braid_table = braids._braid_letter_table(rank)
    for key, k in braid_table.items():
        assert format_braid_word(BraidWord(rank, (k,))) == key
    assert set(braid_table) == admitted(
        lambda index, sign: format_braid_word(BraidWord(rank, (sign * index,))),
        range(rank + 1),
    )

    xy = Basis.xy(rank)
    z_table = twists._z_token_table(rank)
    for key, data in z_table.items():
        if key.startswith("z"):
            z = z_loop(int(key[1:].removesuffix("^-1")), rank)
            assert data == (z.inverse() if key.endswith("^-1") else z).data
        else:
            assert format_word(Word(xy, data)) == key

    def z(index, sign):
        z_loop(index, rank)
        return f"z{index}" if sign > 0 else f"z{index}^-1"

    assert set(z_table) == set(xy._codes) | admitted(z, range(rank + 2))


@pytest.mark.parametrize(
    "parse, arg, token, other, expected",
    [
        (parse_word, XY2, "x1", "x01", XY2.generator("x1")),
        (parse_braid_word, 3, "b1", "b01", BraidWord(3, (1,))),
        (parse_twist_word, 3, "a1", "a01", TwistWord(3, (TwistSymbol(TwistKind.A, 1, 1),))),
        (word_with_z, 2, "z1", "z01", z_loop(1, 2)),
    ],
    ids=["word", "braid", "twist", "z-word"],
)
def test_one_token_texts_parse_alike_in_every_grammar(parse, arg, token, other, expected):
    assert parse(token, arg) == parse(f" {token}\n", arg) == parse(other, arg) == expected
    assert parse(f"{token} {other}", arg) == expected * expected
    # a non-canonical token takes the offset path, with its offsets
    bad = other.replace("1", "0")
    for text, position in ((bad, 0), (f"  {bad}", 2), (f"{token} {bad}", len(token) + 1)):
        with pytest.raises(WordSyntaxError) as excinfo:
            parse(text, arg)
        assert excinfo.value.position == position


def test_format_parse_canonicalizes():
    # unreduced text parses to the reduced word, which formats canonically
    assert format_word(parse_word("x1 x1^-1 y1", XY2)) == "y1"


# --- datatypes ---------------------------------------------------------------


def test_symbol_codes_roundtrip():
    for sym in Basis.xy(5).symbols + Basis.yz(4).symbols + Basis.abstract(3).symbols:
        assert Symbol.from_code(sym.code) == sym


def symbol_semantics(symbols):
    """What ``==``, ``hash``, ordering, ``repr`` and pickling make of ``symbols``."""
    return (
        [[a == b for b in symbols] for a in symbols],
        [[a < b for b in symbols] for a in symbols],
        [hash(s) for s in symbols],
        [repr(s) for s in symbols],
        [pickle.dumps(s) for s in symbols],
    )


@pytest.mark.parametrize("source", ["fresh", "basis"])
def test_reading_a_symbol_code_leaves_its_value_unchanged(source):
    if source == "fresh":
        symbols = [Symbol(family, index) for family in Family for index in (1, 2, 10)]
    else:  # the cached instances every basis hands out
        symbols = list(Basis.xy(3).symbols + Basis.yz(3).symbols + Basis.abstract(3).symbols)
    twins = [Symbol(s.family, s.index) for s in symbols]  # never read
    before = symbol_semantics(twins)
    codes = [s.code for s in symbols]
    assert [s.code for s in symbols] == codes  # the cached value is read back
    assert codes == [(s.index - 1) * 4 + int(s.family) + 1 for s in twins]
    assert symbol_semantics(symbols) == before
    assert symbol_semantics(twins) == before
    for s, twin, code in zip(symbols, twins, codes):
        assert s == twin and hash(s) == hash(twin) and not s < twin and not twin < s
        back = pickle.loads(pickle.dumps(s))
        assert back == s and back.code == code
    assert sorted(symbols) == sorted(twins)


def test_symbol_and_letter_validation():
    with pytest.raises(ValueError):
        Symbol(Family.X, 0)


@pytest.mark.parametrize("index", [True, 1.5, 2.0, "2", None], ids=repr)
def test_a_symbol_refuses_an_index_that_is_not_an_int(index):
    with pytest.raises(ValueError) as excinfo:
        Symbol(Family.X, index)
    assert str(excinfo.value) == f"symbol index must be an int, got {index!r}"


def test_word_constructor_enforces_invariants():
    x1 = Symbol(Family.X, 1).code
    with pytest.raises(ValueError):
        Word(XY2, (x1, -x1))
    with pytest.raises(BasisMismatchError):
        Word(XY2, (Symbol(Family.Z, 1).code,))


@pytest.mark.parametrize("code", [True, 1.0, "x1"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("build", [Word, Word.from_letters], ids=["Word", "from_letters"])
def test_words_refuse_non_int_letters(build, code):
    with pytest.raises(TypeError, match=f"letter codes are ints, not {type(code).__name__}"):
        build(XY2, (code,))


def test_basis_admits():
    assert XY2.admits(Symbol(Family.X, 2))
    assert not XY2.admits(Symbol(Family.X, 3))
    assert not XY2.admits(Symbol(Family.Z, 1))
    assert YZ2.admits(Symbol(Family.Z, 2))
    assert Basis.abstract(3).admits(Symbol(Family.ALPHA, 3))


def accepts(build, *args):
    """Whether ``build(*args)`` admits its letter (True) or refuses it (False)."""
    try:
        build(*args)
    except (BasisMismatchError, WordSyntaxError):
        return False
    return True


@pytest.mark.parametrize("basis", [Basis.xy(3), Basis.yz(3), Basis.abstract(4)], ids=str)
def test_every_view_of_a_letter_agrees_on_admission(basis):
    letters = {c for sym in basis.symbols for c in (sym.code, -sym.code)}
    for code in range(-20, 21):
        admitted = code in letters
        assert accepts(Word, basis, (code,)) is admitted, code
        assert accepts(Word.from_letters, basis, [code]) is admitted, code
        if code == 0:
            continue
        sym = Symbol.from_code(abs(code))
        assert basis.admits(sym) is admitted, code
        assert accepts(basis.generator, sym.name) is admitted, code
        assert accepts(basis.generator, sym) is admitted, code
        name = sym.name if code > 0 else sym.name + "^-1"
        assert accepts(parse_word, name, basis) is admitted, code


def test_generator_takes_canonical_generator_names_only():
    assert XY2.generator("x2") == parse_word("x2", XY2)
    for name in ("x01", "x1^-1", "x0", "q1", ""):
        with pytest.raises(BasisMismatchError):
            XY2.generator(name)


def test_basis_symbol_order():
    assert [s.name for s in XY2.symbols] == ["x1", "y1", "x2", "y2"]
    assert [s.name for s in YZ2.symbols] == ["y1", "y2", "z1", "z2"]
    assert [s.name for s in Basis.abstract(2).symbols] == ["al1", "al2"]


# --- shared bases ----------------------------------------------------------------

FACTORIES = [(Basis.xy, BasisKind.XY), (Basis.yz, BasisKind.YZ), (Basis.abstract, BasisKind.ABSTRACT)]


@pytest.mark.parametrize("factory, kind", FACTORIES, ids=["xy", "yz", "abstract"])
def test_each_factory_returns_one_basis_per_rank(factory, kind):
    basis = factory(7)
    assert factory(7) is basis and factory(8) is not basis
    # its tables are computed once and handed out as the same objects
    assert basis.symbols is factory(7).symbols
    assert basis._codes is factory(7)._codes and basis._names is factory(7)._names
    # the constructor is the intern table: no twin of the shared basis exists
    assert Basis(kind, 7) is basis and words_module._BASES[kind][7] is basis
    assert basis != factory(8)
    assert str(basis) == f"{kind.value}(7)"
    assert repr(basis) == f"Basis(kind={kind!r}, genus_or_rank=7)"


def test_bases_compare_and_hash_by_identity():
    assert "__eq__" not in vars(Basis) and "__hash__" not in vars(Basis)
    assert Basis.__eq__ is object.__eq__ and Basis.__hash__ is object.__hash__
    for name in ("_BASIS_KINDS", "_interned", "_letter_table"):
        assert not hasattr(words_module, name), name
    assert not hasattr(endos, "_row_count")


def _json_loaded(basis):
    from mcgcalc import FreeEndomorphism

    return FreeEndomorphism.from_json_dict(FreeEndomorphism.identity(basis).to_json_dict()).basis


def _works_as(basis, shared):
    """Maps and words over ``basis`` act, compose and compare with those
    over ``shared``, and ``basis`` finds ``shared``'s cache entry."""
    from mcgcalc import FreeEndomorphism, product
    from mcgcalc.reports import CheckCase, case_from_endos

    identity = FreeEndomorphism.identity(shared)
    f = FreeEndomorphism(basis, identity.table)
    w = random_word(shared, 9, Random(3))
    assert f.apply(parse_word(str(w), basis)) == w
    assert product(basis, [f, identity]) == product(shared, [identity, f]) == identity
    assert case_from_endos("t", f, identity) == CheckCase("t")
    calls = []

    @lru_cache(maxsize=None)
    def rank_of(b):
        calls.append(b)
        return b.genus_or_rank

    assert rank_of(shared) == rank_of(basis) == basis.genus_or_rank
    assert calls == [shared] and {shared: "shared"}[basis] == "shared"


def _other_kind(kind):
    return BasisKind.YZ if kind is BasisKind.XY else BasisKind.XY


# Every way to reach a basis of kind and rank; each must land on the shared one.
ROUTES = {
    "constructor": lambda kind, n: Basis(kind, n),
    "keywords": lambda kind, n: Basis(kind=kind, genus_or_rank=n),
    "pickle": lambda kind, n: pickle.loads(pickle.dumps(Basis(kind, n))),
    "deepcopy": lambda kind, n: copy.deepcopy(Basis(kind, n)),
    "copy": lambda kind, n: copy.copy(Basis(kind, n)),
    "replace-rank": lambda kind, n: dataclasses.replace(Basis(kind, n + 1), genus_or_rank=n),
    "replace-kind": lambda kind, n: dataclasses.replace(Basis(_other_kind(kind), n), kind=kind),
    "from-json": lambda kind, n: _json_loaded(Basis(kind, n)),
}


@pytest.mark.parametrize("route", ROUTES.values(), ids=ROUTES.keys())
def test_every_route_to_a_basis_lands_on_the_shared_one(route):
    for factory, kind in FACTORIES:
        for n in (2, 5):
            assert route(kind, n) is factory(n), kind
            _works_as(route(kind, n), factory(n))


class _SlowLookups(dict):
    """A rank table whose lookups hand the interpreter to other threads, so
    every thread looks a new rank up before any of them stores it."""

    def get(self, key, default=None):
        found = dict.get(self, key, default)
        time.sleep(0.002)
        return found


def test_threads_building_one_rank_get_one_basis():
    ranks = range(1, 21)
    built = [[] for _ in range(8)]  # more threads than cores
    start = threading.Barrier(len(built))

    def build(out):
        for n in ranks:  # all threads build each rank at once
            start.wait(timeout=10)
            out.append(Basis(BasisKind.ABSTRACT, n))

    threads = [threading.Thread(target=build, args=(out,)) for out in built]
    with mock.patch.dict(words_module._BASES, {BasisKind.ABSTRACT: _SlowLookups()}):
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        for out in built:  # a lost update would hand some thread a second object
            assert len(out) == len(ranks) and all(b is a for a, b in zip(built[0], out))
        assert [Basis(BasisKind.ABSTRACT, n) for n in ranks] == built[0]


@pytest.mark.parametrize("rank", [0, -3, True, 2.0, "2"], ids=repr)
def test_a_refused_rank_stores_nothing(rank):
    for factory, _ in FACTORIES:  # the int ranks equal to the refused values are shared
        factory(1), factory(2)
    stored = {kind: dict(bases) for kind, bases in words_module._BASES.items()}
    for factory, kind in FACTORIES:
        for build in (factory, partial(Basis, kind)):
            with pytest.raises(ValueError):
                build(rank)
    assert words_module._BASES == stored  # bases compare by identity


@pytest.mark.parametrize("rank", [2.9, 2.0, True, "2"], ids=["float", "whole-float", "bool", "text"])
@pytest.mark.parametrize("build", [Basis.xy, Basis.yz, Basis.abstract, partial(Basis, BasisKind.XY)],
                         ids=["xy", "yz", "abstract", "constructor"])
def test_a_basis_refuses_a_rank_that_is_not_an_int(build, rank):
    for factory, _ in FACTORIES:  # the int ranks equal to the refused values are shared
        factory(1), factory(2)
    with pytest.raises(ValueError) as excinfo:
        build(rank)
    assert str(excinfo.value) == f"genus_or_rank must be an int, got {rank!r}"


def test_a_refused_bool_rank_leaves_the_int_rank_as_it_was():
    with pytest.raises(ValueError):
        Basis.xy(True)
    assert str(Basis.xy(1)) == "xy(1)"
    assert type(Basis.xy(1).genus_or_rank) is int
    with pytest.raises(ValueError):
        Basis.xy(True)


def test_a_constructor_built_basis_is_an_equal_cache_key():
    calls = []

    @lru_cache(maxsize=None)
    def rank_of(basis):
        calls.append(basis)
        return basis.genus_or_rank

    twin = Basis(BasisKind.YZ, 3)
    assert rank_of(Basis.yz(3)) == rank_of(twin) == 3
    assert calls == [Basis.yz(3)] and calls[0] is Basis.yz(3)
    assert {Basis.yz(3): "shared"}[twin] == "shared"


PICKLED_IN_ANOTHER_PROCESS = """
import pickle, sys
from mcgcalc import Basis, BasisKind, pillar_switching_action, product
f = pillar_switching_action(1, 3)
product(f.basis, [f, f])  # computes f's cached rows before it is pickled
assert Basis.xy(3)._codes and Basis.xy(3)._identity_table  # computed before pickling
objects = [Basis.xy(3), Basis(BasisKind.YZ, 4), Basis.abstract(5), f]
sys.stdout.buffer.write(pickle.dumps(objects))
"""

# The names of every table a basis caches; none of them may reach a pickle.
CACHED_TABLES = ("symbols", "_codes", "_names", "_identity_table", "_signed_letters")


@pytest.mark.parametrize("hashseed", ["0", "12345"])
def test_bases_and_maps_pickled_under_another_hash_seed_load_equal(hashseed):
    import os
    import subprocess
    import sys

    import mcgcalc
    from mcgcalc import FreeEndomorphism, pillar_switching_action

    src = os.path.dirname(os.path.dirname(mcgcalc.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", PICKLED_IN_ANOTHER_PROCESS], env=env, capture_output=True, check=True
    ).stdout
    # xy(3) had its tables computed before pickling; none of them was pickled
    for name in CACHED_TABLES:
        assert name.encode() not in out, name
    assert b"x1" not in out and Basis.xy(3).__reduce__() == (Basis, (BasisKind.XY, 3))
    xy, yz, abstract, f = pickle.loads(out)
    assert xy is Basis.xy(3) and yz is Basis.yz(4) and abstract is Basis.abstract(5)
    assert f == pillar_switching_action(1, 3) and hash(f) == hash(pillar_switching_action(1, 3))
    assert f.basis is Basis.xy(3)
    assert isinstance(f, FreeEndomorphism) and set(vars(f)) == {"basis", "table"}


# --- random words --------------------------------------------------------------


@pytest.mark.parametrize("basis", [XY2, YZ2, Basis.xy(12), Basis.abstract(3)], ids=str)
@given(length=st.integers(0, 80), seed=st.integers(0, 2**32))
def test_random_word_contract(basis, length, seed):
    w = random_word(basis, length, Random(seed))
    assert len(w) == length
    assert Word(basis, w.data) == w  # the constructor checks admission and reducedness
    assert random_word(basis, length, Random(seed)) == w


def test_random_word_length_zero_is_identity():
    assert random_word(XY2, 0, Random(0)) == Word.identity(XY2)


@pytest.mark.parametrize("length", [-1, -2])
def test_random_word_negative_length_is_identity_and_draws_nothing(compiled_kernel, length):
    for kernel in (py, compiled_kernel):
        rng = Random(0)
        state = rng.getstate()
        with mock.patch.object(_wordops, "draw_letters", kernel.draw_letters):
            assert random_word(XY2, length, rng) == Word.identity(XY2), kernel.BACKEND
        assert rng.getstate() == state, kernel.BACKEND


def test_random_word_reaches_every_letter_and_successor():
    """20,000 two-letter draws at genus 2: every letter starts a word about
    equally often, and every letter follows every letter but its inverse."""
    rng = Random(7)
    draws = [random_word(XY2, 2, rng).data for _ in range(20_000)]
    letters = [c for sym in XY2.symbols for c in (sym.code, -sym.code)]
    firsts = {c: 0 for c in letters}
    for first, _ in draws:
        firsts[first] += 1
    assert min(firsts.values()) > 0.9 * len(draws) / len(letters)
    assert set(draws) == {
        (a, b) for a in letters for b in letters if b != -a
    }


def reference_random_word(basis, length, rng):
    """The seeded stream as one Python loop per letter, kept as the reference:
    one ``rng.random()`` per letter, the first uniform over the 2r letters,
    every later one skipping the inverse of the one before."""
    if length <= 0:
        return ()
    letters = [c for sym in basis.symbols for c in (sym.code, -sym.code)]
    n = len(letters)
    draw = rng.random
    k = int(draw() * n)
    codes = [letters[k]]
    for _ in range(length - 1):
        j = int(draw() * (n - 1))
        k = j + (j >= k ^ 1)
        codes.append(letters[k])
    return tuple(codes)


STREAM_BASES = [XY2, YZ2, Basis.xy(12), Basis.yz(7), Basis.abstract(1), Basis.abstract(5)]


@given(
    basis=st.sampled_from(STREAM_BASES),
    length=st.integers(-2, 90),
    seed=st.integers(0, 2**64),
)
def test_random_word_follows_the_reference_stream(compiled_kernel, basis, length, seed):
    expected = Random(seed)
    codes = reference_random_word(basis, length, expected)
    for kernel in (py, compiled_kernel):
        rng = Random(seed)
        with mock.patch.object(_wordops, "draw_letters", kernel.draw_letters):
            w = random_word(basis, length, rng)
        assert w.basis == basis and w.data == codes, kernel.BACKEND
        assert rng.getstate() == expected.getstate(), kernel.BACKEND


# sha256 of repr(list of the letter-code tuples of every word drawn), in draw
# order, by verify_yz_roundtrip at genus 2..12 with the default 1000 samples.
YZ_ROUNDTRIP_DRAWS = {
    0: "fc36acd08991b020a26dfd75b0f7ed031f0f8ecbd2b077fbb3ca8a70c269f332",
    7: "c01f32c32d5dfde786bf3462828e19fd09ac24c18ff44d47eab80508f9990fb6",
}


@pytest.mark.parametrize("seed", YZ_ROUNDTRIP_DRAWS)
def test_verify_yz_roundtrip_draws_the_pinned_words(monkeypatch, seed):
    drawn = []
    draw_letters = _wordops.draw_letters

    def recording(random, length, letters):
        codes = draw_letters(random, length, letters)
        drawn.append(codes)
        return codes

    monkeypatch.setattr(_wordops, "draw_letters", recording)
    for genus in range(2, 13):
        assert verify_yz_roundtrip(genus, seed=seed).all_hold
    assert len(drawn) == 22_000
    digest = hashlib.sha256(repr(drawn).encode()).hexdigest()
    assert digest == YZ_ROUNDTRIP_DRAWS[seed]
