import pytest
from hypothesis import given, strategies as st

from mcgcalc import (
    Basis,
    BasisMismatchError,
    Family,
    Letter,
    Symbol,
    Word,
    WordSyntaxError,
    format_word,
    fundamental_relator,
    parse_braid_word,
    parse_twist_word,
    parse_word,
    word_with_z,
)

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
    assert [str(letter) for letter in w.letters] == ["x1", "y1^-1"]


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


# two-digit indices, the yz basis, and the two-letter ``al`` prefix
ROUNDTRIP_BASES = (XY2, Basis.xy(12), Basis.yz(3), Basis.abstract(10))


@given(st.sampled_from(ROUNDTRIP_BASES).flatmap(words))
def test_parse_format_roundtrip(w):
    assert parse_word(format_word(w), w.basis) == w


def test_parse_accepts_leading_zeros():
    expected = parse_word("x1 y2^-1", XY2)
    assert parse_word("x01 y002^-1", XY2) == word_with_z("x01 y002^-1", 2) == expected


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
    ],
)
def test_parse_error_contract(parse, text, arg, message, position):
    with pytest.raises(WordSyntaxError) as excinfo:
        parse(text, arg)
    assert str(excinfo.value) == f"{message} (at position {position})"
    assert excinfo.value.position == position


def test_format_parse_canonicalizes():
    # unreduced text parses to the reduced word, which formats canonically
    assert format_word(parse_word("x1 x1^-1 y1", XY2)) == "y1"


# --- datatypes ---------------------------------------------------------------


def test_symbol_codes_roundtrip():
    for sym in Basis.xy(5).symbols + Basis.yz(4).symbols + Basis.abstract(3).symbols:
        assert Symbol.from_code(sym.code) == sym


def test_symbol_and_letter_validation():
    with pytest.raises(ValueError):
        Symbol(Family.X, 0)
    with pytest.raises(ValueError):
        Letter(Symbol(Family.X, 1), 2)


def test_word_constructor_enforces_invariants():
    x1 = Symbol(Family.X, 1).code
    with pytest.raises(ValueError):
        Word(XY2, (x1, -x1))
    with pytest.raises(BasisMismatchError):
        Word(XY2, (Symbol(Family.Z, 1).code,))


def test_basis_admits():
    assert XY2.admits(Symbol(Family.X, 2))
    assert not XY2.admits(Symbol(Family.X, 3))
    assert not XY2.admits(Symbol(Family.Z, 1))
    assert YZ2.admits(Symbol(Family.Z, 2))
    assert Basis.abstract(3).admits(Symbol(Family.ALPHA, 3))


def test_basis_symbol_order():
    assert [s.name for s in XY2.symbols] == ["x1", "y1", "x2", "y2"]
    assert [s.name for s in YZ2.symbols] == ["y1", "y2", "z1", "z2"]
    assert [s.name for s in Basis.abstract(2).symbols] == ["al1", "al2"]
