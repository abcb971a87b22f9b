import pytest
from hypothesis import given, strategies as st

from mcgcalc import (
    Basis,
    FreeEndomorphism,
    TwistKind,
    TwistSymbol,
    TwistWord,
    WordSyntaxError,
    dehn_twist_action,
    evaluate_twist_word,
    format_twist_word,
    parse_twist_word,
    parse_word,
    verify_inverse_pair,
    z_loop,
)

XY2 = Basis.xy(2)


def twist(kind, index, sign=1):
    return TwistSymbol(TwistKind(kind), index, sign)


# --- generator actions ---------------------------------------------------------


def test_a1_action_at_genus_2():
    f = dehn_twist_action(twist("a", 1), 2)
    assert f.image_of("y1") == parse_word("y1 x1^-1", XY2)
    for fixed in ("x1", "x2", "y2"):
        assert f.image_of(fixed) == parse_word(fixed, XY2)


def test_b1_action_and_inverse():
    f = dehn_twist_action(twist("b", 1), 2)
    assert f.image_of("x1") == parse_word("x1 y1", XY2)
    f_inv = dehn_twist_action(twist("b", 1, -1), 2)
    assert f_inv.image_of("x1") == parse_word("x1 y1^-1", XY2)
    assert verify_inverse_pair(f, f_inv)


def test_w1_action_at_genus_2():
    f = dehn_twist_action(twist("w", 1), 2)
    z1 = z_loop(1, 2)
    assert f.image_of("y1") == parse_word("y1", XY2) * z1
    assert f.image_of("y2") == z1.inverse() * parse_word("y2", XY2)
    assert f.image_of("x1") == z1.inverse() * parse_word("y2 x2 y2^-1", XY2)
    assert f.image_of("x2") == parse_word("x2", XY2)


def test_all_twist_inverse_pairs_certified():
    for g in (1, 2, 3, 4):
        for kind, top in (("a", g), ("b", g), ("w", g - 1)):
            for i in range(1, top + 1):
                assert verify_inverse_pair(
                    dehn_twist_action(twist(kind, i), g),
                    dehn_twist_action(twist(kind, i, -1), g),
                ), (g, kind, i)


def test_twist_index_validation():
    with pytest.raises(ValueError):
        dehn_twist_action(twist("w", 2), 2)
    with pytest.raises(ValueError):
        dehn_twist_action(twist("a", 3), 2)
    with pytest.raises(ValueError):
        TwistSymbol(TwistKind.A, 0)


def test_z_loop_values():
    assert z_loop(1, 2) == parse_word("x1^-1 y2 x2 y2^-1", XY2)
    assert z_loop(2, 2) == parse_word("x2^-1", XY2)
    with pytest.raises(ValueError):
        z_loop(3, 2)


# --- twist words ------------------------------------------------------------------


def test_evaluate_empty_is_identity():
    assert evaluate_twist_word(TwistWord(2, ())) == FreeEndomorphism.identity(XY2)


def test_evaluate_rightmost_first():
    # a1 acts first: y1 -> y1 x1^-1, then b1 sends x1^-1 -> y1^-1 x1^-1
    f = evaluate_twist_word(parse_twist_word("b1 a1", 2))
    assert f.apply(parse_word("y1", XY2)) == parse_word("x1^-1", XY2)


def test_evaluate_matches_explicit_composition():
    tw = parse_twist_word("a2^-1 w1 a1 b1", 2)
    explicit = FreeEndomorphism.identity(XY2)
    for sym in reversed(tw.symbols):
        explicit = dehn_twist_action(sym, 2).compose(explicit)
    assert evaluate_twist_word(tw) == explicit


def test_parse_twist_word():
    tw = parse_twist_word("a2^-1 w1 a1 b1 w1 a1 b1", 2)
    assert len(tw) == 7
    assert tw.symbols[0] == twist("a", 2, -1)
    assert format_twist_word(tw) == "a2^-1 w1 a1 b1 w1 a1 b1"


@st.composite
def twist_words(draw):
    genus = draw(st.integers(2, 12))
    kinds, signs = st.sampled_from(list(TwistKind)), st.sampled_from((1, -1))
    symbols = st.builds(TwistSymbol, kinds, st.integers(1, genus), signs).filter(
        lambda sym: sym.kind is not TwistKind.W or sym.index < genus
    )
    return TwistWord(genus, tuple(draw(st.lists(symbols, max_size=20))))


@given(twist_words())
def test_parse_format_twist_word_roundtrip(tw):
    assert parse_twist_word(format_twist_word(tw), tw.genus) == tw


def test_parse_twist_word_errors():
    with pytest.raises(WordSyntaxError):
        parse_twist_word("w2", 2)
    with pytest.raises(WordSyntaxError):
        parse_twist_word("a1 c3", 3)
    with pytest.raises(WordSyntaxError):
        parse_twist_word("", 2)
    assert parse_twist_word("1", 2) == TwistWord(2, ())


def test_twist_word_inverse_evaluates_to_inverse_map():
    tw = parse_twist_word("w1 a1 b1", 2)
    assert verify_inverse_pair(
        evaluate_twist_word(tw), evaluate_twist_word(tw.inverse())
    )


def test_twist_word_product():
    left = parse_twist_word("a1 b1", 2)
    right = parse_twist_word("w1", 2)
    assert format_twist_word(left * right) == "a1 b1 w1"
    with pytest.raises(ValueError):
        left * parse_twist_word("w1", 3)
