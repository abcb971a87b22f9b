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
    word_with_z,
    z_loop,
)
from mcgcalc import twists
from mcgcalc.twists import _all_twist_symbols, _z_codes

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


@pytest.mark.parametrize(
    "index, sign, message",
    [
        (True, 1, "twist index must be an int, got True"),
        (2.0, 1, "twist index must be an int, got 2.0"),
        ("2", 1, "twist index must be an int, got '2'"),
        (1, True, "twist sign must be an int, got True"),
        (1, -1.0, "twist sign must be an int, got -1.0"),
        (1.5, 1.0, "twist index must be an int, got 1.5"),
    ],
    ids=repr,
)
def test_a_twist_symbol_refuses_an_index_or_sign_that_is_not_an_int(index, sign, message):
    with pytest.raises(ValueError) as excinfo:
        TwistSymbol(TwistKind.A, index, sign)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("genus", [True, 2.5, 2.0, "2", None], ids=repr)
def test_a_twist_word_refuses_a_genus_that_is_not_an_int(genus):
    with pytest.raises(ValueError) as excinfo:
        TwistWord(genus)
    assert str(excinfo.value) == f"genus must be an int, got {genus!r}"
    with pytest.raises(ValueError):
        parse_twist_word("a1", genus)


@pytest.mark.parametrize(
    "symbols, name", [(["a1"], "str"), ([twist("a", 1), None], "NoneType"), ([(1, 1)], "tuple")]
)
def test_a_twist_word_refuses_a_symbol_that_is_not_a_twist_symbol(symbols, name):
    # as BraidWord refuses a letter that is not an int; before, "a1" raised
    # AttributeError from validate_for_genus
    with pytest.raises(TypeError) as excinfo:
        TwistWord(2, symbols)
    assert str(excinfo.value) == f"twist symbols are TwistSymbols, not {name}"


# The genus-keyed caches: True and 2.0 hash and compare like 1 and 2, so each
# cached map checks its arguments before its cache serves the int's entry.
@pytest.mark.parametrize(
    "fn, args, k, bad, label",
    [
        (z_loop, (1, 2), 0, True, "z index"),
        (z_loop, (1, 2), 0, 1.0, "z index"),
        (z_loop, (1, 2), 1, 2.0, "genus"),
        (dehn_twist_action, (twist("a", 1), 1), 1, True, "genus"),
        (dehn_twist_action, (twist("b", 2), 2), 1, 2.0, "genus"),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_cached_maps_refuse_a_genus_or_index_that_only_equals_an_int(fn, args, k, bad, label):
    fn(*args)  # the int entry is cached
    cached = fn.cache_info().currsize
    bad_args = list(args)
    bad_args[k] = bad
    with pytest.raises(ValueError) as excinfo:
        fn(*bad_args)
    assert str(excinfo.value) == f"{label} must be an int, got {bad!r}"
    assert fn.cache_info().currsize == cached


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


# --- z-word text and the maps built from their moved rows ------------------------


@st.composite
def z_texts(draw):
    """(text, genus): canonical x/y/z tokens of one genus, or the text ``1``."""
    genus = draw(st.integers(1, 12))
    names = st.sampled_from(["x", "y", "z"])
    tokens = st.builds(
        "{}{}{}".format, names, st.integers(1, genus), st.sampled_from(["", "^-1"])
    )
    return " ".join(draw(st.lists(tokens, max_size=12))) or "1", genus


@given(z_texts())
def test_z_codes_are_the_codes_of_the_expanded_word(case):
    text, genus = case
    expanded = []
    for token in text.split():
        if token.startswith("z"):
            z = z_loop(int(token[1:].removesuffix("^-1")), genus)
            token = str(z.inverse() if token.endswith("^-1") else z)
        expanded.append(token)
    codes = _z_codes(text, genus)
    assert type(codes) is tuple
    assert word_with_z(text, genus).data == codes
    assert codes == parse_word(" ".join(expanded), Basis.xy(genus)).data


def z_map_from_texts(images, genus):
    """The map of z-word ``images`` as it was built before maps were built from
    their moved rows: each image boxed as a word, then tabled by ``from_images``."""
    expanded = {name: word_with_z(text, genus) for name, text in images.items()}
    return FreeEndomorphism.from_images(Basis.xy(genus), expanded, fix_unlisted=True)


def scanned_moved(f):
    """``f``'s moved rows as a scan of its whole table finds them."""
    return type(f)._moved.func(f)


def test_every_twist_from_its_moved_rows_equals_its_from_images_map(monkeypatch):
    built = {
        (sym, g): dehn_twist_action(sym, g)
        for g in range(1, 13) for sym in _all_twist_symbols(g)
    }
    monkeypatch.setattr(twists, "_z_map", z_map_from_texts)
    for (sym, g), f in built.items():
        reference = dehn_twist_action.__wrapped__(sym, g)
        assert f == reference and f.table == reference.table, (sym, g)
        assert f._moved == scanned_moved(f) == scanned_moved(reference), (sym, g)
