import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from mcgcalc import _wordops
from mcgcalc.braids import _artin_generator
from mcgcalc.endos import product
from mcgcalc import (
    Basis,
    BasisMismatchError,
    BraidWord,
    FreeEndomorphism,
    NotZStableError,
    WordSyntaxError,
    artin_action,
    evaluate_twist_word,
    format_braid_word,
    insert_relations,
    is_trivial_braid,
    parse_braid_word,
    parse_twist_word,
    parse_word,
    pillar_switching_action,
    pillar_switching_yz,
    psi_action,
    random_braid_word,
    restrict_to_z,
    verify_artin_restriction,
    verify_inverse_pair,
    verify_psi_relations,
)

AB3 = Basis.abstract(3)


# --- Artin representation ---------------------------------------------------


def test_artin_generator_images_in_b3():
    f = artin_action(BraidWord(3, (1,)))
    assert f.image_of("al1") == parse_word("al2", AB3)
    assert f.image_of("al2") == parse_word("al2^-1 al1 al2", AB3)
    assert f.image_of("al3") == parse_word("al3", AB3)


def test_artin_of_cancelling_pair_is_identity():
    assert artin_action(parse_braid_word("b1 b1^-1", 3)) == FreeEndomorphism.identity(
        AB3
    )


def test_artin_respects_braid_relation():
    lhs = artin_action(parse_braid_word("b1 b2 b1", 3))
    rhs = artin_action(parse_braid_word("b2 b1 b2", 3))
    assert lhs == rhs


def test_artin_far_commutation():
    lhs = artin_action(parse_braid_word("b1 b3", 4))
    rhs = artin_action(parse_braid_word("b3 b1", 4))
    assert lhs == rhs


# --- word problem -------------------------------------------------------------


def test_trivial_braid_examples():
    assert is_trivial_braid(parse_braid_word("b1 b1^-1", 3))
    assert is_trivial_braid(parse_braid_word("b1 b2 b1 b2^-1 b1^-1 b2^-1", 3))
    assert not is_trivial_braid(parse_braid_word("b1", 3))


def test_generator_powers_are_nontrivial():
    for n in (3, 4):
        for i in range(1, n):
            for k in (1, 2, 3):
                assert not is_trivial_braid(BraidWord(n, (i,) * k))


def test_equivalent_words_have_equal_actions():
    rng = random.Random(11)
    for n in (3, 4, 5):
        for _ in range(10):
            u = random_braid_word(n, 10, rng)
            v = insert_relations(u, 12, rng)
            assert artin_action(u) == artin_action(v)
            assert is_trivial_braid(u * v.inverse())


# perfbench takes its wordops.*.c_over_py kernel comparison only from the
# substitute calls it traces, so products of braid generators must go through
# _wordops.substitute, one call per row a factor moves and does not only
# rename: a product that bypasses it leaves the braid-pairs results without
# those metrics. The Artin action is evaluated on the freely reduced word, so
# the count follows its length.
@given(strands=st.integers(2, 6), length=st.integers(1, 14), seed=st.integers(0, 2**32))
def test_word_problem_substitutes_one_row_per_later_letter(strands, length, seed):
    b = random_braid_word(strands, length, random.Random(seed))
    substitute = _wordops.substitute
    calls = []

    def counting(word, table, **kwargs):
        calls.append(word)
        return substitute(word, table, **kwargs)  # the letter budget is a keyword

    with mock.patch.object(_wordops, "substitute", counting):
        is_trivial_braid(b)
    # the first factor's table is taken as it is; each later one moves two
    # rows, and product reuses the accumulated row for the one it renames
    assert len(calls) == max(len(b.free_reduce()) - 1, 0)


@st.composite
def braids_with_cancelling_pairs(draw):
    """A braid word on 2..6 strands with pairs ``b_k b_k^-1`` inserted."""
    strands = draw(st.integers(2, 6))
    letter = st.sampled_from([k for k in range(1 - strands, strands) if k])
    letters = draw(st.lists(letter, max_size=12))
    for k in draw(st.lists(letter, max_size=6)):
        pos = draw(st.integers(0, len(letters)))
        letters[pos:pos] = [k, -k]
    return BraidWord(strands, tuple(letters))


@given(braids_with_cancelling_pairs())
def test_artin_action_of_the_reduced_word_is_the_unreduced_product(b):
    generators = [_artin_generator(abs(k), b.strands, 1 if k > 0 else -1) for k in b.letters]
    assert artin_action(b) == product(Basis.abstract(b.strands), generators)


@pytest.mark.parametrize("strands", range(2, 9))
def test_artin_generators_and_their_inverses_compose_to_the_identity(strands):
    # artin_action cancels b_k b_k^-1 before it evaluates, so this pair of
    # tables is no longer composed by evaluating such a word
    for i in range(1, strands):
        assert verify_inverse_pair(
            _artin_generator(i, strands, 1), _artin_generator(i, strands, -1)
        )


def test_free_reduce():
    b = BraidWord(3, (1, 2, -2, -1, 1))
    assert b.free_reduce().letters == (1,)


# --- psi ------------------------------------------------------------------------


def test_psi_of_single_generator_is_the_switching():
    assert psi_action(BraidWord(2, (1,))) == pillar_switching_action(1, 2)


def test_psi_of_empty_braid():
    assert psi_action(BraidWord(3, ())) == FreeEndomorphism.identity(Basis.xy(3))


def test_psi_matches_displayed_twist_words_at_genus_4():
    for i in (1, 2):
        text = f"a{i + 2}^-1 a{i + 1} b{i + 1} w{i + 1} w{i} a{i}^-1 b{i + 1} a{i + 1}"
        assert psi_action(BraidWord(4, (i,))) == evaluate_twist_word(
            parse_twist_word(text, 4)
        )
    # the last generator uses the end-of-surface factorization
    assert psi_action(BraidWord(4, (3,))) == evaluate_twist_word(
        parse_twist_word("w3 a4 b4 w3 a4 b4 a3^-1", 4)
    )


def test_psi_is_a_homomorphism():
    rng = random.Random(5)
    for _ in range(10):
        u = random_braid_word(3, 4, rng)
        v = random_braid_word(3, 4, rng)
        assert psi_action(u * v) == psi_action(u).compose(psi_action(v))


def test_psi_images_fix_the_relator():
    from mcgcalc import fixes_relator

    rng = random.Random(3)
    for _ in range(5):
        b = random_braid_word(3, 6, rng)
        assert fixes_relator(psi_action(b))


def test_psi_strand_genus_coupling():
    with pytest.raises(ValueError):
        psi_action(BraidWord(1, ()))


# --- relations among switchings ---------------------------------------------------


def test_psi_relations_at_genus_2():
    report = verify_psi_relations(2)
    assert [c.name for c in report.cases] == ["braid-relation-sigma0-sigma1"]
    assert report.all_hold


def test_psi_relations_include_sigma0_braid_relation():
    report = verify_psi_relations(3)
    assert report.case("braid-relation-sigma0-sigma1").holds
    assert report.all_hold


def test_psi_relations_commutations_at_genus_4():
    report = verify_psi_relations(4)
    names = [c.name for c in report.cases]
    assert "commutation-sigma0-sigma2" in names
    assert "commutation-sigma1-sigma3" in names
    assert report.all_hold


# --- restriction to the z subgroup --------------------------------------------------


def test_restrict_identity():
    assert restrict_to_z(
        FreeEndomorphism.identity(Basis.yz(3))
    ) == FreeEndomorphism.identity(Basis.abstract(3))


def test_restrict_switchings_gives_artin():
    for i in (1, 2, 3):
        assert restrict_to_z(pillar_switching_yz(i, 4)) == artin_action(
            BraidWord(4, (i,))
        )


def test_restrict_rejects_unstable_maps():
    f = FreeEndomorphism.from_images(
        Basis.yz(2), {"z1": "y1 z1"}, fix_unlisted=True
    )
    with pytest.raises(NotZStableError) as excinfo:
        restrict_to_z(f)
    assert excinfo.value.generator == "z1"


def test_restrict_requires_yz_basis():
    with pytest.raises(BasisMismatchError):
        restrict_to_z(FreeEndomorphism.identity(Basis.xy(2)))


def test_verify_artin_restriction():
    report = verify_artin_restriction(3)
    assert report.all_hold
    names = [c.name for c in report.cases]
    assert "cor-2.1-yz-action-sigma1" in names
    assert "thm-4.1-artin-restriction-beta2" in names


# --- braid word plumbing --------------------------------------------------------------


def test_parse_and_format():
    b = parse_braid_word("b1 b2^-1 b1", 3)
    assert b.letters == (1, -2, 1)
    assert str(b) == "b1 b2^-1 b1"
    assert str(BraidWord(3, ())) == "1"
    assert parse_braid_word("1", 3) == BraidWord(3, ())


@st.composite
def braid_words(draw):
    strands = draw(st.integers(2, 12))
    letter = st.sampled_from([k for k in range(1 - strands, strands) if k])
    return BraidWord(strands, tuple(draw(st.lists(letter, max_size=30))))


@given(braid_words())
def test_parse_format_braid_word_roundtrip(b):
    assert parse_braid_word(format_braid_word(b), b.strands) == b


def test_parse_rejects_out_of_range_indices():
    with pytest.raises(WordSyntaxError):
        parse_braid_word("b2", 2)
    with pytest.raises(WordSyntaxError):
        parse_braid_word("x1", 3)
    with pytest.raises(ValueError):
        BraidWord(2, (2,))


@pytest.mark.parametrize(
    "letters, error, message",
    [
        ((1, True), TypeError, "braid letters are ints, not bool"),
        ((2, 1.0), TypeError, "braid letters are ints, not float"),
        ((1, 0), ValueError, "braid letter 0 out of range for 3 strands (indices run 1..2)"),
        ((1, 3), ValueError, "braid letter 3 out of range for 3 strands (indices run 1..2)"),
        ((-3, True), ValueError, "braid letter -3 out of range for 3 strands"),
    ],
    ids=repr,
)
def test_braid_letters_raise_at_the_first_bad_letter(letters, error, message):
    with pytest.raises(error) as excinfo:
        BraidWord(3, letters)
    assert str(excinfo.value).startswith(message)


@pytest.mark.parametrize("letter", [1.0, True, False, "b1", None, 1j], ids=repr)
def test_braid_letters_are_plain_ints(letter):
    with pytest.raises(TypeError):
        BraidWord(3, (1, letter))
    parsed = parse_braid_word("b1 b2^-1 b1", 3)
    assert [type(k) for k in parsed.letters] == [int, int, int]
    assert parsed == BraidWord(3, (1, -2, 1))


def test_braid_inverse_and_product():
    b = parse_braid_word("b1 b2^-1", 3)
    assert b.inverse().letters == (2, -1)
    assert (b * b.inverse()).free_reduce() == BraidWord(3, ())
    with pytest.raises(ValueError):
        b * BraidWord(4, ())
