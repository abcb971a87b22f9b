import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from mcgcalc import (
    Basis,
    BasisMismatchError,
    NotZStableError,
    Word,
    conjugate_to_yz,
    from_yz,
    parse_word,
    pillar_switching_action,
    pillar_switching_yz,
    random_word,
    restrict_to_z,
    to_yz,
    verify_yz_roundtrip,
    word_with_z,
)
from mcgcalc import pillars
from mcgcalc.pillars import _xy_to_yz_table, _yz_to_xy_table


def test_to_yz_of_last_x_generator():
    for g in (2, 3, 5):
        assert to_yz(parse_word(f"x{g}", Basis.xy(g))) == parse_word(
            f"z{g}^-1", Basis.yz(g)
        )


def test_to_yz_of_x1_at_genus_2():
    # substitute x2 = z2^-1 into x1 = y2 x2 y2^-1 z1^-1
    expected = parse_word("y2 z2^-1 y2^-1 z1^-1", Basis.yz(2))
    got = to_yz(parse_word("x1", Basis.xy(2)))
    assert got == expected
    assert from_yz(got) == parse_word("x1", Basis.xy(2))


def test_roundtrip_specific_word():
    w = parse_word("x1 y2^-1 x2", Basis.xy(2))
    assert from_yz(to_yz(w)) == w


def test_from_yz_expands_z_letters():
    assert from_yz(parse_word("z1", Basis.yz(3))) == parse_word(
        "x1^-1 y2 x2 y2^-1", Basis.xy(3)
    )
    assert from_yz(parse_word("z3", Basis.yz(3))) == parse_word("x3^-1", Basis.xy(3))


def test_direction_checks():
    with pytest.raises(BasisMismatchError):
        to_yz(parse_word("y1", Basis.yz(2)))
    with pytest.raises(BasisMismatchError):
        from_yz(parse_word("y1", Basis.xy(2)))


@given(st.integers(2, 4), st.data())
def test_roundtrip_random_words(genus, data):
    xy, yz = Basis.xy(genus), Basis.yz(genus)
    xy_pool = [c for s in xy.symbols for c in (s.code, -s.code)]
    yz_pool = [c for s in yz.symbols for c in (s.code, -s.code)]
    w = Word.from_letters(xy, data.draw(st.lists(st.sampled_from(xy_pool), max_size=30)))
    v = Word.from_letters(yz, data.draw(st.lists(st.sampled_from(yz_pool), max_size=30)))
    assert from_yz(to_yz(w)) == w
    assert to_yz(from_yz(v)) == v


def test_substitutions_are_homomorphisms():
    rng = random.Random(7)
    for _ in range(20):
        u = random_word(Basis.xy(3), rng.randrange(20), rng)
        v = random_word(Basis.xy(3), rng.randrange(20), rng)
        assert to_yz(u * v) == to_yz(u) * to_yz(v)


@pytest.mark.parametrize("build", [_xy_to_yz_table, _yz_to_xy_table])
def test_basis_change_tables_are_tuples(build):
    table = build(3)
    assert type(table) is tuple
    assert all(type(row) is tuple for row in table)


# sha256 of repr([(_xy_to_yz_table(g), _yz_to_xy_table(g)) for g in 2..12]): the
# two tables every conversion, conjugation and round-trip check reads.
BASIS_CHANGE_TABLES = "b451a97e7627b2a12e8e53b3b80085068c8b05851da6aa33d2dd56ec10f65455"


def test_basis_change_tables_are_pinned():
    tables = [(_xy_to_yz_table(g), _yz_to_xy_table(g)) for g in range(2, 13)]
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == BASIS_CHANGE_TABLES


def test_verify_yz_roundtrip_report():
    report = verify_yz_roundtrip(3, samples=50, seed=1)
    assert report.all_hold
    assert [c.name for c in report.cases] == [
        "cor-2.1-free-basis-certificate",
        "cor-2.1-roundtrip-random",
    ]


def test_roundtrip_mismatch_is_reported_as_words(monkeypatch):
    genus = 3
    xy, yz = Basis.xy(genus), Basis.yz(genus)
    table = list(_yz_to_xy_table(genus))
    y1 = yz.generator("y1").data[0]
    table[y1] = table[y1] * 2  # y1 -> y1 y1: no longer the inverse basis change
    broken = tuple(table)
    monkeypatch.setattr(
        pillars, "_yz_to_xy_table", lambda g: broken if g == genus else _yz_to_xy_table(g)
    )
    report = verify_yz_roundtrip(genus, samples=40, seed=3)
    # The generator certificate reads the same table: y1 -> y1 y1 both ways.
    cert = report.case("cor-2.1-free-basis-certificate")
    assert [(m.generator, m.lhs.basis) for m in cert.mismatches] == [
        ("y1", xy),
        ("y1", yz),
    ]
    for m in cert.mismatches:
        assert type(m.lhs) is Word and type(m.rhs) is Word
        assert m.lhs == parse_word("y1 y1", m.lhs.basis)
        assert m.rhs == m.rhs.basis.generator("y1")
    case = report.case("cor-2.1-roundtrip-random")
    assert not case.holds
    names = [m.generator for m in case.mismatches]
    assert any(name.startswith("xy sample ") for name in names)
    assert any(name.startswith("yz sample ") for name in names)
    for m in case.mismatches:
        side, _, index = m.generator.partition(" sample ")
        basis = {"xy": xy, "yz": yz}[side]
        assert 0 <= int(index) < 40
        for w in (m.lhs, m.rhs):
            assert type(w) is Word and w.basis == basis
            assert Word(basis, w.data) == w  # admitted and reduced
        assert m.lhs != m.rhs
    # Every other genus still holds.
    assert verify_yz_roundtrip(2, samples=40, seed=3).all_hold


def test_conjugation_reproduces_printed_yz_forms():
    for g in range(2, 6):
        for i in range(1, g):
            assert conjugate_to_yz(
                pillar_switching_action(i, g)
            ) == pillar_switching_yz(i, g), (g, i)


def test_sigma0_conjugate_is_not_z_stable():
    conjugated = conjugate_to_yz(pillar_switching_action(0, 3))
    with pytest.raises(NotZStableError) as excinfo:
        restrict_to_z(conjugated)
    assert excinfo.value.generator == "z1"
    assert excinfo.value.image == parse_word(
        "z1^-1 y1 y2 y3 z3^-1 y3^-1 z2^-1 y2^-1 z1^-1 y1^-1 z1", Basis.yz(3)
    )
    # its z1 image must still be consistent with the x/y action
    assert conjugated.image_of("z1") == to_yz(word_with_z("z1^-1 y1 x1 y1^-1 z1", 3))


def test_conjugate_requires_xy_basis():
    with pytest.raises(BasisMismatchError):
        conjugate_to_yz(pillar_switching_yz(1, 2))
