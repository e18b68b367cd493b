import random
from fractions import Fraction

import pytest

from helpers import betti_oracle, oracle_rank, random_zd_matrix
from oredim import dimensions
from oredim.chains import (FreeChainComplex, build_degree_p_attachment,
                           build_koszul, char_comparison, finite_group_betti,
                           homology_report, ore_homology, quotient_homology)
from oredim.errors import UnsupportedOperationError
from oredim.fields import PrimeField, Rationals
from oredim.groupring import GroupRingElement, GroupRingMatrix, induce_to_quotient
from oredim.groups import DihedralInfinite, Zd

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
Q = Rationals()
Z1 = Zd(1)


def el(field, group, terms):
    return GroupRingElement(field, group, terms)


def matrix(field, group, rows, cols, entries):
    return GroupRingMatrix(field, group, rows, cols, entries)


def raws(records):
    return tuple(r.raw for r in records)


def by_level(records):
    """Quotient homology rows as {level: (normalizer, dims by degree)}."""
    table = {}
    for r in records:
        normalizer, dims = table.setdefault(r.level, (r.normalizer, []))
        assert r.method == f"quotient-h{len(dims)}" and r.normalizer == normalizer
        dims.append(r.raw)
    return {level: (normalizer, tuple(dims)) for level, (normalizer, dims) in table.items()}


# -- construction ---------------------------------------------------------------

def test_rejects_nonzero_composite_with_degree():
    one = el(F2, Z1, {(0,): 1})
    c1 = matrix(F2, Z1, 1, 1, {(0, 0): one})
    c2 = matrix(F2, Z1, 1, 1, {(0, 0): one})
    with pytest.raises(ValueError, match="differentials 2 and 1"):
        FreeChainComplex(F2, Z1, [1, 1, 1], [c1, c2])


def test_rejects_bad_shapes():
    c1 = matrix(F2, Z1, 2, 1, {})
    with pytest.raises(ValueError, match="shape"):
        FreeChainComplex(F2, Z1, [1, 1], [c1])
    with pytest.raises(ValueError):
        FreeChainComplex(F2, Z1, [1, 1], [])


def test_rejects_field_mismatch():
    c1 = matrix(F3, Z1, 1, 1, {})
    with pytest.raises(ValueError, match="field or group"):
        FreeChainComplex(F2, Z1, [1, 1], [c1])


# -- attachment complex -----------------------------------------------------------

def test_attachment_shape_and_differentials():
    c = build_degree_p_attachment(2, 3, F3)
    assert c.ranks == (1, 1, 1, 1)
    assert c.differential(1).entry(0, 0).terms == {(1,): 1, (0,): 2}
    assert c.differential(3).is_zero()  # 3 == 0 in F_3
    c2 = build_degree_p_attachment(2, 3, F2)
    assert c2.differential(3).entry(0, 0).terms == {(0,): 1}  # 3 == 1 in F_2
    with pytest.raises(ValueError):
        build_degree_p_attachment(1, 2, F2)


def test_attachment_higher_dimension():
    c = build_degree_p_attachment(3, 2, F2)
    assert c.ranks == (1, 1, 0, 1, 1)
    rows = ore_homology(c)
    assert [(r.method, r.level, r.normalizer) for r in rows] == \
        [(f"ore-h{i}", 0, 1) for i in range(5)]
    assert raws(rows) == (0, 0, 0, 1, 1)


def test_attachment_ore_characteristic_split():
    rows2 = ore_homology(build_degree_p_attachment(2, 2, F2))
    assert raws(rows2) == (0, 0, 1, 1) and all(r.certified for r in rows2)
    rows5 = ore_homology(build_degree_p_attachment(2, 2, F5))
    assert raws(rows5) == (0, 0, 0, 0) and all(r.certified for r in rows5)


def check_attachment_quotient_dims(levels):
    rows = quotient_homology(build_degree_p_attachment(2, 2, F2), levels)
    assert by_level(rows) == {n: (n, (1, 1, n, n)) for n in levels}
    assert all(r.normalized == 1 for r in rows if r.method in ("quotient-h2", "quotient-h3"))
    rows5 = quotient_homology(build_degree_p_attachment(2, 2, F5), levels)
    assert sorted(by_level(rows5)) == list(levels)
    for _, dims in by_level(rows5).values():
        assert dims[2] == dims[3] == 0


def test_attachment_quotient_dims_constant_normalized():
    check_attachment_quotient_dims([2, 4, 8])


def test_attachment_quotient_dims_at_level_16():
    check_attachment_quotient_dims([16])


# -- koszul -----------------------------------------------------------------------

def test_koszul_shapes():
    assert build_koszul(1, F2).ranks == (1, 1)
    assert build_koszul(2, F2).ranks == (1, 2, 1)
    assert build_koszul(3, F2).ranks == (1, 3, 3, 1)
    with pytest.raises(ValueError):
        build_koszul(5, F2)


def test_koszul_two_dim_differentials():
    c = build_koszul(2, F3)
    z1 = {(1, 0): 1, (0, 0): 2}
    z2 = {(0, 1): 1, (0, 0): 2}
    assert c.differential(1).entry(0, 0).terms == z1
    assert c.differential(1).entry(1, 0).terms == z2
    assert c.differential(2).entry(0, 0).terms == z2
    assert c.differential(2).entry(0, 1).terms == {(1, 0): 2, (0, 0): 1}


@pytest.mark.parametrize("d", (1, 2, 3, 4))
@pytest.mark.parametrize("field", (F2, F3, Q))
def test_koszul_is_resolution(d, field):
    rows = ore_homology(build_koszul(d, field))
    assert len(rows) == d + 1 and all(r.raw == 0 for r in rows)


def test_koszul_quotient_is_torus_homology():
    for field in (F2, Q):
        rows = quotient_homology(build_koszul(2, field), [2, 3, 4, 6])
        assert by_level(rows) == {n: (n * n, (1, 2, 1)) for n in (2, 3, 4, 6)}


def test_rational_quotient_homology_takes_the_character_route(monkeypatch):
    # Z^2 and Z^3 over Q: no induced matrix is built, at any level
    monkeypatch.setattr(dimensions, "induce_to_quotient",
                        lambda *a: pytest.fail("induced matrix built"))
    rows = quotient_homology(build_koszul(3, Q), [1, 2, 3])
    assert by_level(rows) == {n: (n ** 3, (1, 3, 3, 1)) for n in (1, 2, 3)}
    rows = quotient_homology(build_degree_p_attachment(2, 2, Q), [5, 6])
    assert by_level(rows) == {n: (n, (1, 1, 0, 0)) for n in (5, 6)}


def test_koszul_quotient_against_oracle():
    c = build_koszul(2, F2)
    q = c.group.quotient(3)
    r1 = oracle_rank(induce_to_quotient(c.differential(1), q).to_dense(), F2)
    r2 = oracle_rank(induce_to_quotient(c.differential(2), q).to_dense(), F2)
    dims = (9 * 1 - r1, 9 * 2 - r1 - r2, 9 * 1 - r2)
    assert by_level(quotient_homology(c, [3])) == {3: (9, dims)}
    assert dims == (1, 2, 1)


# -- euler characteristic -----------------------------------------------------------

def test_euler_characteristic_identity():
    rng = random.Random(157)
    for _ in range(5):
        u = random_zd_matrix(rng, F2, 1, 1, 1)
        w = random_zd_matrix(rng, F2, 1, 1, 1)
        uw = u.entry(0, 0) if (0, 0) in u.entries else el(F2, Z1, {})
        wv = w.entry(0, 0) if (0, 0) in w.entries else el(F2, Z1, {})
        c1 = matrix(F2, Z1, 2, 1, {(0, 0): uw, (1, 0): wv})
        c2 = matrix(F2, Z1, 1, 2, {(0, 0): wv, (0, 1): -uw})
        complex_ = FreeChainComplex(F2, Z1, [1, 2, 1], [c1, c2])
        euler = sum((-1) ** i * r for i, r in enumerate(complex_.ranks))
        for index, dims in by_level(quotient_homology(complex_, [3, 5])).values():
            assert sum((-1) ** i * d for i, d in enumerate(dims)) == index * euler


def test_two_term_quotient_close_to_ore():
    # koszul-style complexes from commuting pairs: quotient values at level
    # 64 sit within 1/20 of the fraction-field values degreewise (property
    # check at a fixed seed; no convergence rate is available)
    rng = random.Random(0)
    for _ in range(6):
        u = random_zd_matrix(rng, F2, 1, 1, 1)
        w = random_zd_matrix(rng, F2, 1, 1, 1)
        a = u.entry(0, 0) if (0, 0) in u.entries else el(F2, Z1, {})
        b = w.entry(0, 0) if (0, 0) in w.entries else el(F2, Z1, {})
        c1 = matrix(F2, Z1, 2, 1, {(0, 0): a, (1, 0): b})
        c2 = matrix(F2, Z1, 1, 2, {(0, 0): b, (0, 1): -a})
        complex_ = FreeChainComplex(F2, Z1, [1, 2, 1], [c1, c2])
        ore = ore_homology(complex_)
        quotient = quotient_homology(complex_, [64])
        assert len(quotient) == len(ore) == 3
        for got, want in zip(quotient, ore):
            assert abs(got.normalized - want.normalized) <= Fraction(1, 20)


# -- finite group betti numbers -------------------------------------------------------

def test_finite_betti_examples():
    assert finite_group_betti(1, 4, F2, 5) == [1] * 6
    assert finite_group_betti(2, 4, F2, 2) == [1, 2, 3]
    assert finite_group_betti(1, 3, F2, 4) == [1, 0, 0, 0, 0]


def test_finite_betti_characteristic_zero():
    assert finite_group_betti(2, 4, Q, 3) == [1, 0, 0, 0]


def test_finite_betti_d3_kuenneth():
    # all single factors contribute 1 in every degree, so b_i = C(i+2, 2)
    assert finite_group_betti(3, 2, F2, 3) == [1, 3, 6, 10]


def test_finite_betti_mixed_characteristic():
    # 6 = 2*3: nontrivial in characteristic 2 and 3, trivial in 5
    assert finite_group_betti(1, 6, F2, 3) == [1, 1, 1, 1]
    assert finite_group_betti(1, 6, F3, 3) == [1, 1, 1, 1]
    assert finite_group_betti(1, 6, F5, 3) == [1, 0, 0, 0]


def test_finite_betti_plane_sublinear_against_kuenneth():
    # b_i((Z/n)^2; F_2) = 1, 2, 3 for every even n, so b_i / n^2 falls
    # strictly along n = 2, 4, 8
    values = {n: finite_group_betti(2, n, F2, 2) for n in (2, 4, 8)}
    for n, betti in values.items():
        assert betti == betti_oracle(2, n, F2, 2)
    for i in (1, 2):
        ratios = [Fraction(values[n][i], n * n) for n in (2, 4, 8)]
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[0] <= Fraction(3, 4) and ratios[2] <= Fraction(3, 64)


def test_finite_betti_validation():
    with pytest.raises(ValueError):
        finite_group_betti(4, 2, F2, 2)
    with pytest.raises(ValueError):
        finite_group_betti(1, 1, F2, 2)
    with pytest.raises(ValueError):
        finite_group_betti(1, 2, F2, 7)


# -- characteristic comparison ---------------------------------------------------------

def check_char_comparison_attachment(levels):
    over_q, over_p = char_comparison(build_degree_p_attachment(2, 2, Q), 2, levels)
    assert by_level(over_q) == {n: (n, (1, 1, 0, 0)) for n in levels}
    assert by_level(over_p) == {n: (n, (1, 1, n, n)) for n in levels}


def test_char_comparison_attachment():
    check_char_comparison_attachment([2, 4])


def test_char_comparison_attachment_at_level_8():
    check_char_comparison_attachment([8])


def test_char_comparison_koszul_equality():
    over_q, over_p = char_comparison(build_koszul(2, Q), 2, [2, 4, 8])
    want = {n: (n * n, (1, 2, 1)) for n in (2, 4, 8)}
    assert by_level(over_q) == by_level(over_p) == want


def test_char_comparison_requires_rational_integers():
    with pytest.raises(UnsupportedOperationError):
        char_comparison(build_degree_p_attachment(2, 2, F2), 2, [2])
    half = matrix(Q, Z1, 1, 1, {(0, 0): el(Q, Z1, {(0,): Fraction(1, 2)})})
    bad = FreeChainComplex(Q, Z1, [1, 1], [half])
    with pytest.raises(UnsupportedOperationError, match="non-integer"):
        char_comparison(bad, 3, [2])


def test_zero_complex_comparison():
    zero = FreeChainComplex(Q, Z1, [1, 1], [matrix(Q, Z1, 1, 1, {})])
    over_q, over_p = char_comparison(zero, 5, [2])
    assert by_level(over_q) == by_level(over_p) == {2: (2, (2, 2))}


# -- combined report --------------------------------------------------------------------

def test_homology_report_fills_ore_row():
    complex_ = build_degree_p_attachment(2, 2, F2)
    rows = homology_report(complex_, [2, 4])
    ore, quotient = rows[:4], rows[4:]
    assert [r.method for r in ore] == [f"ore-h{i}" for i in range(4)]
    assert raws(ore) == (0, 0, 1, 1)
    assert all(r.certified for r in ore)
    assert quotient == quotient_homology(complex_, [2, 4])
    dihedral_free = FreeChainComplex(F2, DihedralInfinite(), [1], [])
    assert [r.method for r in homology_report(dihedral_free, [2])] == ["quotient-h0"]


def test_quotient_homology_level_validation():
    c = build_koszul(1, F2)
    with pytest.raises(ValueError):
        quotient_homology(c, [])
    with pytest.raises(ValueError):
        quotient_homology(c, [0])
