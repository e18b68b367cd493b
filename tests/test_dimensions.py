import random
from fractions import Fraction

import pytest

from helpers import oracle_rank, random_zd_matrix, unit_diagonal
from oredim import dimensions, linalg
from oredim.dimensions import (approx_report, elek_truncation_dim, ore_dim,
                               quotient_betti_dim, quotient_ranker, virtual_ore_dim)
from oredim.errors import UnsupportedOperationError
from oredim.fields import PrimeField, Rationals
from oredim.groupring import (GroupRingElement, GroupRingMatrix,
                              PresentedModule, Sublattice,
                              TranslationSubgroup, compress_to_folner,
                              induce_to_quotient, restrict_scalars, to_laurent)
from oredim.groups import DihedralInfinite, Heisenberg, Zd
from oredim.linalg import rank_plain

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
Q = Rationals()
Z1 = Zd(1)
Z2 = Zd(2)
DINF = DihedralInfinite()
HEIS = Heisenberg()


def module(field, group, rows, cols, entries):
    return PresentedModule(GroupRingMatrix(field, group, rows, cols, entries))


def one_by_one(field, group, terms):
    el = GroupRingElement(field, group, terms)
    entries = {} if el.is_zero() else {(0, 0): el}
    return module(field, group, 1, 1, entries)


def free_rank_one(field, group):
    return module(field, group, 1, 1, {})


def plane_module(field):
    a = GroupRingElement(field, Z2, {(1, 0): 1, (0, 0): -1})
    b = GroupRingElement(field, Z2, {(0, 1): 1, (0, 0): -1})
    return module(field, Z2, 1, 2, {(0, 0): a, (0, 1): b})


# -- ore dimension -------------------------------------------------------------

def test_ore_of_free_module():
    # multiplication by the characteristic is the zero matrix
    assert ore_dim(one_by_one(F3, Z1, {(0,): 3})).normalized == 1
    assert ore_dim(free_rank_one(F3, Z1)).normalized == 1


def test_ore_of_identity_presentation():
    m = module(F2, Z1, 2, 2, {(i, i): GroupRingElement(F2, Z1, {(0,): 1})
                              for i in range(2)})
    assert ore_dim(m).normalized == 0


def test_ore_plane_module():
    # [z1-1, z2-1] has full rank 1, which one evaluation proves
    v = ore_dim(plane_module(F2))
    assert (v.method, v.level, v.normalizer, v.raw) == ("ore", 0, 1, 1)
    assert v.normalized == 1 and v.certified


def test_ore_rejects_other_groups():
    expected = "Ore dimension directly computable only for Zd; use approximation"
    for group in (DINF, HEIS):
        with pytest.raises(UnsupportedOperationError, match=expected):
            ore_dim(free_rank_one(F2, group))


# -- truncation and quotient tables ---------------------------------------------

def test_elek_table_interval_module():
    m = one_by_one(F2, Z1, {(1,): 1, (0,): 1})
    table = elek_truncation_dim(m, [4, 8])
    assert [r.normalized for r in table] == [0, 0]
    assert [(r.method, r.level) for r in table] == \
        [("elek-truncation", 4), ("elek-truncation", 8)]


def test_elek_table_free_module():
    table = elek_truncation_dim(free_rank_one(F5, Z1), [2, 4, 8])
    assert all(r.normalized == 1 for r in table)


def test_elek_plane_module_against_oracle():
    # the box truncation kills the constants, so the value is exactly 1
    m = plane_module(F3)
    for n in (2, 4):
        comp = compress_to_folner(m.matrix, Z2.folner_set(n))
        oracle = oracle_rank(comp.to_dense(), F3)
        [row] = elek_truncation_dim(m, [n])
        assert row.raw == 2 * n * n - oracle == n * n
        assert row.normalized == 1


def test_quotient_table_interval_module():
    m = one_by_one(F2, Z1, {(1,): 1, (0,): 1})
    table = quotient_betti_dim(m, [2, 4, 8, 16])
    assert [(r.raw, r.normalized) for r in table] == \
        [(1, Fraction(1, 2)), (1, Fraction(1, 4)),
         (1, Fraction(1, 8)), (1, Fraction(1, 16))]


def test_quotient_table_plane_module_oracle():
    m = plane_module(F2)
    for n in range(2, 9):
        [row] = quotient_betti_dim(m, [n])
        induced = induce_to_quotient(m.matrix, Z2.quotient(n))
        assert row.raw == 2 * n * n - oracle_rank(induced.to_dense(), F2)
        assert row.raw == n * n + 1
        assert row.normalized == 1 + Fraction(1, n * n)


def test_quotient_table_free_module():
    for group in (Z1, DINF, HEIS):
        table = quotient_betti_dim(free_rank_one(F5, group), [2, 3])
        assert all(r.normalized == 1 for r in table)


def test_free_module_over_f2_normalizes_to_one():
    assert ore_dim(free_rank_one(F2, Z1)).normalized == 1
    for group in (Z1, DINF, HEIS):
        free = free_rank_one(F2, group)
        for table in (quotient_betti_dim(free, [2, 3, 4]),
                      elek_truncation_dim(free, [2, 4])):
            assert all(r.normalized == 1 for r in table)
    assert virtual_ore_dim(free_rank_one(F2, DINF), TranslationSubgroup()).normalized == 1


def test_level_validation():
    m = free_rank_one(F2, Z1)
    with pytest.raises(ValueError):
        quotient_betti_dim(m, [])
    with pytest.raises(ValueError):
        quotient_betti_dim(m, [4, 2])
    with pytest.raises(ValueError):
        elek_truncation_dim(m, [0, 1])


# -- virtual Ore -----------------------------------------------------------------

def test_vdim_dihedral_reflection():
    m = one_by_one(F3, DINF, {(0, 1): 1, (0, 0): -1})
    v = virtual_ore_dim(m, TranslationSubgroup())
    assert v.normalized == Fraction(1, 2) and v.certified
    assert v.method == "virtual-ore" and v.level == 0
    assert v.normalizer == 2 and v.raw == 1


def test_dihedral_reflection_quotients_equal_vdim():
    m = one_by_one(F3, DINF, {(0, 1): 1, (0, 0): -1})
    rows = quotient_betti_dim(m, list(range(2, 9)))
    assert all(r.normalized == Fraction(1, 2) for r in rows)


def test_vdim_dihedral_translation():
    m = one_by_one(F2, DINF, {(1, 0): 1, (0, 0): 1})
    assert virtual_ore_dim(m, TranslationSubgroup()).normalized == 0


def test_vdim_identity_presentation():
    m = one_by_one(F5, DINF, {(0, 0): 1})
    assert virtual_ore_dim(m, TranslationSubgroup()).normalized == 0


def test_vdim_matches_ore_on_lattice():
    rng = random.Random(131)
    for _ in range(20):
        matrix = random_zd_matrix(rng, F2, 1, rng.randrange(1, 3),
                                  rng.randrange(1, 3))
        m = PresentedModule(matrix)
        assert virtual_ore_dim(m, Sublattice(2)).normalized == ore_dim(m).normalized


def check_restriction_identity(seed, samples):
    rng = random.Random(seed)
    for k in range(samples):
        n = 2 + k % 2
        matrix = random_zd_matrix(rng, F2, 1, rng.randrange(1, 3),
                                  rng.randrange(1, 3), min_exp=-2)
        restricted, index = restrict_scalars(matrix, Sublattice(n))
        assert index == n
        assert ore_dim(PresentedModule(restricted)).normalized == \
            n * ore_dim(PresentedModule(matrix)).normalized


def test_restriction_identity_scales_by_index():
    check_restriction_identity(137, 30)


def test_restriction_identity_at_seed_551():
    check_restriction_identity(551, 50)


# -- invariants -------------------------------------------------------------------

def check_additivity(seed, samples):
    # direct sums over F_2, F_3, F_5 in turn: Ore, vdim over the index-2
    # sublattice, and the quotient and Foelner tables all add up exactly
    rng = random.Random(seed)
    for k in range(samples):
        field = (F2, F3, F5)[k % 3]
        a = random_zd_matrix(rng, field, 1, rng.randrange(1, 3), rng.randrange(1, 3))
        b = random_zd_matrix(rng, field, 1, rng.randrange(1, 3), rng.randrange(1, 3))
        ma, mb = PresentedModule(a), PresentedModule(b)
        md = PresentedModule(a.block_diag(b))
        assert ore_dim(md).normalized == ore_dim(ma).normalized + ore_dim(mb).normalized
        assert virtual_ore_dim(md, Sublattice(2)).normalized == \
            virtual_ore_dim(ma, Sublattice(2)).normalized + \
            virtual_ore_dim(mb, Sublattice(2)).normalized
        for fn in (quotient_betti_dim, elek_truncation_dim):
            ta, tb, td = fn(ma, [2, 4]), fn(mb, [2, 4]), fn(md, [2, 4])
            for ra, rb, rd in zip(ta, tb, td):
                assert rd.raw == ra.raw + rb.raw
                assert rd.normalized == ra.normalized + rb.normalized


def test_additivity_exact_at_every_level():
    check_additivity(139, 10)


def test_additivity_exact_at_seed_1105():
    check_additivity(1105, 50)


def test_level_64_tables_within_tolerance_of_ore():
    # quotient and Foelner values at level 64 land within 1/20 of the exact
    # Ore dimension on random modules over F_2[Z].  No convergence rate is
    # available, so this is a property check at a fixed seed: a single
    # module can miss the tolerance at a fixed level (a full-rank 3x3 whose
    # truncated cokernel has dimension 5 at window 64 does).
    rng = random.Random(0)
    for _ in range(20):
        m = PresentedModule(random_zd_matrix(rng, F2, 1, rng.randrange(1, 4),
                                             rng.randrange(1, 4)))
        target = ore_dim(m)
        assert target.certified
        [q] = quotient_betti_dim(m, [64])
        [f] = elek_truncation_dim(m, [64])
        assert abs(q.normalized - target.normalized) <= Fraction(1, 20)
        assert abs(f.normalized - target.normalized) <= Fraction(1, 20)


def test_bounds_on_random_modules():
    rng = random.Random(149)
    for _ in range(20):
        r, s = rng.randrange(1, 4), rng.randrange(1, 4)
        m = PresentedModule(random_zd_matrix(rng, F2, 1, r, s))
        v = ore_dim(m).normalized
        assert max(0, s - r) <= v <= s
        for row in quotient_betti_dim(m, [3]):
            assert 0 <= row.normalized <= s
        for row in elek_truncation_dim(m, [3]):
            assert 0 <= row.normalized <= s


def test_unit_scaling_invariance():
    # row/column scaling by units c*g leaves ore, vdim and every quotient
    # row unchanged (induced scaling is a coset permutation)
    rng = random.Random(151)
    for _ in range(10):
        matrix = random_zd_matrix(rng, F5, 1, 2, 2)
        m = PresentedModule(matrix)
        base_ore = ore_dim(m).normalized
        base_vdim = virtual_ore_dim(m, Sublattice(2)).normalized
        base_rows = quotient_betti_dim(m, [2, 4, 8])
        g = (rng.randint(-3, 3),)
        c = rng.randrange(1, 5)
        for variant in (unit_diagonal(F5, Z1, 2, rng.randrange(2), g, c).matmul(matrix),
                        matrix.matmul(unit_diagonal(F5, Z1, 2, rng.randrange(2), g, c))):
            mv = PresentedModule(variant)
            assert ore_dim(mv).normalized == base_ore
            assert virtual_ore_dim(mv, Sublattice(2)).normalized == base_vdim
            assert quotient_betti_dim(mv, [2, 4, 8]) == base_rows


# -- combined report ----------------------------------------------------------------

def test_report_interval_module():
    # default levels: quotient 2, 4, 8, 16 and Foelner 4, 8, 16, 32
    m = one_by_one(F2, Z1, {(1,): 1, (0,): 1})
    records, agreement = approx_report(m, tol=Fraction(1, 10))
    target, quotient = records[0], records[1:5]
    assert (target.method, target.normalized) == ("ore", 0)
    assert [(r.method, r.level) for r in quotient] == \
        [("quotient-betti", n) for n in (2, 4, 8, 16)]
    assert [r.normalized for r in quotient] == \
        [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
    assert [(r.method, r.level) for r in records[5:]] == \
        [("elek-truncation", n) for n in (4, 8, 16, 32)]
    assert agreement == {"quotient-betti": True, "elek-truncation": True}


def test_report_free_module_all_ones():
    records, agreement = approx_report(free_rank_one(F3, Z1), levels=(2, 4))
    assert records[0].method == "ore" and records[0].normalized == 1
    assert [(r.method, r.level) for r in records[1:]] == [
        ("quotient-betti", 2), ("quotient-betti", 4),
        ("elek-truncation", 2), ("elek-truncation", 4)]
    assert all(r.normalized == 1 for r in records[1:])
    assert all(agreement.values())


def test_report_dihedral_target_is_vdim():
    # default levels: quotient 2, 4, 8, 16 and Foelner 4, 8, 16, 32
    m = one_by_one(F3, DINF, {(0, 1): 1, (0, 0): -1})
    records, agreement = approx_report(m)
    target = records[0]
    assert target.method == "virtual-ore"
    assert target.normalized == Fraction(1, 2)
    assert target.normalizer == 2
    quotient = [r for r in records if r.method == "quotient-betti"]
    assert [r.level for r in quotient] == [2, 4, 8, 16]
    assert all(r.normalized == Fraction(1, 2) for r in quotient)
    assert agreement["quotient-betti"] is True


def test_report_heisenberg_has_no_target():
    m = free_rank_one(F2, HEIS)
    records, agreement = approx_report(m, levels=(2, 3))
    assert [r.method for r in records] == ["quotient-betti"] * 2 + ["elek-truncation"] * 2
    assert agreement == {}
    assert all(r.normalized == 1 for r in records)


def test_report_config_validation():
    m = free_rank_one(F2, Z1)
    for tol in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            approx_report(m, levels=(2,), tol=tol)


def test_rational_coefficients_supported():
    m = one_by_one(Rationals(), Z1, {(1,): 1, (0,): -1})
    assert ore_dim(m).normalized == 0
    assert quotient_betti_dim(m, [3])[0].normalized == Fraction(1, 3)


def test_dihedral_tables_approach_vdim():
    # ties all three dihedral routes together: restriction to <z> plus
    # fraction-field rank (target) against quotient induction and Foelner
    # compression (tables) on random modules
    rng = random.Random(2024)
    fields = (F2, F3, Rationals())
    for k in range(12):
        field = fields[k % 3]
        r, s = rng.randrange(1, 3), rng.randrange(1, 3)
        entries = {}
        for i in range(r):
            for j in range(s):
                if rng.random() < 0.85:
                    entries[(i, j)] = random_dihedral_element(rng, field)
        mod = PresentedModule(GroupRingMatrix(field, DINF, r, s, entries))
        target = virtual_ore_dim(mod, TranslationSubgroup(), seed=k).normalized
        [q] = [r.normalized for r in quotient_betti_dim(mod, [48])]
        [f] = [r.normalized for r in elek_truncation_dim(mod, [48])]
        assert abs(q - target) <= Fraction(1, 10)
        assert abs(f - target) <= Fraction(1, 10)


def random_dihedral_element(rng, field):
    from helpers import random_ring_element
    return random_ring_element(rng, field, DINF, span=1)


def test_empty_presentations():
    no_generators = module(F2, Z1, 1, 0, {})
    assert ore_dim(no_generators).normalized == 0
    assert quotient_betti_dim(no_generators, [2])[0].raw == 0
    no_relations = module(F2, Z1, 0, 2, {})
    assert ore_dim(no_relations).normalized == 2
    assert elek_truncation_dim(no_relations, [3])[0].normalized == 2


# -- the character route --------------------------------------------------------


def random_presentation(rng, group, nrows, ncols, inner):
    """A product U V over Q[group] with inner dimension ``inner``, so of
    rank at most ``inner``; terms of U and V have coordinates in [-2, 2]."""
    def element():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            g = (rng.randint(-2, 2), rng.randint(0, 1)) if group == DINF else \
                tuple(rng.randint(-2, 2) for _ in range(group.d))
            terms[g] = Fraction(rng.choice((1, -1, 2, 3, -5)), rng.choice((1, 1, 2, 3)))
        return GroupRingElement(Q, group, terms)

    u = GroupRingMatrix(Q, group, nrows, inner, {(i, j): element() for i in range(nrows)
                                                 for j in range(inner) if rng.random() < 0.8})
    v = GroupRingMatrix(Q, group, inner, ncols, {(i, j): element() for i in range(inner)
                                                 for j in range(ncols) if rng.random() < 0.8})
    return u.matmul(v)


def test_character_route_matches_induced_matrix():
    # Z^1..Z^3 and D_inf over Q, rank-deficient products included, at
    # levels whose unit groups have several generators (12, 15, 24)
    rng = random.Random(1801)
    cases = [(Zd(1), (1, 2, 5, 12, 24)), (Z2, (1, 3, 4, 6)), (Zd(3), (2, 3)),
             (DINF, (1, 2, 7, 15))]
    for group, levels in cases:
        for _ in range(6):
            r, s = rng.randint(1, 3), rng.randint(1, 3)
            matrix = random_presentation(rng, group, r, s, rng.randint(1, min(r, s)))
            rank = quotient_ranker(matrix)
            for n in levels:
                quotient = group.quotient(n)
                assert rank(quotient) == rank_plain(induce_to_quotient(matrix, quotient))


def test_character_route_takes_no_induced_matrix(monkeypatch):
    monkeypatch.setattr(dimensions, "induce_to_quotient",
                        lambda *a: pytest.fail("induced matrix built"))
    rows = quotient_betti_dim(plane_module(Q), [1, 2, 5])
    assert [r.raw for r in rows] == [n * n + 1 for n in (1, 2, 5)]
    # the zero matrix: every character has rank 0
    assert [r.raw for r in quotient_betti_dim(module(Q, Z2, 2, 3, {}), [1, 4])] == [3, 48]


def test_heisenberg_and_fp_quotients_take_the_induced_matrix(monkeypatch):
    monkeypatch.setattr(dimensions, "rank_by_characters",
                        lambda *a: pytest.fail("character route taken"))
    heis = module(Q, HEIS, 1, 2, {(0, 0): GroupRingElement(Q, HEIS, {(1, 0, 0): 1, (0, 0, 0): -1}),
                                  (0, 1): GroupRingElement(Q, HEIS, {(0, 1, 0): 1, (0, 0, 0): -1})})
    assert [r.raw for r in quotient_betti_dim(heis, [2, 3])] == [8 + 1, 27 + 1]
    assert [r.raw for r in quotient_betti_dim(plane_module(F3), [2, 3])] == [5, 10]


def test_dihedral_module_is_restricted_once(monkeypatch):
    calls = []
    restrict = dimensions.restrict_scalars
    monkeypatch.setattr(dimensions, "restrict_scalars",
                        lambda *a: calls.append(a) or restrict(*a))
    m = one_by_one(Q, DINF, {(0, 1): 1, (0, 0): 1})
    rows = quotient_betti_dim(m, [2, 3, 4])
    assert len(calls) == 1
    # 1 + s has a kernel of half the quotient: s acts as an involution
    assert [r.raw for r in rows] == [2, 3, 4]


def test_character_route_falls_back_past_its_budget(monkeypatch):
    # a height that needs more primes than the budget admits: the induced
    # matrix answers
    monkeypatch.setattr(linalg, "GRID_WORK_LIMIT", linalg.GRID_STACK_CELLS)
    m = one_by_one(Q, Z1, {(1,): 2**40, (0,): -(2**40)})
    assert linalg.rank_by_characters(to_laurent(m.matrix), 4) is None
    assert [r.raw for r in quotient_betti_dim(m, [4, 6])] == [1, 1]


def test_character_route_counts_cyclotomic_zeros():
    # (z^2 + z + 1)(z^2 + 1) = Phi_3 Phi_4 vanishes exactly at the
    # characters of order 3 and 4, phi(3) + phi(4) of them when 12 | n
    m = one_by_one(Q, Z1, {(4,): 1, (3,): 1, (2,): 2, (1,): 1, (0,): 1})
    rows = quotient_betti_dim(m, [5, 8, 9, 12, 24, 36])
    assert [r.raw for r in rows] == [0, 2, 2, 4, 4, 4]
