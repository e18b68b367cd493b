import json
import random
from fractions import Fraction

import pytest

from helpers import (folner_boundary, oracle_compress, oracle_induce,
                     oracle_rank, plain_product, random_ring_element,
                     random_zd_matrix, support_radius, unit_diagonal)
from oredim.errors import MismatchError, UnsupportedOperationError
from oredim.fields import PrimeField, Rationals
from oredim.groupring import (GroupRingElement, GroupRingMatrix,
                              Sublattice, TranslationSubgroup,
                              compress_to_folner, induce_to_quotient,
                              restrict_scalars, to_laurent)
from oredim.groups import DihedralInfinite, Heisenberg, Zd
from oredim.jsonio import decode_matrix, encode_matrix
from oredim.linalg import rank_dense, rank_plain

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
Z1 = Zd(1)
Z2 = Zd(2)
DINF = DihedralInfinite()
HEIS = Heisenberg()


def el(field, group, terms):
    return GroupRingElement(field, group, terms)


def one_by_one(field, group, terms):
    e = el(field, group, terms)
    return GroupRingMatrix(field, group, 1, 1, {(0, 0): e} if not e.is_zero() else {})


def plane_pair(field):
    a = el(field, Z2, {(1, 0): 1, (0, 0): -1})
    b = el(field, Z2, {(0, 1): 1, (0, 0): -1})
    return GroupRingMatrix(field, Z2, 1, 2, {(0, 0): a, (0, 1): b})


# -- convolution -------------------------------------------------------------

def test_char2_square_of_one_plus_z():
    a = el(F2, Z1, {(0,): 1, (1,): 1})
    assert (a * a).terms == {(0,): 1, (2,): 1}


def test_identity_element_neutral():
    rng = random.Random(5)
    for group in (Z1, DINF, HEIS):
        e = el(F3, group, {group.identity(): 1})
        a = random_ring_element(rng, F3, group)
        assert e * a == a
        assert a * e == a


def test_dihedral_twist():
    s = el(F5, DINF, {(0, 1): 1})
    z = el(F5, DINF, {(1, 0): 1})
    assert (s * z).terms == {(-1, 1): 1}


@pytest.mark.parametrize("group", (Z1, Z2, DINF, HEIS))
def test_convolution_ring_axioms(group):
    rng = random.Random(37)
    for _ in range(100):
        a = random_ring_element(rng, F3, group)
        b = random_ring_element(rng, F3, group)
        c = random_ring_element(rng, F3, group)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_descriptor_mismatch():
    a = el(F2, Z1, {(0,): 1})
    b = el(F3, Z1, {(0,): 1})
    c = el(F2, Z2, {(0, 0): 1})
    with pytest.raises(MismatchError, match="field mismatch"):
        a * b
    with pytest.raises(MismatchError, match="group mismatch"):
        a + c


def test_zero_terms_dropped():
    a = el(F2, Z1, {(0,): 2, (1,): 1})
    assert a.terms == {(1,): 1}
    assert (a - a).is_zero()


# -- support radius (the word-metric oracle in helpers) ----------------------

def test_support_radius_examples():
    assert support_radius(one_by_one(F2, Z1, {(1,): 1, (0,): 1})) == 2
    assert support_radius(one_by_one(F5, Z1, {(0,): 3})) == 0
    assert support_radius(plane_pair(F2)) == 2
    assert support_radius(GroupRingMatrix(F2, Z1, 1, 1, {})) == 0


# -- induction to quotients --------------------------------------------------

def test_induce_circulant_rank():
    induced = induce_to_quotient(one_by_one(F2, Z1, {(1,): 1, (0,): 1}),
                                 Z1.quotient(3))
    assert (induced.nrows, induced.ncols) == (3, 3)
    assert rank_dense(induced) == 2
    assert oracle_rank(induced.to_dense(), F2) == 2
    # shift structure: row c maps to column (c+1) mod 3 plus itself
    assert induced.entries == {(0, 1): 1, (0, 0): 1, (1, 2): 1, (1, 1): 1,
                               (2, 0): 1, (2, 2): 1}


def test_induce_zero_matrix():
    zero = GroupRingMatrix(F3, Z1, 1, 1, {})
    induced = induce_to_quotient(zero, Z1.quotient(4))
    assert induced.nrows == induced.ncols == 4 and induced.nnz == 0


@pytest.mark.parametrize("field,terms", [(F3, {(0,): 1, (2,): 2}),
                                         (Rationals(), {(0,): 1, (2,): -1})],
                         ids=("F_3", "Q"))
def test_induce_terms_cancel_on_one_coset(field, terms):
    # 1 + 2z^2 over F_3 and 1 - z^2 over Q: at level 2 both terms land on
    # one coset and cancel; at level 3 gcd(1 - x^2, x^3 - 1) = x - 1.
    matrix = one_by_one(field, Z1, terms)
    induced = induce_to_quotient(matrix, Z1.quotient(2))
    assert induced.nnz == 0 and rank_plain(induced) == 0
    induced = induce_to_quotient(matrix, Z1.quotient(3))
    assert rank_plain(induced) == 2
    assert oracle_rank(induced.to_dense(), field) == 2


@pytest.mark.parametrize("level", (1, 2, 3, 4))
def test_induce_dihedral_reflection_rank(level):
    matrix = one_by_one(F3, DINF, {(0, 1): 1, (0, 0): -1})
    induced = induce_to_quotient(matrix, DINF.quotient(level))
    assert (induced.nrows, induced.ncols) == (2 * level, 2 * level)
    assert oracle_rank(induced.to_dense(), F3) == level
    assert rank_dense(induced) == level


def test_induce_functorial():
    rng = random.Random(41)
    q = Z1.quotient(4)
    for _ in range(20):
        a = random_zd_matrix(rng, F5, 1, 2, 2)
        b = random_zd_matrix(rng, F5, 1, 2, 2)
        left = induce_to_quotient(a.matmul(b), q)
        right = plain_product(induce_to_quotient(a, q), induce_to_quotient(b, q))
        assert left == right


def test_induce_functorial_heisenberg():
    rng = random.Random(43)
    q = HEIS.quotient(2)
    for _ in range(5):
        a = GroupRingMatrix(F2, HEIS, 2, 2, {
            (i, j): random_ring_element(rng, F2, HEIS, span=1)
            for i in range(2) for j in range(2)})
        b = GroupRingMatrix(F2, HEIS, 2, 2, {
            (i, j): random_ring_element(rng, F2, HEIS, span=1)
            for i in range(2) for j in range(2)})
        assert induce_to_quotient(a.matmul(b), q) == \
            plain_product(induce_to_quotient(a, q), induce_to_quotient(b, q))


def test_induce_group_mismatch():
    with pytest.raises(MismatchError):
        induce_to_quotient(one_by_one(F2, Z1, {(0,): 1}), Z2.quotient(2))


# -- compression to Foelner sets ---------------------------------------------

def test_compress_interval_full_rank():
    matrix = one_by_one(F2, Z1, {(1,): 1, (0,): 1})
    comp = compress_to_folner(matrix, Z1.folner_set(3))
    assert (comp.nrows, comp.ncols) == (3, 3)
    assert rank_dense(comp) == 3
    assert oracle_rank(comp.to_dense(), F2) == 3


def test_compress_zero():
    comp = compress_to_folner(GroupRingMatrix(F3, Z2, 2, 1, {}), Z2.folner_set(2))
    assert (comp.nrows, comp.ncols) == (8, 4) and comp.nnz == 0


def test_compress_plane_pair_box():
    # truncation kills the constants vector, so the 4x8 compression has
    # full row rank and the truncated cokernel has dimension |F| = 4
    comp = compress_to_folner(plane_pair(F3), Z2.folner_set(2))
    assert (comp.nrows, comp.ncols) == (4, 8)
    assert oracle_rank(comp.to_dense(), F3) == 4
    assert rank_dense(comp) == 4


def test_compress_agrees_with_induce_on_interior():
    # away from the boundary there is no wraparound, so compressed and
    # induced rows coincide when the Foelner set is the fundamental domain
    rng = random.Random(47)
    for group, level in ((Z1, 12), (Z2, 6), (DINF, 10)):
        quotient = group.quotient(level)
        folner = quotient.domain
        for _ in range(5):
            entries = {}
            for i in range(2):
                for j in range(2):
                    terms = dict(random_ring_element(rng, F3, group, span=1).terms)
                    terms[group.identity()] = 1  # keep e in the support
                    entries[(i, j)] = GroupRingElement(F3, group, terms)
            matrix = GroupRingMatrix(F3, group, 2, 2, entries)
            radius = support_radius(matrix)
            interior = set(folner) - set(folner_boundary(folner, radius))
            comp = compress_to_folner(matrix, folner)
            ind = induce_to_quotient(matrix, quotient)
            size = len(folner)
            for u, f in enumerate(folner.elements):
                if f not in interior:
                    continue
                for i in range(matrix.nrows):
                    row_c = {k: v for k, v in comp.entries.items()
                             if k[0] == i * size + u}
                    row_i = {k: v for k, v in ind.entries.items()
                             if k[0] == i * size + u}
                    assert row_c == row_i, (group, f)


# -- transports against the dict oracle ---------------------------------------

def assert_same_transport(got, want):
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
    assert got.entries == want.entries
    # the transport's lists are the ones the constructor sorts out of the dict
    assert got == want and all(got.vals)
    kind = int if isinstance(got.field, PrimeField) else Fraction
    assert all(type(v) is kind for v in got.entries.values())


HUGE = 2**63


@pytest.mark.parametrize("field", (F3, Rationals()), ids=("F_3", "Q"))
@pytest.mark.parametrize("group,terms", [
    (Z1, {(HUGE - 2,): 1}),
    (Z1, {(2 * HUGE,): 1, (1,): 2}),
    (Z1, {(-HUGE - 5,): 2, (HUGE + 1,): 1}),
    (Z2, {(HUGE, -1): 1, (1, -3 * HUGE): 2, (0, 1): 1}),
    (DINF, {(HUGE - 1, 1): 1, (-2 * HUGE, 0): 2}),
    (HEIS, {(0, 0, HUGE - 1): 1}),
    (HEIS, {(1, HUGE, 0): 1, (HUGE, 1, -HUGE): 2, (1, 1, 1): 1}),
], ids=repr)
@pytest.mark.parametrize("level", (3, 4))
def test_transport_reduces_huge_exponents_first(field, group, terms, level):
    # int64 would wrap or overflow on these; quotients reduce g mod the
    # moduli and Foelner boxes drop terms beyond Group.reach
    matrix = one_by_one(field, group, terms)
    quotient, folner = group.quotient(level), group.folner_set(level)
    assert_same_transport(induce_to_quotient(matrix, quotient),
                          oracle_induce(matrix, quotient))
    assert_same_transport(compress_to_folner(matrix, folner),
                          oracle_compress(matrix, folner))


def test_transport_folner_keeps_terms_just_inside_reach():
    # h = (-(n-1), -(n-1), n^2 - 1 + (n-1)^2) has the largest central
    # coordinate of any f^(-1) g in the (n, n, n^2) box: it maps
    # (n-1, n-1, 0) to (0, 0, n^2 - 1).  One more maps nothing into the box.
    n = 3
    folner = HEIS.folner_set(n)
    near = (-(n - 1), -(n - 1), n * n - 1 + (n - 1) ** 2)
    assert near[2] < HEIS.reach(folner.sizes)[2]
    matrix = one_by_one(F5, HEIS, {near: 1})
    comp = compress_to_folner(matrix, folner)
    assert comp.entries == {(folner.index((n - 1, n - 1, 0)),
                             folner.index((0, 0, n * n - 1))): 1}
    assert_same_transport(comp, oracle_compress(matrix, folner))
    beyond = one_by_one(F5, HEIS, {near[:2] + (near[2] + 1,): 1})
    assert compress_to_folner(beyond, folner).nnz == 0


def random_transport_matrix(rng, field, group, level):
    """An r x s matrix whose terms reach past the box, with a quotient
    twin g * (n, 0, ..) of some term carrying the opposite coefficient, so
    that their contributions cancel on every coset."""
    entries = {}
    nrows, ncols = rng.randint(1, 3), rng.randint(1, 3)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < 0.3:
                continue
            el = random_ring_element(rng, field, group, max_terms=4,
                                     span=rng.choice((1, level, 3 * level)))
            terms = dict(el.terms)
            if terms and rng.random() < 0.5:
                g, a = next(iter(terms.items()))
                twin = (g[0] + level,) + g[1:]
                terms[twin] = field.neg(a)
            entries[(i, j)] = GroupRingElement(field, group, terms)
    return GroupRingMatrix(field, group, nrows, ncols, entries)


@pytest.mark.parametrize("field", (F2, F3, PrimeField(1000003), Rationals()), ids=repr)
@pytest.mark.parametrize("group", (Z1, Z2, Zd(3), DINF, HEIS), ids=repr)
def test_transports_match_dict_oracle_randomized(field, group):
    rng = random.Random(f"{field!r} {group!r}")
    collided = 0
    for level in (1, 2, 3, 4):
        for _ in range(6):
            matrix = random_transport_matrix(rng, field, group, level)
            quotient, folner = group.quotient(level), group.folner_set(level)
            induced = induce_to_quotient(matrix, quotient)
            assert_same_transport(induced, oracle_induce(matrix, quotient))
            assert_same_transport(compress_to_folner(matrix, folner),
                                  oracle_compress(matrix, folner))
            # some cell of the quotient took two contributions or cancelled
            collided += sum(len(el.terms) for el in matrix.entries.values()) \
                * quotient.index > induced.nnz
    assert collided


# -- restriction of scalars ---------------------------------------------------

def test_restrict_dihedral_reflection():
    matrix = one_by_one(F3, DINF, {(0, 1): 1, (0, 0): -1})
    restricted, index = restrict_scalars(matrix, TranslationSubgroup())
    assert index == 2 and restricted.group == Zd(1)
    assert restricted.entries[(0, 0)].terms == {(0,): 2}
    assert restricted.entries[(0, 1)].terms == {(0,): 1}
    assert restricted.entries[(1, 0)].terms == {(0,): 1}
    assert restricted.entries[(1, 1)].terms == {(0,): 2}


def test_restrict_dihedral_translation():
    matrix = one_by_one(F3, DINF, {(1, 0): 1, (0, 0): -1})
    restricted, _ = restrict_scalars(matrix, TranslationSubgroup())
    assert restricted.entries[(0, 0)].terms == {(1,): 1, (0,): 2}
    assert restricted.entries[(1, 1)].terms == {(-1,): 1, (0,): 2}
    assert (0, 1) not in restricted.entries and (1, 0) not in restricted.entries


def test_restrict_z_to_doubled_lattice():
    matrix = one_by_one(F3, Z1, {(1,): 1, (0,): -1})
    restricted, index = restrict_scalars(matrix, Sublattice(2))
    assert index == 2
    assert restricted.entries[(0, 0)].terms == {(0,): 2}
    assert restricted.entries[(0, 1)].terms == {(0,): 1}
    assert restricted.entries[(1, 0)].terms == {(1,): 1}
    assert restricted.entries[(1, 1)].terms == {(0,): 2}


def test_restrict_plane_lattice_shape():
    restricted, index = restrict_scalars(plane_pair(F2), Sublattice(2))
    assert index == 4
    assert (restricted.nrows, restricted.ncols) == (4, 8)
    assert restricted.group == Zd(2)


def test_restrict_whitelist():
    with pytest.raises(UnsupportedOperationError):
        restrict_scalars(one_by_one(F2, HEIS, {(0, 0, 0): 1}), Sublattice(2))
    with pytest.raises(UnsupportedOperationError):
        restrict_scalars(one_by_one(F2, Z1, {(0,): 1}), TranslationSubgroup())


def test_restrict_preserves_generic_invertibility():
    from oredim.linalg import rank_laurent_bareiss
    rng = random.Random(53)
    found = 0
    while found < 10:
        a = random_zd_matrix(rng, F5, 1, 2, 2, max_exp=1)
        if rank_laurent_bareiss(to_laurent(a)) != 2:
            continue
        found += 1
        restricted, _ = restrict_scalars(a, Sublattice(2))
        assert rank_laurent_bareiss(to_laurent(restricted)) == 4


# -- laurent conversion and JSON ----------------------------------------------

def test_to_laurent_requires_lattice():
    with pytest.raises(UnsupportedOperationError):
        to_laurent(one_by_one(F2, DINF, {(0, 0): 1}))


def test_matrix_json_round_trip():
    rng = random.Random(59)
    for field in (F5, Rationals()):
        for group in (Z2, DINF, HEIS):
            entries = {(i, j): random_ring_element(rng, field, group)
                       for i in range(2) for j in range(3) if rng.random() < 0.7}
            matrix = GroupRingMatrix(field, group, 2, 3, entries)
            blob = encode_matrix(matrix)
            again = decode_matrix(blob)
            assert again == matrix
            # byte stability of the canonical encoding
            assert json.dumps(encode_matrix(again), sort_keys=True) == \
                json.dumps(blob, sort_keys=True)


def test_block_diag_and_scaling_helpers():
    a = one_by_one(F3, Z1, {(1,): 1})
    b = one_by_one(F3, Z1, {(0,): 2})
    d = a.block_diag(b)
    assert (d.nrows, d.ncols) == (2, 2)
    assert d.entry(1, 1).terms == {(0,): 2}
    scaled = unit_diagonal(F3, Z1, 2, 0, (2,), 2).matmul(d)
    assert scaled.entry(0, 0).terms == {(3,): 2}
    scaled_col = d.matmul(unit_diagonal(F3, Z1, 2, 1, (-1,), 1))
    assert scaled_col.entry(1, 1).terms == {(-1,): 2}
