import random
from fractions import Fraction

import pytest

from helpers import oracle_laurent_rank, oracle_rank, oracle_rank_q
from oredim import linalg
from oredim.errors import UnsupportedOperationError
from oredim.fields import PrimeField, Rationals
from oredim.linalg import (LaurentMatrix, PlainMatrix, extension_field,
                           poly_divexact, poly_mul, rank_dense, rank_laurent,
                           rank_laurent_bareiss, rank_laurent_probabilistic,
                           rank_plain, rank_sparse)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
Q = Rationals()


def dense(field, rows):
    return PlainMatrix.from_dense(field, rows)


def random_laurent(rng, field, nvars, nrows, ncols, deg=1, density=0.7):
    exps = [e for e in _exps(nvars, deg)]
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() > density:
                continue
            poly = {}
            for e in exps:
                c = rng.randrange(field.p)
                if c:
                    poly[e] = c
            if poly:
                entries[(i, j)] = poly
    return LaurentMatrix(field, nvars, nrows, ncols, entries)


def _exps(nvars, deg):
    import itertools
    for e in itertools.product(range(-deg, deg + 1), repeat=nvars):
        if sum(abs(x) for x in e) <= deg + 1:
            yield e


# -- dense ranks --------------------------------------------------------------

def test_rank_dense_examples():
    assert rank_dense(dense(F5, [[1, 2], [2, 4]])) == 1
    ident = {(i, i): 1 for i in range(6)}
    assert rank_dense(PlainMatrix(F2, 6, 6, ident)) == 6
    assert rank_dense(PlainMatrix(F3, 4, 7, {})) == 0
    assert rank_dense(PlainMatrix(Q, 0, 5, {})) == 0


def test_rank_dense_rational_pivoting():
    m = dense(Q, [[Fraction(1, 2), Fraction(1, 3)],
                  [Fraction(1, 4), Fraction(1, 6)],
                  [Fraction(3, 2), 1]])
    assert rank_dense(m) == oracle_rank_q(m.to_dense())


def test_rank_dense_huge_prime_matches_bigint_oracle():
    p = 2147483647
    field = PrimeField(p)
    rng = random.Random(61)
    for _ in range(10):
        rows = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
        assert rank_dense(dense(field, rows)) == oracle_rank(rows, field)


# -- sparse ranks -------------------------------------------------------------

def test_rank_sparse_circulant_example():
    entries = {(0, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1, (2, 2): 1, (2, 0): 1}
    assert rank_sparse(PlainMatrix(F2, 3, 3, entries)) == 2


def test_rank_sparse_permutation():
    rng = random.Random(67)
    perm = list(range(9))
    rng.shuffle(perm)
    m = PlainMatrix(F5, 9, 9, {(i, perm[i]): rng.randrange(1, 5) for i in range(9)})
    assert rank_sparse(m) == 9


def test_rank_sparse_matches_dense_randomized():
    rng = random.Random(71)
    fields = [F2, F3, PrimeField(101), Q]
    for k in range(60):
        field = fields[k % 4]
        nrows, ncols = rng.randrange(1, 65), rng.randrange(1, 65)
        entries = {}
        for _ in range(int(0.1 * nrows * ncols) + 1):
            v = rng.randrange(1, 7) if isinstance(field, PrimeField) else \
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            if not field.is_zero(field.normalize(v)):
                entries[(rng.randrange(nrows), rng.randrange(ncols))] = v
        m = PlainMatrix(field, nrows, ncols, entries)
        assert rank_sparse(m) == rank_dense(m) == oracle_rank(m.to_dense(), field)


def test_rank_sparse_dense_fallback_path():
    # nearly full matrix goes through the densify branch immediately
    rng = random.Random(73)
    rows = [[rng.randrange(3) for _ in range(12)] for _ in range(12)]
    m = dense(F3, rows)
    assert rank_sparse(m) == rank_dense(m)


def plane_quotient(field, n):
    """Level-n quotient matrix of [z1 - 1, z2 - 1] over Z^2, built by hand.

    Row (a, b) holds +1 at (a+1, b) and -1 at (a, b) in the first block,
    +1 at (a, b+1) and -1 at (a, b) in the second, indices mod n.  Its
    kernel is the constants, so the rank is n^2 - 1 over every field.
    """
    size = n * n
    entries = {}
    for a in range(n):
        for b in range(n):
            r = a * n + b
            for col, v in ((((a + 1) % n) * n + b, 1), (r, -1),
                           (size + a * n + (b + 1) % n, 1), (size + r, -1)):
                entries[(r, col)] = field.add(entries.get((r, col), field.zero),
                                              field.normalize(v))
    return PlainMatrix(field, size, 2 * size, entries)


@pytest.mark.parametrize("field", [F2, F3, PrimeField(1000003), Q], ids=repr)
def test_rank_sparse_plane_quotients_closed_form(field):
    for n in (1, 2, 3, 5, 8, 16, 32, 48):
        m = plane_quotient(field, n)
        assert rank_sparse(m) == n * n - 1, n
        if n <= 8:
            assert rank_dense(m) == oracle_rank(m.to_dense(), field) == n * n - 1
        elif n <= 32 and isinstance(field, PrimeField):
            assert rank_dense(m) == n * n - 1


def _structured_cases(rng, field):
    def value():
        if isinstance(field, PrimeField):
            return rng.randrange(1, field.p)
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))

    def scatter(nrows, ncols, count, row_ids=None, col_ids=None):
        row_ids = row_ids or range(nrows)
        col_ids = col_ids or range(ncols)
        return {(rng.choice(row_ids), rng.choice(col_ids)): value()
                for _ in range(count)}

    # empty rows and columns: only even rows and columns divisible by 3
    yield PlainMatrix(field, 9, 12, scatter(9, 12, 14, range(0, 9, 2), range(0, 12, 3)))
    # column singletons: column i holds only (i, i); the rest is scattered
    singles = scatter(10, 16, 25, col_ids=range(10, 16))
    singles.update({(i, i): value() for i in range(10)})
    m = PlainMatrix(field, 10, 16, singles)
    yield m
    # row singletons: the transpose
    yield m.transpose()
    # duplicated rows, some scaled: rank is that of the distinct rows
    base = scatter(5, 11, 18)
    dup = dict(base)
    for (i, j), v in base.items():
        dup[(i + 5, j)] = v
        dup[(i + 10, j)] = field.mul(v, field.normalize(2 if i % 2 else 1))
    yield PlainMatrix(field, 15, 11, dup)
    # nothing but zeros
    yield PlainMatrix(field, 4, 3, {})


@pytest.mark.parametrize("field", [F2, F5, Q], ids=repr)
def test_rank_sparse_structured_matrices(field):
    rng = random.Random(131)
    for _ in range(8):
        for m in _structured_cases(rng, field):
            assert rank_sparse(m) == rank_dense(m) == oracle_rank(m.to_dense(), field)


def test_rank_sparse_fill_falls_back_to_dense_partway(monkeypatch):
    # a unit diagonal plus scattered entries: sparse pivots run first, then
    # fill pushes the live block past SPARSE_FILL_LIMIT
    ranked = []
    real_dense = linalg.rank_dense
    monkeypatch.setattr(linalg, "rank_dense",
                        lambda block: ranked.append(block.nrows) or real_dense(block))
    for seed in range(4):
        rng = random.Random(seed)
        entries = {(i, i): 1 for i in range(24)}
        entries.update({(rng.randrange(24), rng.randrange(24)): rng.randrange(1, 3)
                        for _ in range(72)})
        m = PlainMatrix(F3, 24, 24, entries)
        ranked.clear()
        r = rank_sparse(m)
        assert len(ranked) == 1 and 0 < ranked[0] < 24
        assert r == real_dense(m) == oracle_rank(m.to_dense(), F3)


def test_rank_sparse_pivots_depend_only_on_the_matrix(monkeypatch):
    pivots = []
    real_search = linalg._markowitz_pivot

    def spy(*args):
        pivots.append(real_search(*args))
        return pivots[-1]

    monkeypatch.setattr(linalg, "_markowitz_pivot", spy)
    rng = random.Random(137)
    entries = {(rng.randrange(40), rng.randrange(50)): rng.randrange(1, 5)
               for _ in range(160)}
    shuffled = list(entries.items())
    rng.shuffle(shuffled)
    runs = []
    for order in (entries.items(), reversed(shuffled), shuffled):
        pivots.clear()
        rank_sparse(PlainMatrix(F5, 40, 50, dict(order)))
        runs.append(list(pivots))
    assert runs[0] and runs[0] == runs[1] == runs[2]


# -- metamorphic invariances ---------------------------------------------------

def test_plain_rank_invariances():
    rng = random.Random(79)
    for _ in range(20):
        nrows, ncols = rng.randrange(2, 12), rng.randrange(2, 12)
        rows = [[rng.randrange(5) for _ in range(ncols)] for _ in range(nrows)]
        m = dense(F5, rows)
        r = rank_dense(m)
        assert rank_dense(m.transpose()) == r
        shuffled = list(range(nrows))
        rng.shuffle(shuffled)
        assert rank_dense(dense(F5, [rows[i] for i in shuffled])) == r
        scaled = [row[:] for row in rows]
        scaled[0] = [(3 * x) % 5 for x in scaled[0]]
        assert rank_dense(dense(F5, scaled)) == r


def test_block_diag_rank_additive():
    rng = random.Random(83)
    for _ in range(10):
        a = dense(F3, [[rng.randrange(3) for _ in range(3)] for _ in range(2)])
        b = dense(F3, [[rng.randrange(3) for _ in range(2)] for _ in range(4)])
        assert rank_dense(a.block_diag(b)) == rank_dense(a) + rank_dense(b)


def test_integer_matrix_rank_stable_across_fields():
    rng = random.Random(89)
    for _ in range(10):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
        over_q = rank_dense(dense(Q, rows))
        for p in (101, 103, 107):
            assert rank_dense(dense(PrimeField(p), rows)) == over_q


# -- Bareiss -------------------------------------------------------------------

def test_bareiss_examples():
    z = LaurentMatrix(F2, 1, 1, 1, {(0, 0): {(1,): 1, (0,): 1}})
    assert rank_laurent_bareiss(z) == 1
    row = LaurentMatrix(F3, 2, 1, 2, {(0, 0): {(1, 0): 1, (0, 0): -1},
                                      (0, 1): {(0, 1): 1, (0, 0): -1}})
    assert rank_laurent_bareiss(row) == 1
    diag = LaurentMatrix(F3, 1, 2, 2, {(0, 0): {(1,): 1, (0,): -1},
                                       (1, 1): {(1,): 1, (0,): -1}})
    assert rank_laurent_bareiss(diag) == 2
    assert rank_laurent_bareiss(LaurentMatrix(F2, 2, 3, 3, {})) == 0


def test_bareiss_handles_negative_exponents():
    m = LaurentMatrix(F5, 1, 2, 2, {(0, 0): {(-3,): 2}, (0, 1): {(0,): 1},
                                    (1, 0): {(2,): 1}, (1, 1): {(-1,): 4}})
    assert rank_laurent_bareiss(m) == oracle_laurent_rank(m)


def test_bareiss_matches_minor_oracle_randomized():
    rng = random.Random(97)
    for k in range(40):
        field = (F2, F3, F5)[k % 3]
        m = random_laurent(rng, field, (k % 2) + 1, 3, 3)
        assert rank_laurent_bareiss(m) == oracle_laurent_rank(m), m.entries


def test_bareiss_rational_coefficients():
    m = LaurentMatrix(Q, 1, 2, 2, {
        (0, 0): {(0,): Fraction(1, 2), (1,): 1},
        (0, 1): {(0,): Fraction(1, 3)},
        (1, 0): {(0,): Fraction(3, 2), (1,): 3},
        (1, 1): {(0,): 1}})
    assert rank_laurent_bareiss(m) == oracle_laurent_rank(m)


def test_poly_divexact_detects_inexact():
    num = {(1,): 1, (0,): 1}
    den = {(1,): 1}
    with pytest.raises(ArithmeticError):
        poly_divexact({(0,): 1, (2,): 1}, {(1,): 1, (0,): 1}, F3)
    # 1 / (t + 1) is no Laurent polynomial: the quotient would run into
    # ever more negative exponents
    with pytest.raises(ArithmeticError):
        poly_divexact({(0,): 1}, {(1,): 1, (0,): 1}, F2)
    # (x + 1) / (x + x y^-1): lex-only bounds never stop this one, since
    # the quotient terms y^-k all stay lex-above lexmin(num) - lexmin(den)
    with pytest.raises(ArithmeticError):
        poly_divexact({(1, 0): 1, (0, 0): 1}, {(1, 0): 1, (1, -1): 1}, F3)
    assert poly_divexact(poly_mul(num, den, F3), den, F3) == num
    q = {(1, -1): 2, (0, -2): 1, (-1, 0): 1}
    d = {(-1, 0): 1, (0, 1): 4, (2, -3): 3}
    assert poly_divexact(poly_mul(q, d, F5), d, F5) == q


# -- probabilistic -------------------------------------------------------------

def test_probabilistic_one_by_one():
    z = LaurentMatrix(F2, 1, 1, 1, {(0, 0): {(1,): 1, (0,): 1}})
    report = rank_laurent_probabilistic(z, seed=0)
    assert report.rank == 1 and not report.certified
    assert 0 < report.failure_bound < Fraction(1, 10**5)


def test_probabilistic_zero_and_constant():
    zero = LaurentMatrix(F5, 2, 3, 3, {})
    report = rank_laurent_probabilistic(zero)
    assert report.rank == 0 and report.certified and report.failure_bound == 0
    const = LaurentMatrix(F5, 2, 2, 2, {(0, 0): {(0, 0): 2}, (1, 1): {(0, 0): 3}})
    report = rank_laurent_probabilistic(const)
    assert report.rank == 2 and report.certified and report.failure_bound == 0


def test_probabilistic_matches_bareiss_randomized():
    rng = random.Random(101)
    for k in range(30):
        m = random_laurent(rng, F5, 2, 4, 4)
        assert rank_laurent_probabilistic(m, seed=k).rank == rank_laurent_bareiss(m)


def test_probabilistic_rational_field():
    m = LaurentMatrix(Q, 2, 2, 2, {(0, 0): {(1, 0): 1}, (0, 1): {(0, 1): 1},
                                   (1, 0): {(0, 1): 1}, (1, 1): {(1, 0): 1}})
    # determinant t1^2 - t2^2 is nonzero, so generic rank is 2
    assert rank_laurent_probabilistic(m, seed=3).rank == 2


def test_probabilistic_never_exceeds_bareiss():
    rng = random.Random(103)
    for k in range(20):
        m = random_laurent(rng, F3, 1, 3, 3)
        assert rank_laurent_probabilistic(m, seed=k).rank <= rank_laurent_bareiss(m)


def test_probabilistic_deterministic_given_seed():
    rng = random.Random(107)
    m = random_laurent(rng, F5, 2, 4, 4)
    a = rank_laurent_probabilistic(m, seed=9)
    b = rank_laurent_probabilistic(m, seed=9)
    assert a == b


def test_laurent_transpose_and_scaling_invariance():
    rng = random.Random(109)
    for k in range(10):
        m = random_laurent(rng, F5, 2, 3, 3)
        base = rank_laurent_bareiss(m)
        assert rank_laurent_bareiss(m.transpose()) == base
        shifted = LaurentMatrix(m.field, 2, 3, 3, {
            (i, j): ({(e0 - 2, e1 + 1): c for (e0, e1), c in p.items()}
                     if j == 1 else p)
            for (i, j), p in m.entries.items()})
        assert rank_laurent_bareiss(shifted) == base


# -- dispatchers ---------------------------------------------------------------

def test_rank_laurent_auto_certifies_small_univariate():
    m = LaurentMatrix(F2, 1, 2, 2, {(0, 0): {(1,): 1, (0,): 1}})
    report = rank_laurent(m)
    assert report.certified and report.rank == 1


def test_rank_laurent_auto_probabilistic_for_two_vars():
    m = LaurentMatrix(F2, 2, 1, 1, {(0, 0): {(1, 1): 1}})
    report = rank_laurent(m)
    assert not report.certified and report.rank == 1


def test_rank_laurent_bareiss_gate():
    big = LaurentMatrix(F2, 1, 9, 9, {(i, i): {(1,): 1} for i in range(9)})
    with pytest.raises(UnsupportedOperationError, match="certified rank"):
        rank_laurent(big, alg="bareiss")
    three_vars = LaurentMatrix(F2, 3, 2, 2, {(0, 0): {(0, 0, 1): 1}})
    with pytest.raises(UnsupportedOperationError):
        rank_laurent(three_vars, alg="bareiss")
    # within the gate, bareiss certifies
    ok = LaurentMatrix(F5, 2, 5, 5, {(i, i): {(1, 1): 1} for i in range(5)})
    report = rank_laurent(ok, alg="bareiss")
    assert report.certified and report.rank == 5
    with pytest.raises(ValueError):
        rank_laurent(ok, alg="nonsense")


def test_rank_plain_dispatcher():
    rng = random.Random(113)
    entries = {(rng.randrange(80), rng.randrange(80)): 1 for _ in range(200)}
    m = PlainMatrix(F2, 80, 80, entries)
    assert rank_plain(m) == rank_plain(m, "dense") == rank_plain(m, "sparse")
    # laurent-only algorithms fall back to auto for plain matrices
    assert rank_plain(m, "bareiss") == rank_plain(m)


# -- extension fields -----------------------------------------------------------

def test_extension_field_f4():
    ext = extension_field(2, 2)
    assert ext.modulus == [1, 1, 1]  # x^2 + x + 1, the first irreducible
    a = (0, 1)  # the generator x
    assert ext.mul(a, a) == (1, 1)  # x^2 = x + 1
    assert ext.mul(a, ext.inv(a)) == ext.one
    assert ext.pow(a, 3) == ext.one  # F_4^* has order 3


def test_extension_field_inverse_randomized():
    rng = random.Random(127)
    for (p, e) in ((2, 5), (3, 4), (5, 5), (47, 2)):
        ext = extension_field(p, e)
        for _ in range(25):
            a = ext.random_nonzero(rng)
            assert ext.mul(a, ext.inv(a)) == ext.one
            assert ext.pow(a, p ** e - 1) == ext.one


def test_plain_matrix_validation():
    with pytest.raises(ValueError):
        PlainMatrix(F2, 2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        PlainMatrix(F2, -1, 2)
    m = PlainMatrix(F2, 2, 2, {(0, 0): 2})  # normalizes to zero, dropped
    assert m.nnz == 0
    with pytest.raises(ValueError):
        LaurentMatrix(F2, 2, 1, 1, {(0, 0): {(1,): 1}})  # wrong exponent arity
