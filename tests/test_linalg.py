import collections
import functools
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import (cleared_minor_degree, first_rabin_candidate, irreducible_by_trial_division,
                     oracle_laurent_rank, oracle_rank, oracle_rank_ext, oracle_rank_q,
                     polygcd, polymul, polymulmod, rabin_irreducible, random_ring_element,
                     reference_rank_sparse)
from oredim import linalg
from oredim.errors import UnsupportedOperationError
from oredim.fields import PrimeField, Rationals, is_prime
from oredim.groupring import GroupRingMatrix, compress_to_folner, induce_to_quotient
from oredim.groups import DihedralInfinite, Heisenberg, Zd
from oredim.linalg import (LaurentMatrix, PlainMatrix, RankReport, poly_add,
                           poly_divexact, poly_monomial_shift, poly_mul, rank_dense,
                           rank_laurent, rank_laurent_bareiss,
                           rank_laurent_probabilistic, rank_plain, rank_sparse)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
Q = Rationals()
LIMIT = linalg.IRREDUCIBLE_SEARCH_LIMIT
P31 = 2**31 - 1


def dense(field, rows):
    return PlainMatrix(field, len(rows), len(rows[0]) if rows else 0,
                       {(i, j): v for i, row in enumerate(rows)
                        for j, v in enumerate(row)})


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


def random_laurent_5x5(rng, field):
    """A bivariate 5x5 over F_p: each entry is zero with probability 1/2,
    else 1 to 3 terms with exponents in {-1, 0, 1}^2."""
    exps = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    entries = {}
    for i in range(5):
        for j in range(5):
            if rng.random() < 0.5:
                continue
            poly = {}
            for _ in range(rng.randrange(1, 4)):
                c = rng.randrange(1, field.p)
                e = rng.choice(exps)
                poly[e] = (poly.get(e, 0) + c) % field.p
            entries[(i, j)] = poly
    return LaurentMatrix(field, 2, 5, 5, entries)


def random_sparse_plain(rng, field):
    """A 4..64 x 4..64 matrix with up to 10% of its cells drawn nonzero."""
    nrows, ncols = rng.randrange(4, 65), rng.randrange(4, 65)
    entries = {}
    for _ in range(max(1, int(0.1 * nrows * ncols * rng.random()))):
        i, j = rng.randrange(nrows), rng.randrange(ncols)
        if isinstance(field, PrimeField):
            v = rng.randrange(1, field.p)
        else:
            v = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        if not field.is_zero(field.normalize(v)):
            entries[(i, j)] = v
    return PlainMatrix(field, nrows, ncols, entries)


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
    assert rank_dense(PlainMatrix(F3, 0, 5, {})) == 0


def test_rank_dense_rejects_rationals():
    # numpy would store Fraction(1, 2) in an int64 cell as 0
    for m in (dense(Q, [[Fraction(1, 2), 1], [1, 2]]), PlainMatrix(Q, 0, 5, {})):
        with pytest.raises(TypeError, match="F_p"):
            rank_dense(m)
    assert rank_plain(PlainMatrix(Q, 0, 5, {})) == 0


def test_rank_plain_rational_entries():
    m = dense(Q, [[Fraction(1, 2), Fraction(1, 3)],
                  [Fraction(1, 4), Fraction(1, 6)],
                  [Fraction(3, 2), 1]])
    assert rank_plain(m) == oracle_rank_q(m.to_dense()) == 1


def test_rank_plain_over_q_runs_only_markowitz(monkeypatch):
    # a dense 30x30 product of fractions of rank 12: small and dense enough
    # for the numpy kernel over F_p, but over Q only rank_sparse may rank it,
    # also inside the rational Schwartz-Zippel trials
    calls = []
    for name in ("rank_dense", "rank_sparse"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda m, name=name, real=real: calls.append(name) or real(m))
    rng = random.Random(149)

    def fractions(nrows, ncols):
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ncols)]
                for _ in range(nrows)]

    a, b = fractions(30, 12), fractions(12, 30)
    rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    m = dense(Q, rows)
    assert m.nnz == 30 * 30
    assert rank_plain(m) == oracle_rank_q(rows) == 12
    assert calls == ["rank_sparse"]
    calls.clear()
    # the rational Schwartz-Zippel trials run on the F_p stack, so no plain
    # kernel ranks them, nor a constant cleared matrix, which every trial
    # ranks exactly
    laurent = LaurentMatrix(Q, 1, 2, 2, {(0, 0): {(1,): Fraction(1, 2)}, (0, 1): {(0,): 3},
                                         (1, 0): {(0,): 1}, (1, 1): {(-1,): 6}})
    assert rank_laurent_probabilistic(laurent).rank == 1
    assert calls == []
    constant = LaurentMatrix(Q, 1, 2, 2, {(0, 0): {(1,): Fraction(1, 2)}, (0, 1): {(1,): 3},
                                          (1, 0): {(0,): 1}, (1, 1): {(0,): 6}})
    assert rank_laurent_probabilistic(constant) == RankReport(1, True, Fraction(0))
    assert calls == []


def test_rank_dense_huge_prime_matches_bigint_oracle():
    p = 2147483647
    field = PrimeField(p)
    rng = random.Random(61)
    for _ in range(10):
        rows = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
        assert rank_dense(dense(field, rows)) == oracle_rank(rows, field)


def _ext_product(b, c, modulus, p):
    """The product of two matrices over F_p[x]/(modulus) of coefficient lists."""
    e = len(modulus) - 1
    out = []
    for row in b:
        out.append([])
        for j in range(len(c[0])):
            total = [0] * e
            for x, col in zip(row, c):
                total = [(u + v) % p for u, v in zip(total, polymulmod(x, col[j], modulus, p))]
            out[-1].append(total)
    return out


# (2^31-1, 3) takes the split path of _matmul_mod: 3 (p-1)^2 >= 2^63
@pytest.mark.parametrize("p,e", [(2, 13), (3, 8), (5, 5), (1000003, 2), (2**31 - 1, 3)])
def test_rank_dense_over_extension_matches_realified_oracle(p, e):
    modulus = linalg._find_irreducible(p, e)
    cpow = linalg._companion_powers(p, e)
    rng = random.Random(p * 17 + e)

    def rand(nrows, ncols):
        return [[[rng.randrange(p) for _ in range(e)] for _ in range(ncols)]
                for _ in range(nrows)]

    zero = [0] * e
    cases = []
    # rank-deficient products B C of inner size k, with r > s and r < s
    for r, s, k in ((7, 4, 3), (4, 7, 2), (6, 6, 5), (5, 5, 1)):
        cases.append(_ext_product(rand(r, k), rand(k, s), modulus, p))
    # zero columns between live ones
    m = _ext_product(rand(6, 3), rand(3, 5), modulus, p)
    for row in m:
        row[0] = row[3] = zero
    cases.append(m)
    # column 0 of B C is B[:, 0] C[0][0], live only in rows 3 and 5, so its
    # pivot lies below the first live row
    b, c = rand(6, 3), rand(3, 5)
    for i in (0, 1, 2, 4):
        b[i][0] = zero
    c[1][0] = c[2][0] = zero
    cases.append(_ext_product(b, c, modulus, p))
    cases.append([[zero] * 4 for _ in range(3)])
    ranks = []
    for cells in cases:
        a = np.array([[x for cell in row for x in cell] for row in cells], dtype=np.int64)
        before = a.copy()
        rank = int(linalg._rank_stack_modp(a[None], p, cpow)[0])
        assert rank == oracle_rank_ext(cells, modulus, p)
        assert (a == before).all()
        ranks.append(rank)
    assert ranks == [3, 2, 5, 1, 3, 3, 0]


# (2^31-1, 3) takes the split path of _matmul_mod: 3 (p-1)^2 >= 2^63
@pytest.mark.parametrize("p,e", [(3, 1), (2**31 - 1, 1), (2, 5), (1000003, 2),
                                 (2**31 - 1, 3)])
def test_rank_stack_matches_dense_kernel_slice_by_slice(p, e):
    # slice k of the stack is a 6 x k times k x 7 product over F_{p^e}, so
    # each slice has its own rank.  Each is checked against the F_p kernel
    # on its realified matrix, whose rank is e times the rank over F_{p^e}.
    modulus = linalg._find_irreducible(p, e)
    cpow = linalg._companion_powers(p, e)
    rng = random.Random(p * 37 + e)

    def rand(nrows, ncols):
        return [[[rng.randrange(p) for _ in range(e)] for _ in range(ncols)]
                for _ in range(nrows)]

    cells = [[[[0] * e] * 7] * 6] + [_ext_product(rand(6, k), rand(k, 7), modulus, p)
                                     for k in range(1, 7)]
    stack = np.array([[[x for cell in row for x in cell] for row in m] for m in cells],
                     dtype=np.int64)
    ranks = linalg._rank_stack_modp(stack, p, cpow)
    for a, rank in zip(stack, ranks):
        blocks = linalg._multiplication_blocks(a.reshape(-1, e), cpow, p)
        realified = blocks.reshape(6, 7, e, e).transpose(0, 2, 1, 3).reshape(6 * e, 7 * e)
        assert linalg._rank_dense_modp(realified, p) == e * rank
    assert ranks.tolist() == list(range(7))


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
        want = oracle_rank(m.to_dense(), field)
        assert rank_sparse(m) == want
        if isinstance(field, PrimeField):
            assert rank_dense(m) == want


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
            assert oracle_rank(m.to_dense(), field) == n * n - 1
        if n <= 32 and isinstance(field, PrimeField):
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
            want = oracle_rank(m.to_dense(), field)
            assert rank_sparse(m) == want
            if isinstance(field, PrimeField):
                assert rank_dense(m) == want


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
    real_search = linalg._pivot

    def spy(*args):
        pivots.append(real_search(*args))
        return pivots[-1]

    monkeypatch.setattr(linalg, "_pivot", spy)
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


BIG = 2**64


def q_matrix(rows):
    return PlainMatrix(Q, len(rows), len(rows[0]),
                       {(i, j): Fraction(v) for i, row in enumerate(rows)
                        for j, v in enumerate(row) if v})


@pytest.mark.parametrize("rows,rank", [
    # mixed denominators, full rank
    ([[Fraction(1, 2), Fraction(1, 3), 0], [Fraction(2, 5), Fraction(-3, 7), Fraction(5, 11)],
      [0, Fraction(1, 6), Fraction(-1, 10)]], 3),
    # the second row is 3/2 times the first once cleared: content reduction
    ([[6, 10, 14], [9, 15, 21], [Fraction(3, 4), Fraction(5, 4), 1]], 2),
    # entries above 2^64, rank deficient: row 2 = row 0 * (BIG+1)/3 + row 1
    ([[BIG + 3, Fraction(1, BIG), -7], [5, BIG * BIG, Fraction(-2, 3)],
      [Fraction((BIG + 3) * (BIG + 1), 3) + 5, Fraction(BIG + 1, 3 * BIG) + BIG * BIG,
       Fraction(-7 * (BIG + 1), 3) - Fraction(2, 3)]], 2),
    # negative pivots everywhere
    ([[-3, -5, 0, 0], [0, -7, -11, 0], [0, 0, -13, -17], [-2, 0, 0, -19]], 4),
    # a negative pivot that cancels a row exactly: rows 1 = -2/3 * row 0
    ([[-3, 6, Fraction(9, 2)], [2, -4, -3], [0, 0, 0]], 1),
    ([[0, 0], [0, 0]], 0),
], ids=("mixed-denominators", "content", "above-2^64", "negative-pivots",
        "cancel", "zero"))
def test_rank_sparse_rational_cases_match_fraction_oracle(rows, rank):
    m = q_matrix(rows)
    assert oracle_rank_q(rows) == rank
    assert rank_sparse(m) == rank
    assert rank_sparse(m.transpose()) == rank


def test_rank_sparse_rational_randomized_against_fraction_oracle():
    rng = random.Random(139)

    def value():
        num = rng.choice((rng.randint(-9, 9), rng.randint(-BIG * BIG, BIG * BIG)))
        return Fraction(num, rng.choice((1, 2, 3, 7, 12, BIG + 1)))

    for k in range(40):
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
        base = [{j: value() for j in rng.sample(range(ncols), rng.randint(0, min(ncols, 4)))}
                for _ in range(rng.randint(0, nrows))]
        rows = []
        for _ in range(nrows):
            # a row is a scaled base row, a sum of two, or new
            if base and rng.random() < 0.6:
                a, b = rng.choice(base), rng.choice(base)
                ca, cb = value() or 1, rng.choice((0, value()))
                row = {j: ca * a.get(j, 0) + cb * b.get(j, 0) for j in set(a) | set(b)}
            else:
                row = {j: value() for j in rng.sample(range(ncols), rng.randint(0, min(ncols, 3)))}
            rows.append([row.get(j, Fraction(0)) for j in range(ncols)])
        m = q_matrix(rows)
        want = oracle_rank_q(rows)
        assert rank_sparse(m) == want, k
        assert rank_sparse(m.transpose()) == want, k


def test_rank_sparse_rational_pivots_ignore_row_scaling(monkeypatch):
    # Rows enter as primitive integer vectors, so scaling a row by a
    # nonzero rational changes no zero pattern and no pivot.
    pivots = []
    real_search = linalg._pivot

    def spy(*args):
        pivots.append(real_search(*args))
        return pivots[-1]

    monkeypatch.setattr(linalg, "_pivot", spy)
    rng = random.Random(149)
    entries = {(rng.randrange(30), rng.randrange(36)): Fraction(rng.randint(-4, 4) or 1,
                                                             rng.randint(1, 5))
               for _ in range(110)}
    scale = {i: Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**20), rng.randint(1, 99))
             for i in range(30)}
    runs = []
    for ents in (entries, {(i, j): v * scale[i] for (i, j), v in entries.items()}):
        pivots.clear()
        rank = rank_sparse(PlainMatrix(Q, 30, 36, ents))
        runs.append((rank, list(pivots)))
    assert runs[0][1] and runs[0] == runs[1]
    assert runs[0][0] == oracle_rank(PlainMatrix(Q, 30, 36, entries).to_dense(), Q)


def _spy_pivots(monkeypatch, check=True):
    """Spy on ``_pivot`` and record the pivot row's length at each call.
    With ``check``, first check the column buckets against the live rows,
    then the rule: a column of least live count, a shortest row in it."""
    lengths = []
    real_pivot = linalg._pivot

    def spy(rows, cols, col_bins):
        i, j = real_pivot(rows, cols, col_bins)
        if check:
            counts = collections.Counter(j2 for row in rows.values() for j2 in row)
            assert {j2: len(col) for j2, col in cols.items()} == counts
            assert {j2: k for k, bin_ in col_bins.items() for j2 in bin_} == counts
            assert j in rows[i] and counts[j] == min(counts.values())
            assert len(rows[i]) == min(len(rows[i2]) for i2 in cols[j])
        lengths.append(len(rows[i]))
        return i, j

    monkeypatch.setattr(linalg, "_pivot", spy)
    return lengths


@pytest.mark.parametrize("field", [F5, Q], ids=repr)
def test_rank_sparse_pivot_rule(field, monkeypatch):
    lengths = _spy_pivots(monkeypatch)
    rng = random.Random(151)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 30), rng.randint(1, 30)
        entries = {(rng.randrange(nrows), rng.randrange(ncols)):
                   field.normalize(Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
                   for _ in range(rng.randint(0, 2 * (nrows + ncols)))}
        m = PlainMatrix(field, nrows, ncols, entries)
        assert rank_sparse(m) == oracle_rank(m.to_dense(), field)
    assert len(lengths) > 150


def test_rank_sparse_pivot_rows_stay_on_the_fill_front(monkeypatch):
    # the newest column of least count follows the fill front: on the
    # level-48 quotient of [z1-1, z2-1] no pivot row grows past 4 entries
    lengths = _spy_pivots(monkeypatch, check=False)
    assert rank_sparse(plane_quotient(F3, 48)) == 48 * 48 - 1
    # all but the last few pivots are sparse ones
    assert len(lengths) > 48 * 48 - 10 and max(lengths) <= 4


@pytest.mark.parametrize("group,level", [(Zd(1), 32), (Zd(2), 8), (Zd(3), 4),
                                         (DihedralInfinite(), 16), (Heisenberg(), 3)],
                         ids=repr)
def test_rank_sparse_repeats_the_reference_kernel_on_transports(group, level, monkeypatch):
    # On seeded quotient and Foelner matrices, rank_sparse takes the pivots
    # of the dict-built reference in the same order and hands rank_dense
    # the same blocks
    pivots, blocks = [], []
    real_pivot, real_dense = linalg._pivot, linalg.rank_dense
    monkeypatch.setattr(linalg, "_pivot",
                        lambda *args: pivots.append(real_pivot(*args)) or pivots[-1])
    monkeypatch.setattr(linalg, "rank_dense",
                        lambda block: blocks.append(block) or real_dense(block))
    rng = random.Random(157)
    fallbacks = 0
    for field in (F2, F3, PrimeField(1000003), Q):
        for transport, basis in ((induce_to_quotient, group.quotient(level)),
                                 (compress_to_folner, group.folner_set(level))):
            entries = {(i, j): random_ring_element(rng, field, group, max_terms=5, span=2)
                       for i in range(3) for j in range(3) if rng.random() < 0.8}
            m = transport(GroupRingMatrix(field, group, 3, 3, entries), basis)
            pivots.clear()
            blocks.clear()
            want_pivots, want_blocks = [], []
            want = reference_rank_sparse(
                m, lambda block: want_blocks.append(block) or real_dense(block), want_pivots)
            assert rank_sparse(m) == want
            assert pivots == want_pivots and blocks == want_blocks
            fallbacks += len(blocks)
    assert fallbacks >= 2


def test_plain_matrix_stores_sorted_triples():
    rng = random.Random(163)
    for field in (F2, F5, PrimeField(1000003), Q):
        for nrows, ncols in ((1, 1), (7, 3), (12, 20)):
            entries = {}
            for _ in range(nrows * ncols // 2):
                num = rng.randint(-6, 6)
                v = Fraction(num, rng.randint(1, 3)) if field is Q else num
                entries[(rng.randrange(nrows), rng.randrange(ncols))] = v
            entries[(nrows - 1, 0)] = 0
            reduced = {k: field.normalize(v) for k, v in entries.items()
                       if not field.is_zero(field.normalize(v))}
            assert len(reduced) < len(entries)  # some zeros to drop
            items = list(entries.items())
            rng.shuffle(items)
            m = PlainMatrix(field, nrows, ncols, entries)
            assert m == PlainMatrix(field, nrows, ncols, dict(items))
            keys = list(zip(m.rows, m.cols))
            assert keys == sorted(reduced) and all(m.vals)
            assert m.entries == reduced and m.nnz == len(reduced)
            assert m.to_dense() == [[reduced.get((i, j), field.zero) for j in range(ncols)]
                                    for i in range(nrows)]
            t = m.transpose()
            assert list(zip(t.rows, t.cols)) == sorted((j, i) for i, j in reduced)
            assert t.entries == {(j, i): v for (i, j), v in reduced.items()}
            assert t.transpose() == m
            with pytest.raises(TypeError):
                m.entries[(0, 0)] = field.one


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
        a = [[rng.randrange(3) for _ in range(3)] for _ in range(2)]
        b = [[rng.randrange(3) for _ in range(2)] for _ in range(4)]
        diag = [row + [0, 0] for row in a] + [[0, 0, 0] + row for row in b]
        assert rank_dense(dense(F3, diag)) == \
            rank_dense(dense(F3, a)) + rank_dense(dense(F3, b))


def test_integer_matrix_rank_stable_across_fields():
    rng = random.Random(89)
    for _ in range(10):
        rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
        over_q = rank_plain(dense(Q, rows))
        assert over_q == oracle_rank_q(rows)
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
    # a trial at full rank proves the rank: evaluation never raises it
    z = LaurentMatrix(F2, 1, 1, 1, {(0, 0): {(1,): 1, (0,): 1}})
    report = rank_laurent_probabilistic(z, seed=0)
    assert report.rank == 1 and report.certified and report.failure_bound == 0
    # below full rank the value carries its Schwartz-Zippel bound
    twice = LaurentMatrix(F2, 1, 2, 2, {(i, j): {(1,): 1, (0,): 1}
                                        for i in range(2) for j in range(2)})
    report = rank_laurent_probabilistic(twice, seed=0)
    assert report.rank == 1 and not report.certified
    assert 0 < report.failure_bound < Fraction(1, 10**5)


def test_probabilistic_bound_counts_cleared_row_degrees():
    # each cleared row is (1 + x^2)(1, 1): row degrees 2 and 2, so D = 4 and
    # 64 D = 256 puts the points in F_{5^4}; a bound from the entries' own
    # degree 1 would read (2/624)^3
    m = LaurentMatrix(F5, 1, 2, 2, {(i, j): {(-1,): 1, (1,): 1}
                                    for i in range(2) for j in range(2)})
    report = rank_laurent_probabilistic(m)
    assert report.rank == 1 and not report.certified
    assert report.failure_bound == Fraction(4, 624) ** 3


def test_probabilistic_zero_and_constant():
    zero = LaurentMatrix(F5, 2, 3, 3, {})
    report = rank_laurent_probabilistic(zero)
    assert report.rank == 0 and report.certified and report.failure_bound == 0
    const = LaurentMatrix(F5, 2, 2, 2, {(0, 0): {(0, 0): 2}, (1, 1): {(0, 0): 3}})
    report = rank_laurent_probabilistic(const)
    assert report.rank == 2 and report.certified and report.failure_bound == 0
    # rows x^-1 y^-2 (2, 1) and x^-3 (4, 2) clear to constant rows: D = 0,
    # so the rank-deficient matrix is ranked exactly, not evaluated
    monomial_rows = LaurentMatrix(F5, 2, 2, 2, {
        (0, 0): {(-1, -2): 2}, (0, 1): {(-1, -2): 1},
        (1, 0): {(-3, 0): 4}, (1, 1): {(-3, 0): 2}})
    report = rank_laurent_probabilistic(monomial_rows)
    assert report.rank == 1 and report.certified and report.failure_bound == 0


def test_probabilistic_divides_rows_by_least_monomial():
    # rows x^3 (4, 2) and x^-1 y^2 (2, 1) clear to constant rows once each
    # is divided by its least monomial; clearing only negative exponents
    # would leave row degrees 3 and 2, D = 5 and three uncertified trials
    # in F_{5^4}
    positive_rows = LaurentMatrix(F5, 2, 2, 2, {
        (0, 0): {(3, 0): 4}, (0, 1): {(3, 0): 2},
        (1, 0): {(-1, 2): 2}, (1, 1): {(-1, 2): 1}})
    assert cleared_minor_degree(positive_rows) == 0
    report = rank_laurent_probabilistic(positive_rows)
    assert report.rank == 1 and report.certified and report.failure_bound == 0


def test_probabilistic_matches_bareiss_randomized():
    # bivariate 4x4 with negative exponents: degree bound 8, so the points
    # come from F_{2^10}, F_{3^6} and F_{5^4}
    rng = random.Random(101)
    for field in (F5, F2, F3):
        for k in range(30):
            m = random_laurent(rng, field, 2, 4, 4)
            assert rank_laurent_probabilistic(m, seed=k).rank == rank_laurent_bareiss(m)


def test_probabilistic_largest_prime_matches_bareiss():
    # p = 2^31 - 1 is the largest prime PrimeField accepts, so the points
    # lie in F_p itself.  Every coefficient p - 1 makes each product of a
    # coefficient and a monomial value close to 2^62, so an entry's terms
    # overflow int64 unless each product is reduced before summing.
    p = 2**31 - 1
    field = PrimeField(p)
    rng = random.Random(131)
    for k in range(4):
        rows = [[{(x,): p - 1 for x in rng.sample(range(-8, 9), 12)}
                 for _ in range(5)] for _ in range(3)]
        rows.append([poly_monomial_shift(q, (2,)) for q in rows[0]])
        rows.append([poly_add(a, poly_monomial_shift(b, (-1,)), field)
                     for a, b in zip(rows[1], rows[2])])
        m = LaurentMatrix(field, 1, 5, 5, {(i, j): q for i, row in enumerate(rows)
                                           for j, q in enumerate(row)})
        report = rank_laurent_probabilistic(m, seed=k)
        assert report.rank == rank_laurent_bareiss(m) == 3
        assert report.failure_bound == Fraction(cleared_minor_degree(m), p - 1) ** 3


def test_probabilistic_huge_exponents_at_largest_prime():
    # exponents near 10^17 push the sample space past p^2, so the points
    # come from F_{p^3} with p = 2^31 - 1: there a plain int64 product of
    # two 3x3 blocks of residues could overflow
    p = 2**31 - 1
    n = 10**17
    a = {(0,): 1, (3,): p - 1}
    b = {(1,): p - 1, (n,): 1}
    m = LaurentMatrix(PrimeField(p), 1, 2, 2, {
        (0, 0): a, (0, 1): b,
        (1, 0): poly_monomial_shift(a, (n,)), (1, 1): poly_monomial_shift(b, (n,))})
    report = rank_laurent_probabilistic(m)
    assert report.rank == 1 and not report.certified
    # both rows divided by their least monomials (1 and x^n) have degree n,
    # so minors have degree <= 2n, and 64 * 2n still passes p^2
    assert cleared_minor_degree(m) == 2 * n
    assert report.failure_bound == Fraction(2 * n, p ** 3 - 1) ** 3


def test_probabilistic_ranks_trials_over_the_extension_in_place(monkeypatch):
    # a bench-shaped 24x25 matrix over F_2 in two variables whose last four
    # rows repeat the first four: the three trials are one stack of 24 x
    # (25 e) arrays of F_{2^e} coefficient vectors, not 24e x 25e matrices
    # of their e x e multiplication blocks
    rng = random.Random(151)
    top = random_laurent(rng, F2, 2, 20, 25).entries
    m = LaurentMatrix(F2, 2, 24, 25, {**top, **{(i + 20, j): poly for (i, j), poly
                                                in top.items() if i < 4}})
    want = rank_laurent_probabilistic(m, seed=5)
    assert want.rank == 20 and not want.certified
    shapes = []
    real = linalg._rank_stack_modp
    monkeypatch.setattr(linalg, "_rank_stack_modp",
                        lambda a, p, cpow: shapes.append((a.shape, cpow.shape[0]))
                        or real(a, p, cpow))
    assert rank_laurent_probabilistic(m, seed=5) == want
    e = shapes[0][1]
    assert e > 1 and shapes == [((linalg.PROBABILISTIC_TRIALS, 24, 25 * e), e)]


def test_probabilistic_rational_field():
    m = LaurentMatrix(Q, 2, 2, 2, {(0, 0): {(1, 0): 1}, (0, 1): {(0, 1): 1},
                                   (1, 0): {(0, 1): 1}, (1, 1): {(1, 0): 1}})
    # determinant t1^2 - t2^2 is nonzero, so generic rank is 2
    assert rank_laurent_probabilistic(m, seed=3).rank == 2


def test_probabilistic_rational_matches_minor_oracle_with_negative_exponents():
    # the Q trials evaluate the integer-cleared terms at points of F_l
    rng = random.Random(157)
    for k in range(10):
        entries = {}
        for i in range(3):
            for j in range(3):
                poly = {(rng.randint(-2, 2), rng.randint(-2, 2)):
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)}
                entries[(i, j)] = {x: v for x, v in poly.items() if v}
        entries.update({(2, j): poly_monomial_shift(poly, (-1, 2))
                        for (i, j), poly in list(entries.items()) if i == 0})
        m = LaurentMatrix(Q, 2, 3, 3, entries)
        assert rank_laurent_probabilistic(m, seed=k).rank == oracle_laurent_rank(m)


def test_probabilistic_rational_high_degree_is_certified():
    # x^-n + x^n cleared is 1 + x^(2n): the trials raise points of F_l to
    # powers up to 2n by binary powering, so the degree costs no more than
    # its bit length
    n = 30000
    m = LaurentMatrix(Q, 1, 1, 1, {(0, 0): {(-n,): 1, (n,): 1}})
    assert rank_laurent_probabilistic(m) == RankReport(1, True, Fraction(0))


def test_probabilistic_rational_takes_every_prime_the_height_asks():
    # the determinant 2^31 - 1 vanishes modulo the first height prime, so
    # trials modulo that prime alone read rank 1; the height asks for two
    m = univariate(Q, [[{(0,): Q.one}, {(1,): Q.one}],
                       [{(0,): Q.one}, {(1,): Q.one, (0,): Q.normalize(P31)}]])
    assert linalg._height_primes(linalg._integer_rows(m), 2, 2) == 2
    assert rank_laurent_probabilistic(m) == RankReport(2, True, Fraction(0))


def test_probabilistic_rational_failure_bound_reads_the_least_prime():
    # rank 1 with D = 1 and one height prime l = 2^31 - 1: three trials at
    # points of F_l^* each miss with probability at most 1/(l - 1)
    f = {(0,): Q.one, (1,): Q.one}
    m = univariate(Q, [[f, dict(f)], [{(0,): Q.one}, {(0,): Q.one}]])
    report = rank_laurent_probabilistic(m)
    assert report.rank == 1 and not report.certified
    assert report.failure_bound == Fraction(1, P31 - 1) ** 3


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


def test_rank_engine_metamorphic_laurent():
    # 100 bivariate 5x5 over F_5: evaluation agrees with Bareiss on the
    # matrix, its transpose, its rows and columns reversed, and its row 0
    # times x^2 y^-1
    rng = random.Random(818)
    for k in range(100):
        m = random_laurent_5x5(rng, F5)
        want = rank_laurent_bareiss(m)
        reversed_ = LaurentMatrix(F5, 2, 5, 5, {(4 - i, 4 - j): poly for (i, j), poly
                                                in m.entries.items()})
        shifted = LaurentMatrix(F5, 2, 5, 5, {
            (i, j): poly_monomial_shift(poly, (2, -1)) if i == 0 else poly
            for (i, j), poly in m.entries.items()})
        for seed, variant in enumerate((m, m.transpose(), reversed_, shifted), start=k):
            assert rank_laurent_probabilistic(variant, seed=seed).rank == want, (k, seed)


def test_rank_engine_metamorphic_plain():
    # 200 sparse plain matrices, drawn after the 100 Laurent matrices of
    # the test above from the same generator: rank_sparse agrees with
    # rank_dense over F_p and with oracle_rank over Q, and so do the
    # transpose, the rows reversed and row 0 times a unit
    rng = random.Random(818)
    for _ in range(100):
        random_laurent_5x5(rng, F5)
    fields = (F2, F3, PrimeField(101), Q)
    for k in range(200):
        field = fields[k % 4]
        m = random_sparse_plain(rng, field)
        if isinstance(field, PrimeField):
            kernel, want = rank_dense, rank_dense(m)
            unit = 2 if field.p > 2 else 1
        else:
            kernel, want = rank_sparse, oracle_rank(m.to_dense(), field)
            unit = Fraction(-3, 7)
        reversed_ = {(m.nrows - 1 - i, j): v for (i, j), v in m.entries.items()}
        scaled = {(i, j): field.mul(v, field.normalize(unit)) if i == 0 else v
                  for (i, j), v in m.entries.items()}
        assert rank_sparse(m) == want, k
        assert kernel(m.transpose()) == want, k
        assert kernel(PlainMatrix(field, m.nrows, m.ncols, reversed_)) == want, k
        assert rank_sparse(PlainMatrix(field, m.nrows, m.ncols, scaled)) == want, k


# -- dispatchers ---------------------------------------------------------------

def test_rank_laurent_auto_certifies_small_univariate():
    m = LaurentMatrix(F2, 1, 2, 2, {(0, 0): {(1,): 1, (0,): 1}})
    report = rank_laurent(m)
    assert report.certified and report.rank == 1


def test_rank_laurent_auto_probabilistic_for_two_vars():
    m = LaurentMatrix(F2, 2, 1, 1, {(0, 0): {(1, 1): 1}})
    report = rank_laurent(m)
    assert report.certified and report.failure_bound == 0 and report.rank == 1


def poly_matmul(a, b, field):
    """Product of matrices given as lists of rows of polynomials."""
    return [[functools.reduce(lambda acc, t: poly_add(acc, t, field),
                              (poly_mul(x, y, field) for x, y in zip(row, col)), {})
             for col in zip(*b)] for row in a]


def univariate(field, grid):
    return LaurentMatrix(field, 1, len(grid), len(grid[0]),
                         {(i, j): q for i, row in enumerate(grid)
                          for j, q in enumerate(row) if q})


def test_rank_laurent_gives_up_on_dense_bareiss():
    # a dense 8x8 of rank 7 over Q with exponents in [-5, 5]: uncapped
    # Bareiss takes about 3 s on it and its grid of 81 points, evaluating
    # 703 terms at each, about 0.05 s: past the budget, capped Bareiss
    # drops out and the trials answer
    rng = random.Random(151)
    coeffs = [c for c in range(-9, 10) if c]
    u = [[{(e,): rng.choice(coeffs) for e in range(-3, 3)} for _ in range(7)]
         for _ in range(8)]
    v = [[{(e,): rng.choice(coeffs) for e in range(-2, 4)} for _ in range(8)]
         for _ in range(7)]
    m = univariate(Q, poly_matmul(u, v, Q))
    start = time.perf_counter()
    report = rank_laurent(m)
    assert time.perf_counter() - start < 1
    assert report.rank == 7 and not report.certified
    assert report == rank_laurent_probabilistic(m)


@pytest.mark.parametrize("field", [F3, PrimeField(1000003), Q], ids=("F_3", "F_1000003", "Q"))
def test_rank_laurent_certifies_sparse_udv(field):
    # U.D.V as the bench builds it: U and V are monomial-scaled reversals
    # times unitriangular matrices with two units below the diagonal, D
    # holds six binomials.  Rank 6 of 8 is below full rank, so no single
    # point certifies it; the grid of all points does, over every field.
    rng = random.Random(157)

    def unit():
        return {(rng.choice((1, -1)),): field.normalize(rng.choice((1, -1, 2)))}

    def unimodular(n):
        scaled = [[unit() if j == n - 1 - i else {} for j in range(n)] for i in range(n)]
        tri = [[{(0,): field.one} if j == i else unit() if i - 2 <= j < i else {}
                for j in range(n)] for i in range(n)]
        return poly_matmul(scaled, tri, field)

    diag = [[{(0,): field.normalize(rng.choice((1, 2))), **unit()} if i == j < 6 else {}
             for j in range(8)] for i in range(8)]
    m = univariate(field, poly_matmul(poly_matmul(unimodular(8), diag, field),
                                      unimodular(8), field))
    report = rank_laurent(m)
    assert report.rank == 6 and report.certified and report.failure_bound == 0


def test_rank_laurent_one_row_or_column_is_exact(monkeypatch):
    # a nonzero Laurent polynomial is a unit of k(t_1..t_d): no evaluation
    monkeypatch.setattr(linalg, "rank_laurent_probabilistic", None)
    p = 1000003
    row = LaurentMatrix(PrimeField(p), 2, 1, 3, {(0, 2): {(10**17, 0): 1, (0, 1): 1}})
    assert rank_laurent(row) == RankReport(1, True, Fraction(0))
    assert rank_laurent(row.transpose()) == RankReport(1, True, Fraction(0))
    assert rank_laurent(LaurentMatrix(Q, 1, 4, 1, {})) == RankReport(0, True, Fraction(0))


def test_rank_laurent_clears_each_matrix_once(monkeypatch):
    # the trials take rank_laurent's clearing shifts, both past the grid
    # budget and for a matrix that is constant once cleared
    field = PrimeField(1000003)
    f = {(300, 0): 1, (0, 300): 2, (0, 0): 1}
    one = {(0, 0): 1}
    past = LaurentMatrix(field, 2, 2, 2, {(0, 0): f, (0, 1): dict(f), (1, 0): one, (1, 1): one})
    constant = LaurentMatrix(field, 2, 2, 2, {(0, 0): {(1, 0): 1}, (0, 1): {(1, 0): 2},
                                              (1, 0): {(0, -1): 3}, (1, 1): {(0, -1): 1}})
    calls = []
    clear = linalg._clearing_shifts
    monkeypatch.setattr(linalg, "_clearing_shifts", lambda m: calls.append(m) or clear(m))
    for m, rank, certified in ((past, 1, False), (constant, 2, True)):
        calls.clear()
        report = rank_laurent(m)
        assert calls == [m]
        assert (report.rank, report.certified) == (rank, certified)
        assert report == rank_laurent_probabilistic(m)


def falling(field, n, var, nvars):
    """prod_{j<n} (t_var - j) as a Laurent polynomial in nvars variables."""
    zero = (0,) * nvars
    t = tuple(int(k == var) for k in range(nvars))
    poly = {zero: field.one}
    for j in range(n):
        poly = poly_mul(poly, {t: field.one, zero: field.normalize(-j)}, field)
    return poly


@pytest.mark.parametrize("field", [PrimeField(1000003), Q], ids=("F_1000003", "Q"))
def test_rank_laurent_grid_reaches_its_last_point(field, monkeypatch):
    # rows (f + 1, 1) and (1, 1) have determinant f.  With f = prod_{j<12}
    # (t - j) the grid is 0..12 and f vanishes on all of it but 12, the
    # last point; a grid one point short would certify rank 1
    one = {(0,): field.one}
    f = falling(field, 12, 0, 1)
    m = univariate(field, [[poly_add(f, one, field), one], [one, one]])
    assert rank_laurent(m) == RankReport(2, True, Fraction(0))
    # f(x) g(y), g = prod_{j<5} (y - j), vanishes on the 12 x 6 subgrid
    # x < 12 of the 13 x 6 grid, and on every point with y < 5: only the
    # last point, (12, 5), has rank 2
    one = {(0, 0): field.one}
    fg = poly_mul(falling(field, 12, 0, 2), falling(field, 5, 1, 2), field)
    m2 = LaurentMatrix(field, 2, 2, 2, {(0, 0): poly_add(fg, one, field), (0, 1): one,
                                        (1, 0): one, (1, 1): one})
    assert rank_laurent(m2) == RankReport(2, True, Fraction(0))
    # one point per stack: the scan still ends at the last point
    monkeypatch.setattr(linalg, "GRID_STACK_CELLS", 1)
    assert rank_laurent(m) == rank_laurent(m2) == RankReport(2, True, Fraction(0))


@pytest.mark.parametrize("field, scales", [(F2, None), (F3, None), (PrimeField(1000003), None),
                                           (Q, None), (Q, (1, P31, 2 * P31))],
                         ids=("F_2", "F_3", "F_1000003", "Q", "Q-2^31-1"))
def test_rank_laurent_grid_matches_bareiss_and_minors(field, scales, monkeypatch):
    # rank-deficient 4x4 products U V with exponents in [-1, 1]: below full
    # rank, so only the grid certifies them.  Some bivariate grids here
    # cost more than the budget admits, so the budget is lifted.  Over Q,
    # coefficients that are multiples of 2^31 - 1 vanish mod the first prime
    monkeypatch.setattr(linalg, "GRID_WORK_LIMIT", 1 << 40)
    rng = random.Random(163)
    for k in range(8):
        nvars, inner = 1 + k % 2, 1 + k % 3
        exps = list(itertools.product((-1, 0, 1), repeat=nvars))

        def poly():
            terms = {e: field.normalize(rng.randint(1, 6) * (rng.choice(scales) if scales else 1))
                     for e in rng.sample(exps, 2)}
            return {e: v for e, v in terms.items() if not field.is_zero(v)}

        u = [[poly() for _ in range(inner)] for _ in range(4)]
        v = [[poly() for _ in range(4)] for _ in range(inner)]
        m = LaurentMatrix(field, nvars, 4, 4, {(i, j): q for i, row in
                                               enumerate(poly_matmul(u, v, field))
                                               for j, q in enumerate(row) if q})
        report = rank_laurent(m)
        assert report.certified and report.failure_bound == 0
        assert report.rank == rank_laurent_bareiss(m) == oracle_laurent_rank(m) <= inner


@pytest.mark.parametrize("field", [F3, Q], ids=("F_3", "Q"))
def test_rank_laurent_certifies_few_terms_of_high_degree(field):
    # rows (x^N + 1, x^N + 1) and (1, 1) have rank 1.  The grid needs N + 1
    # points however sparse the entries are, so N = 10^5 is past its
    # budget; Bareiss certifies it in a few term products, where the trials
    # would leave it uncertified over F_3 and refuse its powers over Q
    n = 10 ** 5
    one = {(0,): field.one}
    m = univariate(field, [[{(n,): field.one, **one}] * 2, [one, one]])
    start = time.perf_counter()
    assert rank_laurent(m) == RankReport(1, True, Fraction(0))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("field", [PrimeField(1000003), Q], ids=("F_1000003", "Q"))
def test_rank_laurent_budget_counts_evaluation(field):
    # rows (f, f) and (1, 1), f dense of degree 40 in x and in y: rank 1, so
    # a grid scan never stops early and evaluates all 3,364 terms at each
    # of its 41 x 41 points.  The budget counts that evaluation and sends
    # the matrix to the trials
    f = {(a, b): field.normalize(1 + (7 * a + 3 * b) % 5)
         for a in range(41) for b in range(41)}
    one = {(0, 0): field.one}
    m = LaurentMatrix(field, 2, 2, 2, {(0, 0): f, (0, 1): dict(f), (1, 0): one, (1, 1): one})
    start = time.perf_counter()
    report = rank_laurent(m)
    assert time.perf_counter() - start < 1
    assert report.rank == 1 and not report.certified


@pytest.mark.parametrize("grid, rank", [
    ([[{(0,): 1}, {(1,): 1}], [{(0,): 1}, {(1,): 1, (0,): P31}]], 2),
    ([[{(0,): 1}, {(1,): 1}], [{(0,): P31}, {(1,): P31}]], 1),
    ([[{(0,): P31}, {(1,): P31}, {}], [{(0,): 2 * P31}, {(1,): 2 * P31}, {}], [{}, {}, {}]], 1),
], ids=("det-2^31-1", "proportional", "empty-row"))
def test_rank_laurent_q_grid_height_certificate(grid, rank):
    # the Q grid is ranked modulo primes below 2^31, as many as the product
    # of the largest row 1-norms asks for.  The first is 2^31 - 1: the
    # determinant 2^31 - 1 vanishes mod it, and in the 3x3 both nonzero rows
    # do, so ranking mod that prime alone gives 1 and 0.  The empty row
    # counts 1 in the height, not 0, so the 3x3 still gets three primes
    m = univariate(Q, [[{k: Q.normalize(v) for k, v in q.items()} for q in row] for row in grid])
    assert rank_laurent(m) == RankReport(rank, True, Fraction(0))
    assert rank_laurent_bareiss(m) == oracle_laurent_rank(m) == rank


def test_rank_laurent_q_grid_runs_on_the_stack(monkeypatch):
    # every point of a Q grid goes to _rank_stack_modp, modulo the two
    # largest primes below 2^31 here, and no point to rank_plain
    primes = []
    stack = linalg._rank_stack_modp
    monkeypatch.setattr(linalg, "_rank_stack_modp", lambda a, p, cpow: primes.extend(
        np.broadcast_to(p, len(a)).tolist()) or stack(a, p, cpow))
    monkeypatch.setattr(linalg, "rank_plain", lambda m: pytest.fail("rank_plain ran"))
    one, x = {(0,): Q.one}, {(1,): Q.one}
    m = univariate(Q, [[one, x], [one, {(1,): Q.one, (0,): Q.normalize(P31)}]])
    assert rank_laurent(m) == RankReport(2, True, Fraction(0))
    assert list(dict.fromkeys(primes)) == [P31, 2147483629]
    # a bivariate matrix past the grid budget goes to the trials, which
    # run on the stack too
    f = {(a, b): Q.normalize(2**600 + 7 * a + 3 * b) for a in range(11) for b in range(11)}
    one = {(0, 0): Q.one}
    big = LaurentMatrix(Q, 2, 2, 2, {(0, 0): f, (0, 1): dict(f), (1, 0): one, (1, 1): one})
    primes.clear()
    report = rank_laurent(big)
    assert report.rank == 1 and not report.certified
    count = linalg._height_primes(linalg._integer_rows(big), 2, 2)
    assert primes == np.repeat(linalg._split_primes(1, count),
                               linalg.PROBABILISTIC_TRIALS).tolist()


def test_rank_laurent_q_trials_reduce_huge_coefficients_in_blocks():
    # rows (f, f) and (1, 1), f with 121 terms of 30,000 bits: the trials
    # take 1,001 primes, and each coefficient is reduced modulo products of
    # blocks of primes before each prime (one prime at a time it took 4.1 s
    # with CPython 3.11 on a 2-core x86_64 host)
    f = {(a, b): Q.normalize(2**29999 + 7 * a + 3 * b) for a in range(11) for b in range(11)}
    one = {(0, 0): Q.one}
    m = LaurentMatrix(Q, 2, 2, 2, {(0, 0): f, (0, 1): dict(f), (1, 0): one, (1, 1): one})
    assert linalg._height_primes(linalg._integer_rows(m), 2, 2) == 1001
    start = time.perf_counter()
    report = rank_laurent(m)
    assert time.perf_counter() - start < 2.5
    # D = 20, and the sample is the least of the primes
    bound = Fraction(20, linalg._split_primes(1, 1001)[-1] - 1) ** linalg.PROBABILISTIC_TRIALS
    assert report == RankReport(1, False, bound)


def test_residues_match_one_prime_at_a_time():
    rng = random.Random(77)
    primes = linalg._split_primes(1, 70)
    values = [rng.getrandbits(rng.choice([1, 31, 200, 5000])) * rng.choice([1, -1])
              for _ in range(40)] + [0, -1, math.prod(primes[:32])]
    columns = linalg._residues(values, primes)
    assert list(columns) == list(primes)
    for p in primes:
        assert columns[p].shape == (len(values), 1)
        assert columns[p][:, 0].tolist() == [v % p for v in values]


def test_rank_laurent_q_grid_budget_counts_primes(monkeypatch):
    # rows (f, f) and (1, 1), f with 121 terms of about 2^600 in x and y: the
    # 11 x 11 grid fits the budget with one prime, but its height needs 21,
    # so the trials answer, and no stack of grid points is ranked
    sizes = []
    stack = linalg._rank_stack_modp
    monkeypatch.setattr(linalg, "_rank_stack_modp",
                        lambda a, p, cpow: sizes.append(len(a)) or stack(a, p, cpow))
    f = {(a, b): Q.normalize(2**600 + 7 * a + 3 * b) for a in range(11) for b in range(11)}
    one = {(0, 0): Q.one}
    m = LaurentMatrix(Q, 2, 2, 2, {(0, 0): f, (0, 1): dict(f), (1, 0): one, (1, 1): one})
    assert linalg._height_primes(linalg._integer_rows(m), 2, 2) == 21
    start = time.perf_counter()
    report = rank_laurent(m)
    assert time.perf_counter() - start < 1
    assert report.rank == 1 and not report.certified
    assert sizes == [21 * linalg.PROBABILISTIC_TRIALS]
    assert report == rank_laurent_probabilistic(m)
    # a grid of 3 points whose height needs 67 primes: the primes share one
    # scan, so the budget charges 3 x 67 (prime, point) pairs, and the grid
    # certifies the rank
    c = Q.normalize(2**2000)
    small = univariate(Q, [[{(0,): c}, {(1,): c}], [{(0,): Q.one}, {(1,): Q.one}]])
    assert linalg._height_primes(linalg._integer_rows(small), 2, 2) == 67
    assert rank_laurent(small) == RankReport(1, True, Fraction(0))


def test_rank_laurent_q_grid_budget_charges_one_stack_per_scan(monkeypatch):
    # the 3 x 3 grid of [[c, c xy], [1, xy]], c = 2^2000, modulo its 67
    # height primes: 603 slices in one scan, within the budget
    slices = []
    stack = linalg._rank_stack_modp
    monkeypatch.setattr(linalg, "_rank_stack_modp",
                        lambda a, p, cpow: slices.append(len(a)) or stack(a, p, cpow))
    c = Q.normalize(2**2000)
    m = LaurentMatrix(Q, 2, 2, 2, {(0, 0): {(0, 0): c}, (0, 1): {(1, 1): c},
                                   (1, 0): {(0, 0): Q.one}, (1, 1): {(1, 1): Q.one}})
    assert rank_laurent(m) == RankReport(1, True, Fraction(0))
    assert sum(slices) == 9 * 67


def test_rank_laurent_refused_q_grid_clears_rows_once(monkeypatch):
    # a Q grid refused at its real prime count hands its integer rows to
    # the trials instead of clearing the matrix again
    calls = []
    rows = linalg._integer_rows
    monkeypatch.setattr(linalg, "_integer_rows", lambda m: calls.append(m) or rows(m))
    f = {(a, b): Q.normalize(Fraction(2**600 + 7 * a + 3 * b, 3)) for a in range(11) for b in range(11)}
    one = {(0, 0): Q.one}
    m = LaurentMatrix(Q, 2, 2, 2, {(0, 0): f, (0, 1): dict(f), (1, 0): one, (1, 1): one})
    report = rank_laurent(m)
    assert report.rank == 1 and not report.certified
    assert calls == [m]


def test_rank_plain_dispatcher(monkeypatch):
    rng = random.Random(113)
    entries = {(rng.randrange(80), rng.randrange(80)): 1 for _ in range(200)}
    m = PlainMatrix(F2, 80, 80, entries)
    assert rank_plain(m) == rank_dense(m) == rank_sparse(m) == oracle_rank(m.to_dense(), F2)
    # rank_plain goes through rank_sparse alone, and only its fill check
    # reaches rank_dense: a dense matrix at once, as the whole block, and
    # a sparse one not at all
    calls = []
    for name in ("rank_dense", "rank_sparse"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda m, name=name, real=real: calls.append((name, m)) or real(m))
    full = dense(F5, [[rng.randrange(1, 5) for _ in range(8)] for _ in range(8)])
    assert rank_plain(full) == oracle_rank(full.to_dense(), F5)
    assert calls == [("rank_sparse", full), ("rank_dense", full)]
    calls.clear()
    sparse = PlainMatrix(F3, 6, 7, {(i, i): 1 + i % 2 for i in range(6)} | {(0, 6): 1, (3, 5): 2})
    assert rank_plain(sparse) == oracle_rank(sparse.to_dense(), F3) == 6
    assert calls == [("rank_sparse", sparse)]


@pytest.mark.parametrize("field", [F2, Q], ids=("F_2", "Q"))
def test_rank_laurent_no_variables(field):
    # a constant matrix in no variables is its grid's one point, and every
    # trial ranks it exactly
    one = {(): field.one}
    m = LaurentMatrix(field, 0, 2, 2, {(0, 0): one, (0, 1): one, (1, 0): one, (1, 1): one})
    assert rank_laurent(m) == rank_laurent_probabilistic(m) == RankReport(1, True, Fraction(0))


def test_probabilistic_refuses_extension_degree_past_16():
    # D = 1101 asks for F_{2^17}, past the 16 coefficients _matmul_mod keeps
    # exact in int64; its 1101 x 3 grid is past the budget
    f = {(1100, 0): 1, (0, 1): 1}
    m = LaurentMatrix(F2, 2, 2, 2, {(0, 0): f, (0, 1): dict(f),
                                    (1, 0): {(0, 0): 1}, (1, 1): {(0, 1): 1}})
    with pytest.raises(UnsupportedOperationError, match=r"D=1101 .*F_\{2\^17\}.* 16"):
        rank_laurent(m)


# -- extension fields -----------------------------------------------------------

def test_extension_field_f4():
    assert linalg._find_irreducible(2, 2) == [1, 1, 1]  # x^2 + x + 1, the first
    cpow = linalg._companion_powers(2, 2)
    x = linalg._multiplication_blocks(np.array([[0, 1]]), cpow, 2)[0]
    assert (x @ [0, 1] % 2).tolist() == [1, 1]  # x * x = x + 1
    assert (linalg._matrix_powers(x, [3], 2)[0] == np.eye(2)).all()  # F_4^* has order 3


def test_extension_field_products_randomized():
    rng = random.Random(127)
    for (p, e) in ((2, 5), (3, 4), (5, 5), (47, 2)):
        modulus = linalg._find_irreducible(p, e)
        cpow = linalg._companion_powers(p, e)
        for _ in range(25):
            a = [rng.randrange(p) for _ in range(e)]
            b = [rng.randrange(p) for _ in range(e)]
            block = linalg._multiplication_blocks(np.array([a]), cpow, p)[0]
            assert (block @ b % p).tolist() == polymulmod(a, b, modulus, p)


@pytest.mark.parametrize("p,top", [(2, 14), (3, 9), (5, 5), (47, 2), (7, 4), (11, 3)])
def test_find_irreducible_matches_trial_division(p, top):
    for e in range(2, top + 1):
        f = linalg._find_irreducible(p, e)
        assert f == first_rabin_candidate(p, e, LIMIT), (p, e)
        assert irreducible_by_trial_division(f, p), (p, e)


def test_find_irreducible_bounded_search():
    # no x^4 + c is irreducible over F_1000003 (1000003 = 3 mod 4), nor
    # over F_{2^31-1}; random candidates need no such family to be skipped
    f = linalg._find_irreducible(1000003, 4)
    assert f == [612485, 645640, 271913, 674206, 1]
    assert rabin_irreducible(f, 1000003)
    linalg._find_irreducible.cache_clear()
    start = time.perf_counter()
    f = linalg._find_irreducible(2**31 - 1, 4)
    assert time.perf_counter() - start < 0.5
    assert f == [1058765899, 1753360988, 1755736461, 1707527090, 1]
    # the batched search decides as Rabin's test on one candidate at a time,
    # also where it takes many batches
    for p, e in ((2, 16), (3, 16), (1000003, 4), (1000003, 8), (2**31 - 1, 4),
                 (89, 13), (43, 16)):
        assert linalg._find_irreducible(p, e) == first_rabin_candidate(p, e, LIMIT), (p, e)


def test_find_irreducible_every_small_field():
    fields = [(p, e) for p in range(2, 102) if is_prime(p) for e in range(2, 17)]
    fields += [(p, e) for p in (1000003, P31) for e in (2, 3, 5, 8, 16)]
    for p, e in fields:
        f = linalg._find_irreducible(p, e)
        assert len(f) == e + 1 and f[-1] == 1, (p, e)
        assert irreducible_by_trial_division(f, p), (p, e)


def test_find_irreducible_filters_before_rabin(monkeypatch):
    # candidates with a root at 0, 1 or -1 never reach Rabin's test
    tested = []
    rabin = linalg._rabin_passes

    def spy(f, p, primes):
        tested.extend(f.tolist())
        return rabin(f, p, primes)

    monkeypatch.setattr(linalg, "_rabin_passes", spy)
    for p, e in ((13, 4), (5, 6), (7, 4), (11, 3), (1000003, 4)):
        linalg._find_irreducible.cache_clear()
        tested.clear()
        assert linalg._find_irreducible(p, e) in tested
        for f in tested:
            assert all(sum(c * a ** i for i, c in enumerate(f)) % p for a in (0, 1, -1)), (p, e, f)
    linalg._find_irreducible.cache_clear()


def test_recorded_moduli_are_the_search(monkeypatch):
    # F_2 and F_3 read their moduli from RECORDED_MODULI; each is the
    # polynomial the seeded search returns with the table bypassed
    linalg._find_irreducible.cache_clear()
    recorded = {(p, e): linalg._find_irreducible(p, e) for p in (2, 3) for e in range(2, 17)}
    assert [len(linalg.RECORDED_MODULI[p]) for p in (2, 3)] == [15, 15]
    monkeypatch.setattr(linalg, "RECORDED_MODULI", {})
    linalg._find_irreducible.cache_clear()
    searched = {(p, e): linalg._find_irreducible(p, e) for p in (2, 3) for e in range(2, 17)}
    linalg._find_irreducible.cache_clear()
    assert recorded == searched


def test_recorded_moduli_skip_the_search(monkeypatch):
    monkeypatch.setattr(linalg, "_rabin_passes", lambda f, p, primes: pytest.fail("searched"))
    linalg._find_irreducible.cache_clear()
    try:
        assert linalg._find_irreducible(2, 16) == first_rabin_candidate(2, 16, LIMIT)
        assert linalg._find_irreducible(3, 2) == [2, 1, 1]
    finally:
        linalg._find_irreducible.cache_clear()


def _random_irreducible(rng, p, e):
    while True:
        f = [rng.randrange(p) for _ in range(e)] + [1]
        if rabin_irreducible(f, p):
            return f


@pytest.mark.parametrize("p,degrees", [(2, range(2, 17)), (3, range(2, 17)),
                                       (1000003, (2, 3, 4, 6)), (P31, (2, 3, 4))],
                         ids=("2", "3", "1000003", "2^31-1"))
def test_rabin_passes_matches_oracle(p, degrees):
    rng = random.Random(p)
    for e in degrees:
        batch = [[rng.randrange(p) for _ in range(e)] + [1] for _ in range(6)]
        batch.append(_random_irreducible(rng, p, e))
        if e % 2 == 0 and (p, e) != (2, 4):  # F_2 has one irreducible quadratic
            # x^(p^e) = x mod g*h for distinct irreducible g, h of degree
            # e/2, so only the gcd condition rejects it
            g = _random_irreducible(rng, p, e // 2)
            h = g
            while h == g:
                h = _random_irreducible(rng, p, e // 2)
            batch.append(polymul(g, h, p))
        want = [rabin_irreducible(f, p) for f in batch]
        got = linalg._rabin_passes(np.array(batch), p, linalg._prime_factors(e))
        assert got.tolist() == want, (p, e)
        assert want[6] and not any(want[7:]), (p, e)  # the drawn irreducible, g*h


@pytest.mark.parametrize("p", [2, 3, 1000003, P31])
def test_coprime_matches_polygcd(p):
    rng = random.Random(p + 1)

    def poly(deg):
        return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]

    cases = [([], [1]), ([], poly(3)), ([0, 0, 0], poly(2)), (poly(0), poly(4))]
    for _ in range(30):
        f = poly(rng.randrange(1, 7))
        cases.append((poly(rng.randrange(0, 10)), f))  # deg h may pass deg f
        common = poly(rng.randrange(1, 3))
        cases.append((polymul(common, poly(rng.randrange(0, 5)), p), polymul(common, f, p)))
    for h, f in cases:
        assert linalg._coprime(h, f, p) == (polygcd(h, f, p) == [1]), (p, h, f)
    assert not all(linalg._coprime(h, f, p) for h, f in cases)


def test_matmul_mod_exact_at_largest_prime():
    p = 2**31 - 1
    rng = random.Random(139)
    a = [[rng.choice((p - 1, rng.randrange(p))) for _ in range(16)] for _ in range(16)]
    b = [[rng.choice((p - 1, rng.randrange(p))) for _ in range(16)] for _ in range(16)]
    want = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
    assert linalg._matmul_mod(np.array(a), np.array(b), p).tolist() == want


def test_plain_matrix_validation():
    with pytest.raises(ValueError):
        PlainMatrix(F2, 2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        PlainMatrix(F2, -1, 2)
    m = PlainMatrix(F2, 2, 2, {(0, 0): 2})  # normalizes to zero, dropped
    assert m.nnz == 0
    with pytest.raises(ValueError):
        LaurentMatrix(F2, 2, 1, 1, {(0, 0): {(1,): 1}})  # wrong exponent arity


# -- ranks by characters --------------------------------------------------------

@pytest.mark.parametrize("p", [3, 1000003, 2**31 - 19])
def test_rank_stack_fp_branch_matches_block_path(p):
    # a stack over F_p has the same ranks over F_{p^2}, where each entry x
    # is the vector (x, 0) and the kernel takes the multiplication-block
    # path.  Slices are products of rank at most ``inner``
    # (factors below 2^15 keep the products exact), some columns zeroed
    rng = np.random.default_rng(p % 1000)
    top = min(p, 1 << 15)
    for npts, r, s, inner in ((45, 12, 13, 12), (20, 10, 11, 4), (64, 3, 3, 2), (9, 5, 2, 1)):
        stack = rng.integers(0, top, (npts, r, inner)) @ rng.integers(0, top, (inner, s)) % p
        stack[::3, :, ::2] = 0
        flat = linalg._rank_stack_modp(stack, p, linalg._companion_powers(p, 1))
        embedded = np.stack([stack, np.zeros_like(stack)], axis=-1).reshape(npts, r, 2 * s)
        assert (flat == linalg._rank_stack_modp(embedded, p, linalg._companion_powers(p, 2))).all()
        assert flat.tolist() == [linalg._rank_dense_modp(a, p) for a in stack]


def test_rank_stack_mixed_moduli_match_each_slice_alone():
    # at e = 1 each slice has its own modulus: small, medium and the three
    # largest primes below 2^31, interleaved; products of rank at most
    # ``inner`` with zeroed columns, as above
    rng = np.random.default_rng(41)
    moduli = [3, 1000003, *linalg._split_primes(1, 3)]
    cpow = linalg._companion_powers(3, 1)
    for npts, r, s, inner in ((45, 12, 13, 12), (20, 10, 11, 4), (64, 3, 3, 2), (9, 5, 2, 1)):
        p = np.array([moduli[k % len(moduli)] for k in range(npts)], dtype=np.int64)
        stack = rng.integers(0, 1 << 15, (npts, r, inner)) @ rng.integers(0, 1 << 15, (inner, s))
        stack[::3, :, ::2] = 0
        alone = [int(linalg._rank_stack_modp(a[None], q, cpow)[0]) for a, q in zip(stack, p)]
        assert linalg._rank_stack_modp(stack, p, cpow).tolist() == alone
        assert alone == [linalg._rank_dense_modp(a, int(q)) for a, q in zip(stack, p)]


@pytest.mark.parametrize("n, d", [(1, 2), (2, 3), (8, 1), (12, 2), (15, 2), (16, 2), (30, 1)])
def test_orbit_max_matches_brute_force(n, d):
    rng = np.random.default_rng(n * 10 + d)
    best = rng.integers(0, 5, n ** d)
    chars = np.indices((n,) * d).reshape(d, -1)
    index = {tuple(a): k for k, a in enumerate(chars.T.tolist())}
    units = [u for u in range(n) if np.gcd(u, n) == 1]
    expect = [max(best[index[tuple(u * x % n for x in a)]] for u in units)
              for a in chars.T.tolist()]
    assert linalg._orbit_max(best.copy(), n, chars, 4).tolist() == expect
    assert linalg._orbit_max(best.copy(), n, chars, 5).tolist() == expect


def test_split_primes_are_the_largest_below_max_prime():
    assert linalg._split_primes(1, 2) == (P31, 2147483629)
    for n in (2, 12, 512, 1000):
        primes = linalg._split_primes(n, 3)
        assert len(primes) == 3 and list(primes) == sorted(primes, reverse=True)
        assert all(linalg.is_prime(q) and q % n == 1 and 1 << 30 < q < 1 << 31 for q in primes)
        skipped = range(primes[0] + n, 1 << 31, n)
        assert not any(map(linalg.is_prime, skipped))
    # 2^31 - 1 = 2 (2^30 - 1) + 1 is the only candidate for n = 2^30 - 1
    assert linalg._split_primes(2**30 - 1, 2) == (P31,)


def test_rank_by_characters_needs_its_primes():
    # a height of 2^33 asks for two primes, and n = 2^30 - 1 has one
    m = LaurentMatrix(Q, 1, 1, 1, {(0, 0): {(1,): Q.normalize(2**32), (0,): Q.one}})
    assert linalg.rank_by_characters(m, 2**30 - 1) is None
    with pytest.raises(TypeError):
        linalg.rank_by_characters(LaurentMatrix(F3, 1, 1, 1, {}), 2)


def test_rank_by_characters_maxes_over_unit_orbits():
    # z - c, c = w^u mod l for w the order-16 root in F_l, l the one prime
    # the height asks for: character u reads rank 0 modulo l, but its orbit
    # under the units of Z/16 reads 1, the rank at every character over Q
    n = 16
    l = linalg._split_primes(n, 1)[0]
    w = linalg._root_of_unity(n, l)
    c = min(pow(w, u, l) for u in range(1, n, 2))
    m = LaurentMatrix(Q, 1, 1, 1, {(0, 0): {(1,): Q.one, (0,): Q.normalize(-c)}})
    assert linalg._height_primes(linalg._integer_rows(m), 1, 1) == 1
    assert linalg.rank_by_characters(m, n) == n


@pytest.mark.parametrize("n, d", [(1, 1), (4, 1), (6, 2)])
def test_rank_by_characters_takes_every_prime_the_height_asks(n, d, monkeypatch):
    # the constant entry l, the first prime = 1 (mod n), reads rank 0 at
    # every character modulo l alone; its height asks for a second prime,
    # which reads rank 1 everywhere
    first = linalg._split_primes(n, 1)[0]
    primes = []
    stack = linalg._rank_stack_modp
    monkeypatch.setattr(linalg, "_rank_stack_modp", lambda a, p, cpow: primes.extend(
        np.broadcast_to(p, len(a)).tolist()) or stack(a, p, cpow))
    m = LaurentMatrix(Q, d, 1, 1, {(0, 0): {(0,) * d: Q.normalize(first)}})
    assert linalg.rank_by_characters(m, n) == n ** d
    assert list(dict.fromkeys(primes)) == list(linalg._split_primes(n, 2))
    assert linalg.rank_by_characters(LaurentMatrix(Q, d, 2, 3, {}), n) == 0
