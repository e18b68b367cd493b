"""Exact rank computation.

Two matrix flavors:

* ``PlainMatrix`` -- matrices over F_p or Q, stored as three parallel
  lists of rows, columns and values, sorted by (row, col), with no
  duplicates and no zeros; the transports hand it theirs as they are
  (``PlainMatrix.from_sorted``).  ``rank_sparse`` eliminates sparsely,
  each pivot a shortest row in a column of least live count, found from
  buckets of columns keyed by that count instead of by rescanning the
  block; it is the one kernel for Q.  It computes on plain
  Python ints over both fields: residues over F_p, and over Q rows cleared
  to primitive integer vectors and updated fraction-free, which scales
  rows by nonzero constants only and so keeps every pivot of elimination
  over Q itself.  ``rank_plain`` sends every matrix to it.  ``rank_dense``
  is Gaussian elimination on a numpy int64 array, over F_p only;
  ``rank_sparse`` hands it the rest of an F_p elimination once fill-in
  passes SPARSE_FILL_LIMIT of the live block, which is the one way a plain
  rank reaches it.  Its kernel, ``_rank_dense_modp``, is the dense
  eliminator over F_p.

* ``LaurentMatrix`` -- matrices whose entries are Laurent polynomials in d
  commuting variables, i.e. matrices over the rational function field
  k(t_1..t_d).  ``rank_laurent`` certifies the rank on a grid of points when
  the grid is small; else by capped Bareiss elimination
  (``rank_laurent_bareiss``) on small univariate matrices; else
  ``rank_laurent_probabilistic`` evaluates at random points, three per
  prime, and reports the Schwartz-Zippel bound on losing rank.  Both
  evaluations are one scan (``_scan_rank``) of stacks for
  ``_rank_stack_modp``: over F_{p^e}, or over Q modulo each of the primes
  a coefficient-height bound asks for, each point with its own modulus.

``rank_by_characters`` ranks the matrix a Laurent matrix over Q induces on
Q[(Z/n)^d] without building it: the sum over the n^d characters of the
rank at n-th roots of unity, each ranked by ``_rank_stack_modp`` modulo
primes l = 1 (mod n) and certified like the Q grid, by a height bound.

Evaluation can only lower the rank, so the probabilistic answer is a certified
lower bound, certified outright at full rank min(r, s); below that it is
the true rank except with the reported probability.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .errors import UnsupportedOperationError
from .fields import MAX_PRIME, Field, PrimeField, RawScalar, is_prime

Poly = Dict[Tuple[int, ...], RawScalar]

# rank_sparse hands an F_p elimination to rank_dense once a live block of
# two or more rows is more than SPARSE_FILL_LIMIT full.  Measured
# single-threaded on CPython 3.11 / numpy 2.4: on the quotient matrices of
# [z1-1, z2-1] over F_3, rank_sparse is at least as fast as rank_dense from
# 9x18 up (0.09 ms vs 0.11 ms; 6.5 ms vs 64 ms at 1024x2048).  On uniformly
# random F_3 matrices from 64x64 to 256x256, fill swamps the sparse phase
# at density 0.2-0.3, where dense is 1.3-1.5x faster; they are about even
# at density 0.1, and sparse is 1.5-1.9x faster at 0.05.  No size or
# density test picks a kernel up front: on the bench at seed 7, the small
# or dense matrices such a test sent to rank_dense ranked faster through
# rank_sparse, whose fill check densifies the dense ones at once (best of
# 5 each: fp-tables, 27 matrices, 13.6 -> 7.5 ms; q-tables, 89, 18.6 ->
# 8.5 ms).
SPARSE_FILL_LIMIT = 0.5

# rank_laurent ranks on an evaluation grid when K * points * (r * s *
# min(r, s) + GRID_TERM_WEIGHT * terms) * (e + 1)^2 <= GRID_WORK_LIMIT:
# K = 1 over F_{p^e}, over Q (e = 1) the primes, whose points share one
# scan.  A unit took 0.5-2.5 ns (one thread) on the bench's matrices and
# dense entries of up to 804 terms: a grid at the limit costs a few ms.
# Past it, univariate matrices up to BAREISS_MAX_SHAPE square try Bareiss,
# which drops out after BAREISS_WORK_LIMIT term products (~140 ms at
# most).  A stacked grid call holds at most GRID_STACK_CELLS int64 cells.
GRID_WORK_LIMIT = 1 << 22
GRID_TERM_WEIGHT = 16
BAREISS_MAX_SHAPE = 8
BAREISS_WORK_LIMIT = 16384
GRID_STACK_CELLS = 1 << 16

SCHWARTZ_ZIPPEL_MARGIN = 64
PROBABILISTIC_TRIALS = 3

# _find_irreducible draws at most IRREDUCIBLE_SEARCH_LIMIT random candidates,
# IRREDUCIBLE_BATCH (a divisor of it) at a time.  Measured single-threaded
# on CPython 3.11 / numpy 2.4: Rabin's test takes 0.3 ms per batch at
# (p, e) = (1000003, 4), 0.8 ms at (2^31-1, 4) and 4.9 ms at (2^31-1, 16),
# so a search that tests all 512 candidates takes about 20, 50 and 310 ms.
# Every prime p <= 101 with 2 <= e <= 16, and p = 1000003 and 2^31-1 with
# the same e, finds one within 81 candidates (median 5), all 420 searches
# in 0.28 s.  numpy's batched int64 products slow down as the batch grows:
# over the 12 moduli of a laurent-targets round (seed 7) batches of 1, 4,
# 8, 16 and 32 took 10.9, 4.4, 3.0, 3.0 and 3.3 ms.
IRREDUCIBLE_SEARCH_LIMIT = 512
IRREDUCIBLE_BATCH = 8

# _find_irreducible(p, e) for p = 2, 3 and e = 2..16 as the search returns
# it, each polynomial the integer whose base-p digits are its coefficients.
# Laurent ranks take e of about log_p(64 D), so p = 2 and 3 ask for the
# largest e.  One search there (best of 7, one thread) took 0.9-1.2 ms at
# p = 2 with e = 12..15 and 0.2-0.9 ms at every other (p, e) in the table.
RECORDED_MODULI = {
    2: (7, 11, 31, 41, 109, 247, 333, 895, 1329, 2965, 6601, 15881, 22469, 64603,
        121511),
    3: (14, 53, 134, 409, 929, 3485, 12581, 38590, 69127, 239537, 624377, 1769975,
        7468373, 24864643, 66730775),
}


class PlainMatrix:
    """A matrix over F_p or Q, stored as three parallel lists ``rows``,
    ``cols`` and ``vals``: its nonzero entries in increasing (row, col)
    order, each (row, col) once, each value normalized into the field.

    The constructor takes a {(row, col): value} dict, checks, normalizes
    and drops zeros, then sorts once; ``from_sorted`` takes lists that
    already hold to the format.  ``entries`` is a read-only dict view,
    built on each access.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "cols", "vals")

    def __init__(self, field: Field, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix shape must be nonnegative")
        triples = []
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise ValueError(f"entry ({i},{j}) outside a {nrows}x{ncols} matrix")
                v = field.normalize(v)
                if not field.is_zero(v):
                    triples.append((i, j, v))
        # the keys are distinct, so no two values are ever compared
        triples.sort()
        self.field, self.nrows, self.ncols = field, nrows, ncols
        self.rows = [i for i, _, _ in triples]
        self.cols = [j for _, j, _ in triples]
        self.vals = [v for _, _, v in triples]

    @classmethod
    def from_sorted(cls, field: Field, nrows: int, ncols: int, rows, cols, vals) -> "PlainMatrix":
        """A matrix from lists already in the storage format: strictly
        increasing in (row, col), in range, values nonzero and reduced
        into the field.  Nothing is checked."""
        m = cls.__new__(cls)
        m.field, m.nrows, m.ncols = field, nrows, ncols
        m.rows, m.cols, m.vals = rows, cols, vals
        return m

    @property
    def entries(self) -> Mapping[Tuple[int, int], RawScalar]:
        return MappingProxyType(dict(zip(zip(self.rows, self.cols), self.vals)))

    def to_dense(self):
        zero = self.field.zero
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for i, j, v in zip(self.rows, self.cols, self.vals):
            rows[i][j] = v
        return rows

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def transpose(self) -> "PlainMatrix":
        return PlainMatrix(self.field, self.ncols, self.nrows,
                           {(j, i): v for (i, j), v in self.entries.items()})

    def __eq__(self, other):
        return (isinstance(other, PlainMatrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows and self.cols == other.cols
                and self.vals == other.vals)

    def __repr__(self):
        return f"PlainMatrix({self.field!r}, {self.nrows}x{self.ncols}, nnz={self.nnz})"


def _rank_dense_modp(a: np.ndarray, p: int) -> int:
    """Row reduction over F_p; pivot = first nonzero in the column, the
    pivot row scaled to 1 and clearing the rows below.

    int64 is safe: residues are < 2^31, so products stay below 2^62.
    """
    a = np.asarray(a, dtype=np.int64) % p
    nrows = a.shape[0]
    r = 0
    for c in range(a.shape[1]):
        pivot = None
        for i in range(r, nrows):
            if a[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        below = a[r + 1:, c]
        hit = np.nonzero(below)[0]
        if hit.size:
            rows = hit + r + 1
            a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        r += 1
        if r == nrows:
            break
    return r


def _rank_stack_modp(a: np.ndarray, p, cpow: np.ndarray) -> np.ndarray:
    """Ranks over F_{p^e} of a stack of matrices, one per slice.

    ``a`` is P x r x (s*e): in slice k, cell (i, j) is the coefficient
    vector a[k, i, j*e:(j+1)*e] of an element of F_{p^e} = F_p[x]/(f), and
    ``cpow`` is C^0..C^(e-1) for the companion matrix C of f
    (``_companion_powers``; e = 1 is F_p itself).  ``p`` is one int
    modulus for all slices or, at e = 1, an int64 vector of one per slice,
    so slices over different primes share one stack.  One column loop
    serves all slices.  At column c each slice's pivot is its first live
    row not yet a pivot row (a mask, no swaps), and every other such live
    row becomes row_i <- a_rc * row_i - a_ic * row_r: no inverse in
    F_{p^e}, both products e x e multiplication blocks applied by
    ``_matmul_mod``, or over F_p itself elementwise products of residues,
    below 2^62.
    """
    e = cpow.shape[0]
    npts, nrows = a.shape[:2]
    per_slice = isinstance(p, np.ndarray)
    mods = p[:, None, None] if per_slice else p
    a = (np.asarray(a, dtype=np.int64) % mods).reshape(npts, nrows, -1, e)
    slices = np.arange(npts)
    free = np.ones((npts, nrows), dtype=bool)
    ranks = np.zeros(npts, dtype=np.int64)
    for c in range(a.shape[2]):
        live = free & a[:, :, c].any(axis=2)
        has = live.any(axis=1)
        if not has.any():
            continue
        pivot = live.argmax(axis=1)
        free[slices[has], pivot[has]] = False
        live[slices, pivot] = False
        ranks += has
        k, i = np.nonzero(live)
        if k.size:
            rest, prow = a[k, i, c + 1:], a[k, pivot[k], c + 1:]
            if e == 1:
                a[k, i, c + 1:] = (rest * a[k, pivot[k], c][:, None]
                                   - prow * a[k, i, c][:, None]) % (mods[k] if per_slice else p)
            else:
                scale = _multiplication_blocks(a[slices, pivot, c], cpow, p)[k]
                heads = _multiplication_blocks(a[k, i, c], cpow, p)
                a[k, i, c + 1:] = (_matmul_mod(rest, scale.transpose(0, 2, 1), p)
                                   - _matmul_mod(prow, heads.transpose(0, 2, 1), p)) % p
        if not free.any():
            break
    return ranks


def rank_dense(m: PlainMatrix) -> int:
    """Rank over F_p by the numpy int64 kernel.  Over Q it raises TypeError:
    numpy would silently store each Fraction as its truncation."""
    if not isinstance(m.field, PrimeField):
        raise TypeError(f"rank_dense needs a matrix over F_p, not over {m.field!r}")
    if not m.vals:
        return 0
    a = np.zeros((m.nrows, m.ncols), dtype=np.int64)
    a[m.rows, m.cols] = m.vals
    return _rank_dense_modp(a, m.field.p)


def rank_sparse(m: PlainMatrix) -> int:
    """Sparse elimination with column-first pivots, on plain Python ints
    over both fields.

    Each pivot (``_pivot``) lies in a live column of least count, and in
    that column it is a row with the fewest live entries, so a pivot step
    touches few rows and adds little fill.  Columns sit in buckets keyed
    by their live count, and the counts, the buckets, the live nnz and
    the live-column count are updated as elimination adds fill and
    cancels entries; no step rescans the whole block.  Every column the
    pivot row touches leaves its bucket and goes back, at the end, once
    the update has settled it, and the pivot is taken from the newest
    column of its bucket: the columns the last update touched lie on the
    fill front, so the elimination stays local.  On the 2304x4608 F_3
    quotient of [z1-1, z2-1] no pivot row has more than 4 entries; taking
    the oldest column instead lets them grow to 220 and runs 1.6 times
    slower.

    The pivot depends only on the matrix: the row and column structures
    are built in one pass over its lists, in (row, col) order, every bucket
    and column index is an insertion-ordered dict, and updates run in
    that order, so ties break the same way on every run and no hash seed
    enters.  Any nonzero pivot is exact over an exact field, so the rank
    does not depend on the order and no magnitude thresholding is needed.

    Over F_p the pivot row is scaled by the pivot's inverse once, and each
    row it meets is updated as (old - b*v) % p.  Over Q each row is
    cleared on entry to a primitive integer vector (denominators cleared,
    content divided out), and a row meeting the pivot row becomes
    (pv/g)*row - (b/g)*prow, g = gcd(pv, b), divided by its content; as in
    Bareiss's fraction-free elimination, primitive rows keep entries
    bounded by the minors.  Both only multiply rows by nonzero constants,
    so every zero pattern, hence every pivot and the rank, is that of
    elimination over the field itself.  Over F_p, once a live block of two
    or more rows densifies past SPARSE_FILL_LIMIT, the remainder goes to
    ``rank_dense``; over Q the elimination runs to the end.
    """
    field = m.field
    modp = isinstance(field, PrimeField)
    p = field.p if modp else None
    rows: Dict[int, Dict[int, int]] = {}
    cols: Dict[int, Dict[int, None]] = {}
    row_id = None
    for i, j, v in zip(m.rows, m.cols, m.vals):
        if i != row_id:
            row_id = i
            row = rows[i] = {}
        row[j] = v
        col = cols.get(j)
        if col is None:
            cols[j] = {i: None}
        else:
            col[i] = None
    if not modp:
        for row in rows.values():
            lcm = math.lcm(*(v.denominator for v in row.values()))
            for j, v in row.items():
                row[j] = v.numerator * (lcm // v.denominator)
            _divide_content(row)
    col_bins: Dict[int, Dict[int, None]] = {}
    for j, col in cols.items():
        col_bins.setdefault(len(col), {})[j] = None
    nnz = len(m.vals)
    live_cols = len(cols)
    rank = 0
    while rows:
        # a last live row fills its block but is one pivot, not a dense job
        if modp and len(rows) > 1 and nnz > SPARSE_FILL_LIMIT * len(rows) * live_cols:
            return rank + _densify_rank(field, rows)
        pi, pj = _pivot(rows, cols, col_bins)
        # Take every column the pivot row touches out of its bucket; it
        # goes back once the update has settled it.
        prow = rows.pop(pi)
        nnz -= len(prow)
        for j in prow:
            del col_bins[len(cols[j])][j]
            del cols[j][pi]
        pv = prow.pop(pj)
        targets = cols.pop(pj)
        if modp and targets:
            pinv = pow(pv, -1, p)
            for j, v in prow.items():
                prow[j] = v * pinv % p
        live_cols -= 1
        nnz -= len(targets)
        for i2 in targets:
            row2 = rows[i2]
            b = row2.pop(pj)
            if not modp:
                g = math.gcd(pv, b)
                b //= g
                scale = pv // g
                for j in row2:
                    row2[j] *= scale
            for j, v in prow.items():
                new = row2.get(j, 0) - b * v
                if modp:
                    new %= p
                if new:
                    if j not in row2:
                        cols[j][i2] = None
                        nnz += 1
                    row2[j] = new
                elif j in row2:
                    del row2[j]
                    del cols[j][i2]
                    nnz -= 1
            if not row2:
                del rows[i2]
            elif not modp:
                _divide_content(row2)
        for j in prow:
            col = cols[j]
            if col:
                bucket = col_bins.get(len(col))
                if bucket is None:
                    col_bins[len(col)] = {j: None}
                else:
                    bucket[j] = None
            else:
                del cols[j]
                live_cols -= 1
        rank += 1
    return rank


def _divide_content(row: Dict[int, int]) -> None:
    """Divide a nonzero integer row by the gcd of its entries, in place."""
    content = math.gcd(*row.values())
    if content > 1:
        for j, v in row.items():
            row[j] = v // content


def _pivot(rows, cols, col_bins):
    """The pivot (row, col): in the newest column of least live count, the
    first of its rows with the fewest live entries."""
    k = 1
    while not col_bins.get(k):
        k += 1
    j = next(reversed(col_bins[k]))
    if k == 1:
        return next(iter(cols[j])), j
    return min(cols[j], key=lambda i: len(rows[i])), j


def _densify_rank(field, rows) -> int:
    col_ids = sorted({j for r in rows.values() for j in r})
    col_pos = {j: k for k, j in enumerate(col_ids)}
    # the live entries are nonzero residues already: no normalizing pass
    block_rows, block_cols, block_vals = [], [], []
    for ri, i in enumerate(sorted(rows)):
        row = rows[i]
        for j in sorted(row):
            block_rows.append(ri)
            block_cols.append(col_pos[j])
            block_vals.append(row[j])
    return rank_dense(PlainMatrix.from_sorted(field, len(rows), len(col_ids),
                                              block_rows, block_cols, block_vals))


def rank_plain(m: PlainMatrix) -> int:
    """Rank of a plain matrix over F_p or Q, by ``rank_sparse``; over F_p
    its fill check hands a block past SPARSE_FILL_LIMIT to ``rank_dense``."""
    return rank_sparse(m)


# -- Laurent polynomials -------------------------------------------------
#
# A polynomial is a dict from integer exponent tuples to nonzero field
# values; {} is zero.  Exponents may be negative (Laurent).

def poly_add(a: Poly, b: Poly, field: Field) -> Poly:
    out = dict(a)
    for e, v in b.items():
        s = field.add(out.get(e, field.zero), v)
        if field.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def poly_sub(a: Poly, b: Poly, field: Field) -> Poly:
    return poly_add(a, {e: field.neg(v) for e, v in b.items()}, field)


def poly_mul(a: Poly, b: Poly, field: Field) -> Poly:
    if not a or not b:
        return {}
    out: Poly = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = field.add(out.get(e, field.zero), field.mul(va, vb))
            if field.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return out


def poly_monomial_shift(a: Poly, shift: Tuple[int, ...]) -> Poly:
    return {tuple(x + s for x, s in zip(e, shift)): v for e, v in a.items()}


def poly_divexact(num: Poly, den: Poly, field: Field) -> Poly:
    """Exact division of multivariate Laurent polynomials.

    Repeatedly cancels the lex-leading term; requires (and checks) that
    the division leaves no remainder, which the Bareiss identity
    guarantees at its call sites.

    If num = q * den, lex minima add (lex order is compatible with adding
    exponents), and so do the lowest exponents of each variable.  So every
    exponent of q is lex-above lexmin(num) - lexmin(den), and its k-th
    entry is at least min_k(num) - min_k(den).  A quotient exponent that
    breaks either bound proves the division inexact.  The exponents
    produced strictly decrease in lex order, so with every entry bounded
    below the loop ends.
    """
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return {}
    lead_e = max(den)
    lead_v = den[lead_e]
    lead_inv = field.inv(lead_v)
    lex_floor = tuple(map(operator.sub, min(num), min(den)))
    floors = tuple(map(operator.sub, map(min, zip(*num)), map(min, zip(*den))))
    rem = dict(num)
    quot: Poly = {}
    while rem:
        e = max(rem)
        qe = tuple(map(operator.sub, e, lead_e))
        if qe < lex_floor or any(map(operator.lt, qe, floors)):
            raise ArithmeticError("inexact polynomial division")
        qv = field.mul(rem[e], lead_inv)
        quot[qe] = qv
        for de, dv in den.items():
            key = tuple(map(operator.add, de, qe))
            v = field.sub(rem.get(key, field.zero), field.mul(dv, qv))
            if field.is_zero(v):
                rem.pop(key, None)
            else:
                rem[key] = v
        if rem and max(rem) >= e:
            raise ArithmeticError("inexact polynomial division")
    return quot


class LaurentMatrix:
    """A matrix over the Laurent polynomial ring k[t_1^+-1, .., t_d^+-1]."""

    def __init__(self, field: Field, nvars: int, nrows: int, ncols: int, entries=None):
        if nvars < 0 or nrows < 0 or ncols < 0:
            raise ValueError("shape must be nonnegative")
        self.field = field
        self.nvars = nvars
        self.nrows = nrows
        self.ncols = ncols
        self.entries: Dict[Tuple[int, int], Poly] = {}
        if entries:
            for (i, j), poly in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise ValueError(f"entry ({i},{j}) outside a {nrows}x{ncols} matrix")
                clean: Poly = {}
                for e, v in poly.items():
                    e = tuple(e)
                    if len(e) != nvars:
                        raise ValueError(f"exponent {e} has wrong arity")
                    v = field.normalize(v)
                    if not field.is_zero(v):
                        clean[e] = v
                if clean:
                    self.entries[(i, j)] = clean

    def entry(self, i, j) -> Poly:
        return self.entries.get((i, j), {})

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix(self.field, self.nvars, self.ncols, self.nrows,
                             {(j, i): p for (i, j), p in self.entries.items()})

    def __repr__(self):
        return (f"LaurentMatrix({self.field!r}, vars={self.nvars}, "
                f"{self.nrows}x{self.ncols})")


def _clearing_shifts(m: LaurentMatrix):
    """Per row, the exponent of the monomial that divides the row by its
    least monomial: minus the least exponent of each variable over the
    row's terms (0 for an empty row).  The cleared row has nonnegative
    exponents, and each variable reaches 0 in some term."""
    mins = {}
    for (i, _), poly in m.entries.items():
        for exp in poly:
            mins[i] = tuple(map(min, mins.get(i, exp), exp))
    zero = (0,) * m.nvars
    return [tuple(-x for x in mins.get(i, zero)) for i in range(m.nrows)]


def rank_laurent_bareiss(m: LaurentMatrix, *, _work_limit=None) -> Optional[int]:
    """Certified rank over k(t_1..t_d) by fraction-free elimination.

    Each row is first divided by its least monomial (units do not change
    rank), which leaves no negative exponent.  The one-step Bareiss
    recurrence then keeps every entry a minor of the cleared matrix, so the
    division by the previous pivot is exact; pivotless columns are skipped
    and rows swapped to the first nonzero candidate.  ``rank_laurent`` alone
    passes ``_work_limit``: None comes back once term products pass it.
    """
    field = m.field
    shifts = _clearing_shifts(m)
    grid = []
    for i in range(m.nrows):
        row = [dict(m.entry(i, j)) for j in range(m.ncols)]
        if any(shifts[i]):
            row = [poly_monomial_shift(p, shifts[i]) for p in row]
        grid.append(row)
    prev: Poly = {(0,) * m.nvars: field.one}
    work = 0
    rank = 0
    pr = 0
    for pc in range(m.ncols):
        pivot = None
        for i in range(pr, m.nrows):
            if grid[i][pc]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != pr:
            grid[pr], grid[pivot] = grid[pivot], grid[pr]
        pv = grid[pr][pc]
        for i in range(pr + 1, m.nrows):
            head = grid[i][pc]
            for j in range(pc + 1, m.ncols):
                num = poly_mul(pv, grid[i][j], field)
                work += len(pv) * len(grid[i][j])
                if head:
                    num = poly_sub(num, poly_mul(head, grid[pr][j], field), field)
                    work += len(head) * len(grid[pr][j])
                work += len(num) * len(prev)
                grid[i][j] = poly_divexact(num, prev, field)
                if _work_limit is not None and work > _work_limit:
                    return None
            grid[i][pc] = {}
        prev = pv
        rank += 1
        pr += 1
        if pr == m.nrows:
            break
    return rank


# -- F_{p^e} as coefficient vectors (internal to the probabilistic engine)
#
# F_{p^e} = F_p[x]/(f) with f = _find_irreducible(p, e), and an element is
# its coefficient vector (constant term first).  Multiplication by b is the
# F_p-linear map whose column l is the vector of b * x^l = C^l b, C the
# companion matrix of f; ``_rank_stack_modp`` applies these e x e blocks to
# whole rows of a stack of matrices over F_{p^e} at each pivot step.

def _prime_factors(n: int):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _matmul_mod(a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """a @ b mod p for residue arrays whose inner dimension n is at most 16;
    ``p`` is one modulus, or a vector of one per entry of a's first axis.

    The plain product is exact while n * (p-1)^2 < 2^63 for the largest p.
    Beyond that (p near 2^31 with e >= 3) ``a`` is split at 2^16, which
    keeps every partial sum below 2^51, so int64 never overflows.
    """
    top = p
    if isinstance(p, np.ndarray):
        top, p = int(p.max()), p.reshape((-1,) + (1,) * (a.ndim - 1))
    if a.shape[-1] * (top - 1) ** 2 < 2**63:
        return a @ b % p
    hi, lo = np.divmod(a, 1 << 16)
    return ((((hi @ b) % p) << 16) + lo @ b) % p


def _companion(f, p: int) -> np.ndarray:
    """Companion matrix of the monic f (coefficients, constant first): the
    matrix of multiplication by x on F_p[x]/(f), so g(C) multiplies by g.
    For a stack of polynomials, one per row of ``f``, a stack of them."""
    f = np.asarray(f, dtype=np.int64)
    e = f.shape[-1] - 1
    c = np.zeros(f.shape[:-1] + (e, e), dtype=np.int64)
    c[..., 1:, :-1] = np.eye(e - 1, dtype=np.int64)
    c[..., :, -1] = -f[..., :e] % p
    return c


@functools.lru_cache(maxsize=None)
def _find_irreducible(p: int, e: int):
    """A monic irreducible of degree e over F_p (coefficients, constant term
    first), the same on every run for a given (p, e).

    The candidates are IRREDUCIBLE_SEARCH_LIMIT random monic polynomials
    from random.Random(f"{p}:{e}"), drawn IRREDUCIBLE_BATCH at a time;
    about one in e is irreducible (von zur Gathen and Gerhard, Modern
    Computer Algebra, ch. 14).  Those with a root at 0, 1 or -1 have a
    linear factor and are skipped; the rest of each batch go to
    ``_rabin_passes``, and the first in order that passes is returned.
    For p = 2 and 3 with e <= 16 that first one is read from
    RECORDED_MODULI instead of searched for.
    """
    if e == 1:
        return [0, 1]
    recorded = RECORDED_MODULI.get(p, ())
    if e - 2 < len(recorded):
        return [recorded[e - 2] // p ** k % p for k in range(e + 1)]
    primes = _prime_factors(e)
    rng = random.Random(f"{p}:{e}")
    signs = (-1) ** np.arange(e + 1)
    for _ in range(IRREDUCIBLE_SEARCH_LIMIT // IRREDUCIBLE_BATCH):
        f = np.array([[rng.randrange(p) for _ in range(e)] + [1]
                      for _ in range(IRREDUCIBLE_BATCH)], dtype=np.int64)
        f = f[(f[:, 0] != 0) & (f.sum(axis=1) % p != 0) & (f @ signs % p != 0)]
        passed = _rabin_passes(f, p, primes)
        if passed.any():
            return f[passed.argmax()].tolist()
    raise UnsupportedOperationError(
        f"no irreducible of degree {e} over F_{p} among "
        f"{IRREDUCIBLE_SEARCH_LIMIT} candidates")


def _rabin_passes(f: np.ndarray, p: int, primes) -> np.ndarray:
    """Rabin's test (Rabin, Probabilistic algorithms in finite fields, SIAM
    J. Comput. 9, 1980) on each row of ``f``, a batch of monic polynomials
    of degree e >= 2 (coefficients, constant term first): f is irreducible
    iff x^(p^e) = x mod f and gcd(x^(p^(e/q)) - x, f) = 1 for every prime
    q | e, given as ``primes``.

    With C the companion matrix of f, C^p multiplies by x^p, so the
    Frobenius matrix, whose column j is x^(pj) mod f (C^(pj) applied to 1),
    maps g to g^p; its powers applied to x give x^(p^k) for k <= e, batched
    matrix-vector products.  Few candidates pass the first condition, and
    only those get ``_coprime``.
    """
    n, e = f.shape[0], f.shape[1] - 1
    c = _companion(f, p)

    def apply(a, v):
        return _matmul_mod(a, v[..., None], p)[..., 0]

    columns = [np.zeros((n, e), dtype=np.int64)]
    columns[0][:, 0] = 1
    c_p = _matrix_powers(c, [p], p)[:, 0]
    for _ in range(e - 1):
        columns.append(apply(c_p, columns[-1]))
    frobenius = np.stack(columns, axis=2)
    x = np.zeros((n, e), dtype=np.int64)
    x[:, 1] = 1
    x_powers = [x]
    for _ in range(e):
        x_powers.append(apply(frobenius, x_powers[-1]))
    passed = (x_powers[e] == x).all(axis=1)
    for k in np.nonzero(passed)[0]:
        passed[k] = all(_coprime((x_powers[e // q][k] - x[k]) % p, f[k], p) for q in primes)
    return passed


def _coprime(h, f, p: int) -> bool:
    """Whether gcd(h, f) = 1 over F_p, by Euclid's algorithm on coefficient
    sequences (constant term first); f is nonzero."""
    a, b = [int(c) for c in f], [int(c) for c in h]
    while True:
        while b and not b[-1]:
            b.pop()
        if not b:
            return len(a) == 1
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            lead = a.pop() * inv % p
            shift = len(a) - len(b) + 1
            for i, c in enumerate(b[:-1]):
                a[shift + i] = (a[shift + i] - lead * c) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a


def _companion_powers(p: int, e: int) -> np.ndarray:
    """C^0, .., C^(e-1) for the companion matrix C of _find_irreducible(p, e),
    stacked into an (e, e, e) array."""
    c = _companion(_find_irreducible(p, e), p)
    powers = [np.eye(e, dtype=np.int64)]
    for _ in range(e - 1):
        powers.append(_matmul_mod(c, powers[-1], p))
    return np.stack(powers)


def _multiplication_blocks(vals: np.ndarray, cpow: np.ndarray, p: int) -> np.ndarray:
    """The e x e matrix of multiplication by each row of ``vals`` (n, e);
    column l of block k is C^l vals[k]."""
    e = cpow.shape[0]
    table = cpow.transpose(2, 1, 0).reshape(e, e * e)
    return _matmul_mod(vals, table, p).reshape(-1, e, e)


def _matrix_powers(a: np.ndarray, exps, p: int) -> np.ndarray:
    """a^n mod p for each n in ``exps`` (nonnegative ints), by binary
    powering shared across the exponents.  ``a`` may be a stack (..., e, e);
    the powers of each matrix come out along a new axis before the last
    two, (..., len(exps), e, e)."""
    e = a.shape[-1]
    out = np.tile(np.eye(e, dtype=np.int64), a.shape[:-2] + (len(exps), 1, 1))
    a = a[..., None, :, :]
    for bit in range(max(exps).bit_length()):
        hit = np.array([n >> bit & 1 for n in exps], dtype=bool)
        out[..., hit, :, :] = _matmul_mod(out[..., hit, :, :], a, p)
        a = _matmul_mod(a, a, p)
    return out


def _random_nonzero(rng: random.Random, p: int, e: int):
    """A random nonzero element of F_{p^e}, as its coefficient vector."""
    if e == 1:
        return [rng.randrange(1, p)]
    while True:
        digits = [rng.randrange(p) for _ in range(e)]
        if any(digits):
            return digits


def _cleared_terms(m: LaurentMatrix, entries, shifts, primes):
    """The terms of ``entries`` (``m``'s or ``_integer_rows``), rows times ``shifts``, for numpy.

    Returns the flat cell index of each nonzero entry and the offset of
    its first term; for each p in ``primes`` the terms' coefficients mod p
    (a column); each term's monomial index, the monomials numbered from 0
    in order of first use; and per variable, the distinct exponents it
    takes with the position of each monomial's among them.
    """
    monos: Dict[Tuple[int, ...], int] = {}
    cells, starts, coeffs, term_monos = [], [], [], []
    for (i, j), poly in entries.items():
        cells.append(i * m.ncols + j)
        starts.append(len(coeffs))
        for exp, v in poly.items():
            mono = tuple(map(operator.add, exp, shifts[i]))
            term_monos.append(monos.setdefault(mono, len(monos)))
            coeffs.append(v)
    per_var = []
    for column in zip(*monos):
        exps = sorted(set(column))
        pos = {n: k for k, n in enumerate(exps)}
        per_var.append((exps, np.array([pos[n] for n in column])))
    return cells, starts, _residues(coeffs, primes), np.array(term_monos), per_var


def _residues(values, primes):
    """For each p in ``primes``, the ints ``values`` mod p as an int64 column.

    Each value is first reduced modulo the product of each block of 32
    primes, then that residue modulo the block's own primes, so a large
    value takes one long division per block instead of one per prime.
    On 121 values of 30,000 bits and 1,001 primes (CPython 3.11, one
    thread) the reductions took 2.18 s one prime at a time and 0.42, 0.35,
    0.32, 0.37 and 0.54 s in blocks of 8, 16, 32, 64 and 128; on 80-bit
    values every block size took the same 0.02 s.
    """
    columns = {}
    for k in range(0, len(primes), 32):
        block = primes[k:k + 32]
        top = math.prod(block)
        reduced = [v % top for v in values]
        for p in block:
            columns[p] = np.array([v % p for v in reduced], dtype=np.int64)[:, None]
    return columns


def _monomial_values(terms, xs: np.ndarray, p, cpow: np.ndarray) -> np.ndarray:
    """The values at a stack of points of F_{p^e} of the monomials of
    ``terms`` (``_cleared_terms``), P x M x e; ``xs`` is d x P x e, point j
    has t_k = xs[k, j].  ``p`` is the modulus, one int or, at e = 1, one
    per point, as ``_rank_stack_modp`` takes it.  Each distinct monomial
    is evaluated once per point, through binary powers of each
    coordinate's multiplication block."""
    term_monos, per_var = terms[3:]
    vals = np.zeros((xs.shape[1], term_monos.max() + 1, cpow.shape[0]), dtype=np.int64)
    vals[..., 0] = 1
    for values, (exps, where) in zip(xs, per_var):
        powers = _matrix_powers(_multiplication_blocks(values, cpow, p), exps, p)
        vals = _matmul_mod(powers[:, where], vals[..., None], p)[..., 0]
    return vals


def _evaluate_stack(m: LaurentMatrix, terms, vals: np.ndarray, p) -> np.ndarray:
    """The matrix of ``terms`` (``_cleared_terms`` of ``m``) at P points
    where its monomials take the values ``vals`` (P x M x e), modulo ``p``
    as ``_rank_stack_modp`` takes it, and in its P x r x (s*e) layout."""
    cells, starts, columns, term_monos, _ = terms
    npts, _, e = vals.shape
    per_point = np.reshape(p, (-1, 1, 1))
    products = vals[:, term_monos]
    products *= np.stack([columns[q] for q in per_point.ravel().tolist()])
    products %= per_point
    out = np.zeros((npts, m.nrows * m.ncols, e), dtype=np.int64)
    out[:, cells] = np.add.reduceat(products, starts, axis=1) % per_point
    return out.reshape(npts, m.nrows, m.ncols * e)


def _scan_rank(m: LaurentMatrix, terms, xs: np.ndarray, p, cpow: np.ndarray,
               step: int) -> int:
    """The largest rank of ``m`` (its ``_cleared_terms``) over the points
    ``xs`` (d x P x e), modulo ``p`` as ``_rank_stack_modp`` takes it:
    stacks of ``step`` points, in order, until a point reaches min(r, s)."""
    rank = 0
    for start in range(0, xs.shape[1], step):
        chunk = slice(start, start + step)
        mods = p[chunk] if isinstance(p, np.ndarray) else p
        vals = _monomial_values(terms, xs[:, chunk], mods, cpow)
        stack = _evaluate_stack(m, terms, vals, mods)
        rank = max(rank, int(_rank_stack_modp(stack, mods, cpow).max()))
        if rank == min(m.nrows, m.ncols):
            break
    return rank


def _integer_rows(m: LaurentMatrix):
    """Over Q: ``m.entries``, each row times the lcm of its denominators, so all ints."""
    lcms = [1] * m.nrows
    for (i, _), poly in m.entries.items():
        lcms[i] = math.lcm(lcms[i], *(v.denominator for v in poly.values()))
    return {(i, j): {exp: v.numerator * (lcms[i] // v.denominator) for exp, v in poly.items()}
            for (i, j), poly in m.entries.items()}


def _height_primes(rows, r: int, s: int) -> int:
    """K = bits(2H) // 30 + 1 for H the product of the min(r, s) largest
    1-norms of the integer ``rows`` (``_integer_rows``; an empty row
    counts 1): K primes above 2^30 multiply past 2H."""
    norms = [0] * r
    for (i, _), poly in rows.items():
        norms[i] += sum(map(abs, poly.values()))
    height = math.prod(sorted((max(n, 1) for n in norms), reverse=True)[:min(r, s)])
    return (2 * height).bit_length() // 30 + 1


@functools.lru_cache(maxsize=64)
def _split_primes(n: int, count: int) -> Tuple[int, ...]:
    """The ``count`` largest primes l = 1 (mod n) in (2^30, MAX_PRIME), or
    all of them if there are fewer; n = 1 takes every prime."""
    top = MAX_PRIME - 1 - (MAX_PRIME - 2) % n
    return tuple(itertools.islice(filter(is_prime, range(top, 1 << 30, -n)), count))


def _powers(w: int, n: int, p: int) -> np.ndarray:
    """w^0, .., w^(n-1) mod p, by doubling."""
    powers = np.ones(1, dtype=np.int64)
    while len(powers) < n:
        powers = np.concatenate([powers, powers * pow(w, len(powers), p) % p])
    return powers[:n]


def _root_of_unity(n: int, p: int) -> int:
    """An element of exact order n in F_p, for n | p - 1."""
    factors = _prime_factors(n)
    for x in itertools.count(2):
        w = pow(x, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in factors):
            return w


def _orbit_max(best: np.ndarray, n: int, chars: np.ndarray, full: int) -> np.ndarray:
    """``best``, one value per character a of (Z/n)^d (the columns of
    ``chars``, d x n^d, in box order) and at most ``full``, maxed over
    each orbit u.a of the units u of Z/n.  Only the characters below
    ``full`` can rise, so only they are updated; a = 0 is its own orbit.

    The first unit u outside the group S reached so far (a mask over Z/n)
    extends it to <S, u>, the union of the cosets u^j S for j below the
    least o with u^o in S.  Once ``best`` is constant on the orbits of S,
    steps with u, u^2, u^4, .. (pointer jumping) max best[a] over u^j a for
    all j < 2^k >= o, so over the orbits of <S, u>.  Each step is one
    gather of at most n^d values: O(n^d) memory and about log2 phi(n) steps.
    """
    low = np.flatnonzero(best[1:] < full) + 1
    if not low.size:
        return best
    shape, low_chars = (n,) * len(chars), chars[:, low]
    units = np.gcd(np.arange(n), n) == 1
    seen = np.zeros(n, dtype=bool)
    group = np.array([1 % n])
    seen[group] = True
    while (left := np.flatnonzero(units & ~seen)).size:
        u = v = int(left[0])
        steps = _powers(u, n, n)
        cosets = 1 + int(seen[steps[1:]].argmax())
        group = (group * steps[:cosets, None] % n).ravel()
        seen[group] = True
        for _ in range((cosets - 1).bit_length()):
            best[low] = np.maximum(best[low], best[np.ravel_multi_index(low_chars * v % n, shape)])
            v = v * v % n
    return best


def rank_by_characters(m: LaurentMatrix, n: int) -> Optional[int]:
    """Over Q, the rank of the matrix that ``m`` induces on Q[(Z/n)^d], d
    = ``m.nvars``: the sum over the n^d characters a of the rank of m at
    x^k -> zeta^(a.k), zeta a primitive n-th root of unity.  None when the
    route does not apply and the induced matrix has to be ranked instead.

    Q[(Z/n)^d] splits into fields Q(zeta_m) by characters (Perlis and
    Walker, Abelian group algebras of finite order, Trans. AMS 68, 1950),
    and the rank rho_a of A(zeta^a) over Q(zeta_m), m the order of a, is
    the same along the orbit u.a of the units u of Z/n (Galois
    conjugation).  The rows are cleared to integers (``_integer_rows``),
    so every rho-minor of A(zeta^a) lies in Z[zeta_m].  The matrix is
    evaluated modulo K primes l = 1 (mod n) in (2^30, 2^31), the largest
    (``_split_primes``), at x^k -> w^((a.k) mod n) for w of exact order n
    in F_l: a table lookup into the powers of w, giving one N x r x s
    stack per prime (N = n^d, chunked by GRID_STACK_CELLS) for
    ``_rank_stack_modp``.  rho_a is the largest rank over the primes and
    the orbit of a (``_orbit_max``), and the rank is the sum of rho_a.

    Certificate.  H is the product of the min(r, s) largest row 1-norms
    and K = bits(2H) // 30 + 1 (``_height_primes``), so prod l > H.  A
    rank modulo l is the rank modulo a prime of Z[zeta_n] above l, so it
    never exceeds rho_a.  Each conjugate of a rho_a-minor mu of A(zeta^a)
    is at most H in absolute value, since |zeta| = 1.  The maps zeta ->
    w^u, u a unit, are all the maps of Z[zeta_n] onto F_l, so if no prime
    and no u gave rank rho_a at u.a, mu would lie in every prime above
    every l, and so in (prod l) Z[zeta_m], since l = 1 (mod m) splits
    completely and is unramified in Q(zeta_m).  Then (prod l)^phi(m)
    divides the norm N(mu), while |N(mu)| <= H^phi(m): mu = 0, a
    contradiction.  So rho_a is exact, with no probabilistic step.

    Falls back (None) when the range holds fewer than K primes l = 1 (mod
    n), or when K * GRID_STACK_CELLS > GRID_WORK_LIMIT (K > 64): each prime
    has its own root of unity and table of its powers, so the primes are
    scanned one by one, and each scan is charged a full stack.  N is not
    charged: the route's cost is linear in N, and on 2 x 2 matrices with
    30- and 300-bit coefficients at N = 512 it took 1.4 and 8.5 ms against
    94 and 1,928 ms for the induced matrix (one thread).
    """
    if isinstance(m.field, PrimeField):
        raise TypeError(f"rank_by_characters ranks over Q, not over {m.field!r}")
    r, s, d = m.nrows, m.ncols, m.nvars
    if not m.entries:
        return 0
    rows = _integer_rows(m)
    count = _height_primes(rows, r, s)
    if count * GRID_STACK_CELLS > GRID_WORK_LIMIT:
        return None
    primes = _split_primes(n, count)
    if len(primes) < count:
        return None
    npts = n ** d
    terms = _cleared_terms(m, rows, [(0,) * d] * r, primes)
    monos = np.stack([np.array([x % n for x in exps])[where] for exps, where in terms[4]])
    chars = np.indices((n,) * d).reshape(d, npts)
    step = max(1, GRID_STACK_CELLS // (r * s + len(terms[3])))
    cpow = np.ones((1, 1, 1), dtype=np.int64)  # F_l itself
    best = np.zeros(npts, dtype=np.int64)
    for p in primes:
        powers = _powers(_root_of_unity(n, p), n, p)
        for start in range(0, npts, step):
            vals = powers[(chars[:, start:start + step].T @ monos) % n]
            stack = _evaluate_stack(m, terms, vals[..., None], p)
            best[start:start + step] = np.maximum(best[start:start + step],
                                                  _rank_stack_modp(stack, p, cpow))
        best = _orbit_max(best, n, chars, min(r, s))
        if (best == min(r, s)).all():
            break
    return int(best.sum())


@dataclass(frozen=True)
class RankReport:
    """Outcome of a Laurent rank computation.

    ``failure_bound`` bounds the probability that the true rank is larger;
    ``certified`` is ``failure_bound == 0``.  It is False exactly when
    randomized evaluation found less than full rank on a matrix whose
    degree bound is not 0.
    """

    rank: int
    certified: bool
    failure_bound: Fraction


def rank_laurent_probabilistic(m: LaurentMatrix, seed: int = 0, *,
                               _shifts=None, _rows=None) -> RankReport:
    """Schwartz-Zippel rank: evaluate at random points, take the max of
    the trials.  Evaluation can only lower the rank, so a trial that
    reaches min(r, s) certifies it.

    Each row is first divided by its least monomial, the monomial whose
    exponent in each variable is the least over the row's terms.  That does
    not change the rank at any point, and it leaves no negative exponent, so
    evaluation needs no inverses.  A row's degree is the largest total
    degree of its cleared terms, and a minor of the cleared matrix has total
    degree at most the sum of its rows' degrees.  So the nonzero minors have
    degree at most D, the sum of the min(r, s) largest row degrees, and a
    uniformly random point of (S^*)^d, S a field, witnesses full generic
    rank except with probability <= D/|S^*| per trial.  D = 0 means every
    row is a constant row times a monomial: the cleared matrix is constant,
    every trial ranks it exactly, and the bound is 0.

    Over F_p the three trials are points of F_{p^e}, e the least degree
    with p^e - 1 >= 64*D.  Over Q each row is scaled by the lcm of its
    denominators (``_integer_rows``), which changes no rank, and the three
    trials are taken modulo each of the K primes l of the Q grid's height
    bound (``_height_primes``), at points of F_l.  Every coefficient of a
    minor is at most H in size and prod l > 2H, so some l leaves a nonzero
    minor nonzero, and each trial modulo that l misses it with probability
    <= D/(l - 1): the bound is (D/(l_min - 1))^3.  All trials are one
    stack, prime by prime, for ``_scan_rank``.  The report is certified
    when the bound is 0: at full rank, or when D = 0.

    ``_shifts`` is ``_clearing_shifts(m)`` and, over Q, ``_rows`` is
    ``_integer_rows(m)`` when the caller has them already.
    """
    r, s = m.nrows, m.ncols
    if r == 0 or s == 0 or not m.entries:
        return RankReport(0, True, Fraction(0))
    shifts = _clearing_shifts(m) if _shifts is None else _shifts
    row_degrees = [0] * r
    for (i, _), poly in m.entries.items():
        row_degrees[i] = max(row_degrees[i], sum(shifts[i]) + max(map(sum, poly)))
    degree_bound = sum(sorted(row_degrees, reverse=True)[:min(r, s)])
    if isinstance(m.field, PrimeField):
        p = m.field.p
        e = next(k for k in itertools.count(1) if p ** k > SCHWARTZ_ZIPPEL_MARGIN * degree_bound)
        if e > 16:
            raise UnsupportedOperationError(
                f"degree bound D={degree_bound} needs trial points in F_{{{p}^{e}}}; extension "
                f"degrees stop at 16, where _matmul_mod's int64 products stay exact")
        entries, primes, mods, sample_size = m.entries, [p], p, p ** e - 1
    else:
        e, entries = 1, _integer_rows(m) if _rows is None else _rows
        primes = _split_primes(1, _height_primes(entries, r, s))
        mods, sample_size = np.repeat(primes, PROBABILISTIC_TRIALS), primes[-1] - 1
    rngs = [random.Random(seed * 1_000_003 + k + 1) for k in range(PROBABILISTIC_TRIALS)]
    points = [[_random_nonzero(rng, p, e) for _ in range(m.nvars)] for p in primes for rng in rngs]
    best = _scan_rank(m, _cleared_terms(m, entries, shifts, primes),
                      np.array(points).reshape(len(points), m.nvars, e).transpose(1, 0, 2),
                      mods, _companion_powers(primes[0], e), len(points))
    bound = Fraction(0) if best == min(r, s) else min(
        Fraction(degree_bound, sample_size) ** PROBABILISTIC_TRIALS, Fraction(1))
    return RankReport(best, bound == 0, bound)


def rank_laurent(m: LaurentMatrix, seed: int = 0) -> RankReport:
    """Rank over k(t_1..t_d), certified on a grid when the grid is small.

    A matrix with one row or one column has rank 1 if it has an entry and
    0 if not: a nonzero Laurent polynomial is a unit of k(t_1..t_d).

    Otherwise each row is divided by its least monomial, and D_k is the sum
    of the min(r, s) largest row degrees in t_k of the cleared matrix, so
    every minor has degree at most D_k in t_k.  Such a polynomial that
    vanishes on a grid S_1 x .. x S_d with |S_k| = D_k + 1 is zero (Alon,
    Combinatorial Nullstellensatz, Combin. Probab. Comput. 8, 1999, Lemma
    2.1), so the largest rank over the grid is the rank, certified.  A
    matrix that is constant once cleared, or has no variables, has a grid
    of one point.  ``_scan_rank`` ranks the points, like the trials, and
    stops once one reaches min(r, s).  Over F_p, S_k holds the digit vectors
    of 0..D_k in the least F_{p^e} with p^e > max D_k.  Over Q, S_k = 0..D_k
    and the integer-cleared rows are taken mod K primes p_i in (2^30,
    2^31), K = bits(2H) // 30 + 1 for H the product of the min(r, s)
    largest row 1-norms (an empty row counts 1), so prod p_i > 2H; the scan
    runs over the (p_i, point) pairs, prime by prime.  A point of rank rho
    mod p_i shows a nonzero integer rho-minor; if none passes rho, each p_i
    divides (Alon over F_{p_i}) every coefficient of every (rho+1)-minor,
    at most H in size, so they are 0 (the small-primes method: von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 5).  The budget
    (GRID_WORK_LIMIT) counts evaluation and elimination at every (prime,
    point) pair.  Past it, univariate matrices up to BAREISS_MAX_SHAPE
    square try capped ``rank_laurent_bareiss``, exact on few terms of high
    degree, and ``rank_laurent_probabilistic`` the rest.
    """
    r, s = m.nrows, m.ncols
    if min(r, s) <= 1 or not m.entries:
        return RankReport(int(bool(m.entries)), True, Fraction(0))
    shifts = _clearing_shifts(m)
    tops = {}
    for (i, _), poly in m.entries.items():
        tops[i] = tuple(map(max, tops.get(i, next(iter(poly))), *poly))
    cleared_tops = [tuple(map(operator.add, top, shifts[i])) for i, top in tops.items()]
    sizes = [1 + sum(sorted(col, reverse=True)[:min(r, s)]) for col in zip(*cleared_tops)]
    largest, npts = max(sizes, default=1), math.prod(sizes)  # d = 0: one point
    modp = isinstance(m.field, PrimeField)
    e = next(k for k in itertools.count(1) if not modp or m.field.p ** k >= largest)
    per_point = r * s * min(r, s) + GRID_TERM_WEIGHT * sum(map(len, m.entries.values()))
    work = npts * per_point * (e + 1) ** 2
    rows, count = None, 1
    if not modp and work <= GRID_WORK_LIMIT:
        rows = _integer_rows(m)
        count = _height_primes(rows, r, s)
    if work * count > GRID_WORK_LIMIT:
        if m.nvars == 1 and max(r, s) <= BAREISS_MAX_SHAPE:
            rank = rank_laurent_bareiss(m, _work_limit=BAREISS_WORK_LIMIT)
            if rank is not None:
                return RankReport(rank, True, Fraction(0))
        return rank_laurent_probabilistic(m, seed, _shifts=shifts, _rows=rows)
    # the budget keeps every D_k < 2^22 < p_i, so 0..D_k stay distinct mod p_i
    primes = [m.field.p] if modp else _split_primes(1, count)
    terms = _cleared_terms(m, m.entries if modp else rows, shifts, primes)
    # cells per point: stack slice, term products and monomial values
    term_monos = terms[3]
    step = max(1, GRID_STACK_CELLS // ((r * s + len(term_monos) + int(term_monos.max() + 1) * e) * e))
    p = primes[0]  # over Q, e = 1 and every digit vector is (j,)
    digits = np.array([[j // p ** l % p for l in range(e)] for j in range(largest)])
    grid = np.indices(sizes).reshape(len(sizes), npts)
    mods = p if modp else np.repeat(primes, npts)
    rank = _scan_rank(m, terms, digits[np.tile(grid, len(primes))], mods,
                      _companion_powers(p, e), step)
    return RankReport(rank, True, Fraction(0))
