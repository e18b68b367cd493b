"""Exact rank computation.

Two matrix flavors:

* ``PlainMatrix`` -- matrices over F_p or Q.  ``rank_dense`` is Gaussian
  elimination (numpy int64 kernel for F_p, Fractions for Q);
  ``rank_sparse`` eliminates in Markowitz min-fill order, finding each
  pivot from buckets of rows and columns keyed by live count instead of
  rescanning the block, and falls back to the dense kernel when fill-in
  passes 50% of the remaining block.  Both kernels serve F_p and Q.

* ``LaurentMatrix`` -- matrices whose entries are Laurent polynomials in d
  commuting variables, i.e. matrices over the rational function field
  k(t_1..t_d).  ``rank_laurent_bareiss`` certifies the rank by
  fraction-free elimination (every division is exact by the Bareiss
  identity, so no rational-function normalization is ever needed).
  ``rank_laurent_probabilistic`` evaluates the variables at random points
  of an extension field F_{p^e} (random integers over Q) large enough that
  the Schwartz-Zippel bound on losing rank is tiny, and reports that bound.

Evaluation can only lose rank, so the probabilistic answer is a certified
lower bound and equals the true rank except with the reported probability.
"""
from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

import numpy as np

from .errors import MismatchError, UnsupportedOperationError
from .fields import Field, PrimeField, RawScalar

Poly = Dict[Tuple[int, ...], RawScalar]

# Crossover between the elimination kernels, measured single-threaded on
# CPython 3.11 / numpy 2.4.  On the quotient matrices of [z1-1, z2-1] over
# F_3, rank_sparse is at least as fast as rank_dense from 16x32 up (0.25 ms
# vs 0.34 ms; 14 ms vs 81 ms at 1024x2048) and slower only on the smallest
# (4x8: 0.16 ms vs 0.07 ms).  On uniformly random F_3 matrices fill swamps
# the sparse phase: dense is 2-2.5x faster at density 0.1-0.3 from 64x64
# to 256x256, and about even at density 0.05.
DENSE_ENTRY_LIMIT = 4096
DENSE_DENSITY_LIMIT = 0.2
SPARSE_FILL_LIMIT = 0.5

# The certified (Bareiss) path is only offered where fraction-free
# coefficient growth stays manageable.
BAREISS_MAX_VARS = 2
BAREISS_MAX_SHAPE = 8

SCHWARTZ_ZIPPEL_MARGIN = 64
PROBABILISTIC_TRIALS = 3


class PlainMatrix:
    """A matrix over F_p or Q with sparse (row, col) -> value storage."""

    def __init__(self, field: Field, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix shape must be nonnegative")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.entries: Dict[Tuple[int, int], RawScalar] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise ValueError(f"entry ({i},{j}) outside a {nrows}x{ncols} matrix")
                v = field.normalize(v)
                if not field.is_zero(v):
                    self.entries[(i, j)] = v

    @classmethod
    def from_dense(cls, field, rows):
        entries = {}
        ncols = len(rows[0]) if rows else 0
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                entries[(i, j)] = v
        return cls(field, len(rows), ncols, entries)

    def to_dense(self):
        zero = self.field.zero
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    @property
    def nnz(self) -> int:
        return len(self.entries)

    @property
    def density(self) -> float:
        cells = self.nrows * self.ncols
        return len(self.entries) / cells if cells else 0.0

    def transpose(self) -> "PlainMatrix":
        return PlainMatrix(self.field, self.ncols, self.nrows,
                           {(j, i): v for (i, j), v in self.entries.items()})

    def matmul(self, other: "PlainMatrix") -> "PlainMatrix":
        if other.field != self.field:
            raise MismatchError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        f = self.field
        by_row: Dict[int, Dict[int, RawScalar]] = {}
        for (i, k), v in other.entries.items():
            by_row.setdefault(i, {})[k] = v
        acc: Dict[Tuple[int, int], RawScalar] = {}
        for (i, j), v in self.entries.items():
            for k, w in by_row.get(j, {}).items():
                key = (i, k)
                acc[key] = f.add(acc.get(key, f.zero), f.mul(v, w))
        return PlainMatrix(self.field, self.nrows, other.ncols, acc)

    def block_diag(self, other: "PlainMatrix") -> "PlainMatrix":
        if other.field != self.field:
            raise MismatchError("field mismatch")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i + self.nrows, j + self.ncols)] = v
        return PlainMatrix(self.field, self.nrows + other.nrows,
                           self.ncols + other.ncols, entries)

    def __eq__(self, other):
        return (isinstance(other, PlainMatrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.entries == other.entries)

    def __repr__(self):
        return f"PlainMatrix({self.field!r}, {self.nrows}x{self.ncols}, nnz={self.nnz})"


def _rank_dense_modp(a: np.ndarray, p: int) -> int:
    """Row reduction over F_p; pivot = first nonzero in the column.

    int64 is safe: residues are < 2^31, so products stay below 2^62.
    """
    a = np.asarray(a, dtype=np.int64) % p
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
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


def _rank_dense_fraction(rows) -> int:
    """Row reduction over Q; pivot = largest magnitude in the column."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        pivot, best = None, None
        for i in range(r, nrows):
            v = rows[i][c]
            if v != 0 and (best is None or abs(v) > best):
                pivot, best = i, abs(v)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        for i in range(r + 1, nrows):
            v = rows[i][c]
            if v != 0:
                f = v / pv
                ri, rr = rows[i], rows[r]
                for j in range(c, ncols):
                    ri[j] -= f * rr[j]
        r += 1
        if r == nrows:
            break
    return r


def _rank_dense_generic(rows, add, mul, neg, inv, is_zero) -> int:
    """Row reduction with caller-supplied field operations."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if not is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pinv = inv(rows[r][c])
        rows[r] = [mul(pinv, v) for v in rows[r]]
        for i in range(r + 1, nrows):
            v = rows[i][c]
            if not is_zero(v):
                nv = neg(v)
                rows[i] = [add(a, mul(nv, b)) for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return r


def rank_dense(m: PlainMatrix) -> int:
    if m.nrows == 0 or m.ncols == 0 or not m.entries:
        return 0
    if isinstance(m.field, PrimeField):
        a = np.zeros((m.nrows, m.ncols), dtype=np.int64)
        for (i, j), v in m.entries.items():
            a[i, j] = v
        return _rank_dense_modp(a, m.field.p)
    return _rank_dense_fraction(m.to_dense())


def rank_sparse(m: PlainMatrix) -> int:
    """Markowitz-ordered elimination with a bucketed pivot search.

    Each pivot minimizes (nnz(row)-1)*(nnz(col)-1) over the live block.
    Rows and columns sit in buckets keyed by their live count, and the
    counts, the buckets, the live nnz and the live-column count are
    updated as elimination adds fill and cancels entries; no step rescans
    the whole block.  ``_markowitz_pivot`` walks the buckets in increasing
    count and stops once no unscanned entry can cost less than the best
    one found.

    The pivot depends only on the matrix: the row and column structures
    are built from the entries in sorted (row, col) order, every bucket
    and column index is an insertion-ordered dict, and updates run in
    that order, so ties break the same way on every run and no hash seed
    enters.  Any nonzero pivot is exact over an exact field, so the rank
    does not depend on the order and no magnitude thresholding is needed.
    When the live block densifies past SPARSE_FILL_LIMIT, the remainder
    goes to the dense kernel.
    """
    field = m.field
    zero, sub, mul, is_zero = field.zero, field.sub, field.mul, field.is_zero
    rows: Dict[int, Dict[int, RawScalar]] = {}
    cols: Dict[int, Dict[int, None]] = {}
    for (i, j), v in sorted(m.entries.items()):
        rows.setdefault(i, {})[j] = v
        cols.setdefault(j, {})[i] = None
    row_bins: Dict[int, Dict[int, None]] = {}
    col_bins: Dict[int, Dict[int, None]] = {}
    for i, row in rows.items():
        row_bins.setdefault(len(row), {})[i] = None
    for j, col in cols.items():
        col_bins.setdefault(len(col), {})[j] = None
    nnz = len(m.entries)
    live_cols = len(cols)
    rank = 0
    while rows:
        if nnz > SPARSE_FILL_LIMIT * len(rows) * live_cols:
            return rank + _densify_rank(field, rows)
        pi, pj = _markowitz_pivot(rows, cols, row_bins, col_bins)
        # Take the pivot row and every column it touches out of their
        # buckets; the columns go back once the update has settled them.
        prow = rows.pop(pi)
        del row_bins[len(prow)][pi]
        nnz -= len(prow)
        for j in prow:
            del col_bins[len(cols[j])][j]
            del cols[j][pi]
        pinv = field.inv(prow.pop(pj))
        targets = cols.pop(pj)
        live_cols -= 1
        nnz -= len(targets)
        for i2 in targets:
            row2 = rows[i2]
            del row_bins[len(row2)][i2]
            f = mul(row2.pop(pj), pinv)
            for j, v in prow.items():
                new = sub(row2.get(j, zero), mul(f, v))
                if is_zero(new):
                    if j in row2:
                        del row2[j]
                        del cols[j][i2]
                        nnz -= 1
                else:
                    if j not in row2:
                        cols[j][i2] = None
                        nnz += 1
                    row2[j] = new
            if row2:
                row_bins.setdefault(len(row2), {})[i2] = None
            else:
                del rows[i2]
        for j in prow:
            col = cols[j]
            if col:
                col_bins.setdefault(len(col), {})[j] = None
            else:
                del cols[j]
                live_cols -= 1
        rank += 1
    return rank


def _markowitz_pivot(rows, cols, row_bins, col_bins):
    """The first entry of least Markowitz cost in bucket search order.

    Alternates between the column bucket of count ``kc`` and the row
    bucket of count ``kr``, starting from the least live counts.  Once the
    columns of count below ``kc`` and the rows of count below ``kr`` are
    scanned, every unscanned entry lies in a column of count >= kc and a
    row of count >= kr, so it costs at least (kc-1)*(kr-1); the search
    stops as soon as the best cost found is no more than that.

    Each bucket is scanned newest first.  The rows and columns the last
    update touched lie on the fill front, so the elimination stays local;
    on the 2304x4608 F_3 quotient of [z1-1, z2-1], oldest-first order
    lets rows grow to 84 entries and runs about nine times slower.
    """
    kr = kc = 1
    while not row_bins.get(kr):
        kr += 1
    while not col_bins.get(kc):
        kc += 1
    best, best_cost = None, float("inf")
    while True:
        for j in reversed(col_bins.get(kc, {})):
            for i in cols[j]:
                cost = (len(rows[i]) - 1) * (kc - 1)
                if cost < best_cost:
                    best, best_cost = (i, j), cost
            if best_cost <= (kc - 1) * (kr - 1):
                return best
        kc += 1
        if best_cost <= (kc - 1) * (kr - 1):
            return best
        for i in reversed(row_bins.get(kr, {})):
            for j in rows[i]:
                cost = (kr - 1) * (len(cols[j]) - 1)
                if cost < best_cost:
                    best, best_cost = (i, j), cost
            if best_cost <= (kc - 1) * (kr - 1):
                return best
        kr += 1
        if best_cost <= (kc - 1) * (kr - 1):
            return best


def _densify_rank(field, rows) -> int:
    row_ids = sorted(rows)
    col_ids = sorted({j for r in rows.values() for j in r})
    col_pos = {j: k for k, j in enumerate(col_ids)}
    entries = {(ri, col_pos[j]): v
               for ri, i in enumerate(row_ids) for j, v in rows[i].items()}
    return rank_dense(PlainMatrix(field, len(row_ids), len(col_ids), entries))


def rank_plain(m: PlainMatrix, alg: str = "auto") -> int:
    """Rank dispatcher for plain matrices.

    ``auto`` uses the dense kernel for small or dense matrices and
    Markowitz elimination otherwise; ``bareiss``/``prob`` are Laurent-only
    algorithms and fall back to ``auto`` here.
    """
    if alg == "dense":
        return rank_dense(m)
    if alg == "sparse":
        return rank_sparse(m)
    if m.nrows * m.ncols <= DENSE_ENTRY_LIMIT or m.density > DENSE_DENSITY_LIMIT:
        return rank_dense(m)
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


def poly_neg(a: Poly, field: Field) -> Poly:
    return {e: field.neg(v) for e, v in a.items()}


def poly_sub(a: Poly, b: Poly, field: Field) -> Poly:
    return poly_add(a, poly_neg(b, field), field)


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


def poly_total_degree(a: Poly) -> int:
    """Max over terms of the sum of absolute exponents (0 for zero)."""
    return max((sum(abs(x) for x in e) for e in a), default=0)


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

    def max_entry_degree(self) -> int:
        return max((poly_total_degree(p) for p in self.entries.values()), default=0)

    def __repr__(self):
        return (f"LaurentMatrix({self.field!r}, vars={self.nvars}, "
                f"{self.nrows}x{self.ncols})")


def rank_laurent_bareiss(m: LaurentMatrix) -> int:
    """Certified rank over k(t_1..t_d) by fraction-free elimination.

    Each row is first scaled by a monomial clearing negative exponents
    (units do not change rank).  The one-step Bareiss recurrence then
    keeps every entry a minor of the cleared matrix, so the division by
    the previous pivot is exact; columns with no pivot are skipped, rows
    are swapped to the first nonzero candidate.
    """
    field = m.field
    grid = []
    for i in range(m.nrows):
        row = [dict(m.entry(i, j)) for j in range(m.ncols)]
        mins = [0] * m.nvars
        for poly in row:
            for e in poly:
                for v, x in enumerate(e):
                    mins[v] = min(mins[v], x)
        shift = tuple(-s for s in mins)
        if any(shift):
            row = [poly_monomial_shift(p, shift) for p in row]
        grid.append(row)
    prev: Poly = {(0,) * m.nvars: field.one}
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
            if head:
                for j in range(pc + 1, m.ncols):
                    num = poly_sub(poly_mul(pv, grid[i][j], field),
                                   poly_mul(head, grid[pr][j], field), field)
                    grid[i][j] = poly_divexact(num, prev, field)
                grid[i][pc] = {}
            else:
                for j in range(pc + 1, m.ncols):
                    grid[i][j] = poly_divexact(poly_mul(pv, grid[i][j], field),
                                               prev, field)
        prev = pv
        rank += 1
        pr += 1
        if pr == m.nrows:
            break
    return rank


# -- extension fields (internal to the probabilistic engine) -------------

class ExtensionField:
    """F_{p^e} = F_p[x]/(f), f the first monic irreducible in lex order.

    Elements are coefficient tuples of length e (constant term first).
    Only the probabilistic rank engine uses this; extension fields are not
    a user-facing coefficient field.
    """

    def __init__(self, p: int, e: int):
        self.p = p
        self.e = e
        self.order = p ** e
        self.modulus = _find_irreducible(p, e)
        self.zero = (0,) * e
        self.one = (1,) + (0,) * (e - 1)

    def from_int(self, n: int):
        return (n % self.p,) + (0,) * (self.e - 1)

    def is_zero(self, a) -> bool:
        return not any(a)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        red = _polymod(prod, self.modulus, p)
        return tuple(red + [0] * (e - len(red)))

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("division by zero")
        inv = _poly_inverse_mod(list(a), self.modulus, self.p)
        return tuple(inv + [0] * (self.e - len(inv)))

    def pow(self, a, n: int):
        if n < 0:
            return self.pow(self.inv(a), -n)
        out = self.one
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def random_nonzero(self, rng: random.Random):
        while True:
            a = tuple(rng.randrange(self.p) for _ in range(self.e))
            if any(a):
                return a


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _polymod(a, mod, p):
    a = [x % p for x in a]
    dm = len(mod) - 1
    lead_inv = pow(mod[-1], -1, p)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            f = c * lead_inv % p
            for k in range(dm + 1):
                a[i - dm + k] = (a[i - dm + k] - f * mod[k]) % p
    del a[dm:]
    return a


def _polymulmod(a, b, mod, p):
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    return _polymod(prod, mod, p) if prod else []


def _polypowmod(a, n, mod, p):
    out = [1]
    base = list(a)
    while n:
        if n & 1:
            out = _polymulmod(out, base, mod, p)
        base = _polymulmod(base, base, mod, p)
        n >>= 1
    return out


def _polygcd(a, b, p):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_divmod_rem(a, b, p)
    return a


def _poly_divmod_rem(a, b, p):
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            f = c * inv % p
            for k in range(db + 1):
                a[i - db + k] = (a[i - db + k] - f * b[k]) % p
    return _poly_trim(a[:db])


def _poly_inverse_mod(a, mod, p):
    # extended Euclid in F_p[x]
    r0, r1 = list(mod), _poly_trim(list(a))
    t0, t1 = [], [1]
    while r1:
        q, rem = _poly_divmod_full(r0, r1, p)
        r0, r1 = r1, rem
        t0, t1 = t1, _poly_trim([(x - y) % p for x, y in
                                 itertools.zip_longest(t0, _polymul_plain(q, t1, p), fillvalue=0)])
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible")
    c = pow(r0[0], -1, p)
    return [x * c % p for x in t0]


def _polymul_plain(a, b, p):
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    return prod


def _poly_divmod_full(a, b, p):
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(1, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            f = c * inv % p
            q[i - db] = f
            for k in range(db + 1):
                a[i - db + k] = (a[i - db + k] - f * b[k]) % p
    return _poly_trim(q), _poly_trim(a[:db])


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


@functools.lru_cache(maxsize=None)
def _find_irreducible(p: int, e: int):
    """First monic irreducible of degree e over F_p, in lex order of the
    coefficient tuple (constant term varies fastest).  Deterministic, so a
    given (p, e) always yields the same extension field."""
    if e == 1:
        return [0, 1]
    factors = _prime_factors(e)
    for k in range(p ** e):
        coeffs = []
        kk = k
        for _ in range(e):
            coeffs.append(kk % p)
            kk //= p
        f = coeffs + [1]
        x = [0, 1]
        # f irreducible iff x^(p^e) == x mod f and gcd(x^(p^(e/q)) - x, f) = 1
        frob = x
        powers = {}
        for step in range(1, e + 1):
            frob = _polypowmod(frob, p, f, p)
            powers[step] = frob
        end = _poly_trim([(a - b) % p for a, b in
                          itertools.zip_longest(powers[e], x, fillvalue=0)])
        if end:
            continue
        ok = True
        for q in factors:
            diff = _poly_trim([(a - b) % p for a, b in
                               itertools.zip_longest(powers[e // q], x, fillvalue=0)])
            if len(_polygcd(f, diff, p)) != 1:
                ok = False
                break
        if ok:
            return f
    raise ArithmeticError(f"no irreducible of degree {e} over F_{p}")


@functools.lru_cache(maxsize=None)
def extension_field(p: int, e: int) -> ExtensionField:
    return ExtensionField(p, e)


@dataclass(frozen=True)
class RankReport:
    """Outcome of a Laurent rank computation.

    ``certified`` is False exactly when the value came from randomized
    evaluation; ``failure_bound`` then bounds the probability that the
    true rank is larger.
    """

    rank: int
    certified: bool
    failure_bound: Fraction

    def to_json(self) -> dict:
        return {"rank": self.rank, "certified": self.certified,
                "failure_bound": f"{self.failure_bound.numerator}/{self.failure_bound.denominator}"}


def rank_laurent_probabilistic(m: LaurentMatrix, seed: int = 0) -> RankReport:
    """Schwartz-Zippel rank: evaluate at random points, take the max of
    three trials.

    The nonzero minors have total degree at most D = min(r,s) * maxdeg, so
    a uniformly random point from a sample space of size >= 64*D witnesses
    full generic rank except with probability <= D/|space| per trial.
    """
    r, s = m.nrows, m.ncols
    if r == 0 or s == 0 or not m.entries:
        return RankReport(0, True, Fraction(0))
    degree_bound = min(r, s) * m.max_entry_degree()
    if degree_bound == 0:
        # constant matrix: evaluation is the matrix itself
        const = PlainMatrix(m.field, r, s,
                            {k: next(iter(p.values())) for k, p in m.entries.items()})
        return RankReport(rank_dense(const), True, Fraction(0))
    target = SCHWARTZ_ZIPPEL_MARGIN * degree_bound
    best = 0
    if isinstance(m.field, PrimeField):
        p = m.field.p
        e = 1
        while p ** e - 1 < target:
            e += 1
        if e > 16:
            raise UnsupportedOperationError(
                f"extension degree {e} beyond the supported table (p={p})")
        sample_size = p ** e - 1
        if e == 1:
            for trial in range(PROBABILISTIC_TRIALS):
                rng = random.Random(seed * 1_000_003 + trial + 1)
                point = [rng.randrange(1, p) for _ in range(m.nvars)]
                a = np.zeros((r, s), dtype=np.int64)
                for (i, j), poly in m.entries.items():
                    total = 0
                    for exp, v in poly.items():
                        term = v
                        for x, ee in zip(point, exp):
                            # pow handles negative exponents via the
                            # modular inverse
                            term = term * pow(x, ee, p) % p
                        total = (total + term) % p
                    a[i, j] = total
                best = max(best, _rank_dense_modp(a, p))
        else:
            ext = extension_field(p, e)
            for trial in range(PROBABILISTIC_TRIALS):
                rng = random.Random(seed * 1_000_003 + trial + 1)
                point = [ext.random_nonzero(rng) for _ in range(m.nvars)]
                rows = [[ext.zero] * s for _ in range(r)]
                for (i, j), poly in m.entries.items():
                    total = ext.zero
                    for exp, v in poly.items():
                        term = ext.from_int(v)
                        for x, ee in zip(point, exp):
                            if ee:
                                term = ext.mul(term, ext.pow(x, ee))
                        total = ext.add(total, term)
                    rows[i][j] = total
                best = max(best, _rank_dense_generic(
                    rows, ext.add, ext.mul, ext.neg, ext.inv, ext.is_zero))
    else:
        sample_size = target
        for trial in range(PROBABILISTIC_TRIALS):
            rng = random.Random(seed * 1_000_003 + trial + 1)
            point = [Fraction(rng.randrange(1, target + 1)) for _ in range(m.nvars)]
            rows = [[Fraction(0)] * s for _ in range(r)]
            for (i, j), poly in m.entries.items():
                total = Fraction(0)
                for exp, v in poly.items():
                    term = Fraction(v)
                    for x, ee in zip(point, exp):
                        term *= x ** ee
                    total += term
                rows[i][j] = total
            best = max(best, _rank_dense_fraction(rows))
    bound = Fraction(degree_bound, sample_size) ** PROBABILISTIC_TRIALS
    return RankReport(best, False, min(bound, Fraction(1)))


def rank_laurent(m: LaurentMatrix, alg: str = "auto", seed: int = 0) -> RankReport:
    """Laurent rank dispatcher.

    ``auto`` certifies with Bareiss for univariate matrices up to 8x8 and
    falls back to randomized evaluation beyond that (fraction-free
    coefficient growth is severe in two or more variables).  ``bareiss``
    forces certification but is only offered up to 2 variables and 8x8.
    """
    shape = max(m.nrows, m.ncols)
    if alg in ("auto", "dense", "sparse"):
        if m.nvars <= 1 and shape <= BAREISS_MAX_SHAPE:
            return RankReport(rank_laurent_bareiss(m), True, Fraction(0))
        return rank_laurent_probabilistic(m, seed)
    if alg == "bareiss":
        if m.nvars > BAREISS_MAX_VARS or shape > BAREISS_MAX_SHAPE:
            raise UnsupportedOperationError(
                f"certified rank supports at most {BAREISS_MAX_VARS} variables and "
                f"{BAREISS_MAX_SHAPE}x{BAREISS_MAX_SHAPE} shapes; "
                f"got {m.nvars} variables, {m.nrows}x{m.ncols}")
        return RankReport(rank_laurent_bareiss(m), True, Fraction(0))
    if alg == "prob":
        return rank_laurent_probabilistic(m, seed)
    raise ValueError(f"unknown rank algorithm {alg!r}")
