"""Exact rank computation.

Two matrix flavors:

* ``PlainMatrix`` -- matrices over F_p or Q.  ``rank_sparse`` eliminates
  in Markowitz min-fill order, finding each pivot from buckets of rows and
  columns keyed by live count instead of rescanning the block; it is the
  one kernel for Q.  It computes on plain Python ints over both fields:
  residues over F_p, and over Q rows cleared to primitive integer vectors
  and updated fraction-free, which scales rows by nonzero constants only
  and so keeps every pivot of elimination over Q itself.  ``rank_dense``
  is Gaussian elimination on a numpy int64 array, over F_p only:
  ``rank_plain`` sends small or dense F_p matrices to it, and
  ``rank_sparse`` hands it the rest of an F_p elimination once fill-in
  passes 50% of the remaining block.  Its kernel, ``_rank_dense_modp``,
  is the one dense eliminator, over F_p and F_{p^e}.

* ``LaurentMatrix`` -- matrices whose entries are Laurent polynomials in d
  commuting variables, i.e. matrices over the rational function field
  k(t_1..t_d).  ``rank_laurent_bareiss`` certifies the rank by
  fraction-free elimination (every division is exact by the Bareiss
  identity, so no rational-function normalization is ever needed).
  ``rank_laurent_probabilistic`` evaluates the variables at random points
  of an extension field F_{p^e} (random integers over Q) large enough that
  the Schwartz-Zippel bound on losing rank is tiny, and reports that bound.
  Over F_p each trial is ranked over F_{p^e} in place by the dense kernel,
  each entry a coefficient vector over F_p and each pivot step a
  fraction-free update through e x e multiplication blocks.
  ``rank_laurent`` picks between them.

Evaluation can only lose rank, so the probabilistic answer is a certified
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
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import UnsupportedOperationError
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

# rank_laurent tries Bareiss on univariate matrices up to 8x8 and drops it
# once its term products (len(a)*len(b) per poly_mul, len(num)*len(den) per
# poly_divexact) pass BAREISS_WORK_LIMIT.  The 1,710 Bareiss calls of bench
# seeds 1-30 peak at 5,637; dense 8x8 ones with exponents in [-5, 5] need
# 9,456 to 1,132,533 and take seconds over Q.  At about 2 us per product
# over F_p and 8 us over Q (one thread) a dropped attempt costs <= 140 ms.
BAREISS_MAX_SHAPE = 8
BAREISS_WORK_LIMIT = 16384

SCHWARTZ_ZIPPEL_MARGIN = 64
PROBABILISTIC_TRIALS = 3

# Candidates _find_irreducible tests in lex order, then as many at random.
# Rabin's test takes 1.5 ms per candidate at (p, e) = (1000003, 4) and 4.1 ms
# at (2^31-1, 4), one thread.  For p <= 101, e <= 16 lex order finds one
# within 218 candidates except at (89, 9), (89, 12), (89, 13), (73, 13),
# (43, 15) and (43, 16), which it reaches at 269 to 605.
IRREDUCIBLE_SEARCH_LIMIT = 256

# A trial over Q raises integers up to 64*D to each exponent of the
# row-cleared terms: its largest power has about top * bit_length(64*D)
# bits, top the largest row degree (total degree of a cleared term).  On
# [x^n + y] (top = n) the trials took 0.15 s at 1.03e6 bits (n = 47,000),
# 0.53 s at 2.3e6 and 3.4 s at 7.5e6, one thread; bench Q matrices stay
# under 100 bits.
Q_POWER_BITS_LIMIT = 1 << 20


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

    def to_dense(self):
        zero = self.field.zero
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def transpose(self) -> "PlainMatrix":
        return PlainMatrix(self.field, self.ncols, self.nrows,
                           {(j, i): v for (i, j), v in self.entries.items()})

    def __eq__(self, other):
        return (isinstance(other, PlainMatrix) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.entries == other.entries)

    def __repr__(self):
        return f"PlainMatrix({self.field!r}, {self.nrows}x{self.ncols}, nnz={self.nnz})"


def _rank_dense_modp(a: np.ndarray, p: int, cpow: Optional[np.ndarray] = None) -> int:
    """Row reduction over F_{p^e}; pivot = first nonzero in the column.

    ``a`` is r x (s*e): cell (i, j) is the coefficient vector
    a[i, j*e:(j+1)*e] of an element of F_{p^e} = F_p[x]/(f), and ``cpow``
    is C^0..C^(e-1) for the companion matrix C of f (``_companion_powers``).
    Without ``cpow``, e = 1: each pivot row is scaled to 1 and clears the
    rows below.  For e > 1 each step is fraction-free,
    row_i <- a_rc * row_i - a_ic * row_r, so no inverse in F_{p^e} is
    needed; both products are e x e multiplication blocks applied by
    ``_matmul_mod``, and the loop runs once per column of the r x s matrix.

    int64 is safe: residues are < 2^31, so products stay below 2^62.
    """
    e = 1 if cpow is None else cpow.shape[0]
    a = np.asarray(a, dtype=np.int64) % p
    nrows = a.shape[0]
    if e > 1:
        a = a.reshape(nrows, a.shape[1] // e, e)
    r = 0
    for c in range(a.shape[1]):
        if e == 1:
            pivot = None
            for i in range(r, nrows):
                if a[i, c]:
                    pivot = i
                    break
            if pivot is None:
                continue
        else:
            live = np.flatnonzero(a[r:, c].any(axis=1))
            if not live.size:
                continue
            pivot = r + live[0]
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        if e == 1:
            a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
            below = a[r + 1:, c]
            hit = np.nonzero(below)[0]
            if hit.size:
                rows = hit + r + 1
                a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % p
        elif live.size > 1:
            # live[0] was the pivot; a row swapped into its slot was zero in
            # column c, so r + live[1:] are the other live rows
            rows = r + live[1:]
            tail = a[rows, c + 1:]
            scale = _multiplication_blocks(a[r, c][None], cpow, p)[0]
            heads = _multiplication_blocks(a[rows, c], cpow, p)
            a[rows, c + 1:] = (
                _matmul_mod(tail, scale.T, p)
                - _matmul_mod(a[r, c + 1:], heads.transpose(0, 2, 1), p)) % p
        r += 1
        if r == nrows:
            break
    return r


def rank_dense(m: PlainMatrix) -> int:
    """Rank over F_p by the numpy int64 kernel.  Over Q it raises TypeError:
    numpy would silently store each Fraction as its truncation."""
    if not isinstance(m.field, PrimeField):
        raise TypeError(f"rank_dense needs a matrix over F_p, not over {m.field!r}")
    if not m.entries:
        return 0
    a = np.zeros((m.nrows, m.ncols), dtype=np.int64)
    for (i, j), v in m.entries.items():
        a[i, j] = v
    return _rank_dense_modp(a, m.field.p)


def rank_sparse(m: PlainMatrix) -> int:
    """Markowitz-ordered elimination with a bucketed pivot search, on
    plain Python ints over both fields.

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

    Over F_p the pivot row is scaled by the pivot's inverse once, and each
    row it meets is updated as (old - b*v) % p.  Over Q each row is
    cleared on entry to a primitive integer vector (denominators cleared,
    content divided out), and a row meeting the pivot row becomes
    (pv/g)*row - (b/g)*prow, g = gcd(pv, b), divided by its content; as in
    Bareiss's fraction-free elimination, primitive rows keep entries
    bounded by the minors.  Both only multiply rows by nonzero constants,
    so every zero pattern, hence every pivot and the rank, is that of
    elimination over the field itself.  Over F_p, once the live block
    densifies past SPARSE_FILL_LIMIT, the remainder goes to ``rank_dense``;
    over Q the elimination runs to the end.
    """
    field = m.field
    modp = isinstance(field, PrimeField)
    rows: Dict[int, Dict[int, int]] = {}
    cols: Dict[int, Dict[int, None]] = {}
    for (i, j), v in sorted(m.entries.items()):
        rows.setdefault(i, {})[j] = v
        cols.setdefault(j, {})[i] = None
    if not modp:
        for row in rows.values():
            lcm = math.lcm(*(v.denominator for v in row.values()))
            for j, v in row.items():
                row[j] = v.numerator * (lcm // v.denominator)
            _divide_content(row)
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
        if modp and nnz > SPARSE_FILL_LIMIT * len(rows) * live_cols:
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
        pv = prow.pop(pj)
        if modp:
            p = field.p
            pinv = pow(pv, -1, p)
            for j, v in prow.items():
                prow[j] = v * pinv % p
        targets = cols.pop(pj)
        live_cols -= 1
        nnz -= len(targets)
        for i2 in targets:
            row2 = rows[i2]
            del row_bins[len(row2)][i2]
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
            if row2:
                if not modp:
                    _divide_content(row2)
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


def _divide_content(row: Dict[int, int]) -> None:
    """Divide a nonzero integer row by the gcd of its entries, in place."""
    content = math.gcd(*row.values())
    if content > 1:
        for j, v in row.items():
            row[j] = v // content


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


def rank_plain(m: PlainMatrix) -> int:
    """Rank of a plain matrix: ``rank_dense`` for small or dense matrices
    over F_p, ``rank_sparse`` for every other one, and so for all of Q."""
    if isinstance(m.field, PrimeField) and (
            m.nrows * m.ncols <= DENSE_ENTRY_LIMIT
            or m.nnz > DENSE_DENSITY_LIMIT * m.nrows * m.ncols):
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
    recurrence then keeps every entry a minor of the cleared matrix, so
    the division by the previous pivot is exact; columns with no pivot are skipped, rows
    are swapped to the first nonzero candidate.  ``rank_laurent`` alone
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
# companion matrix of f; ``_rank_dense_modp`` applies these e x e blocks to
# whole rows of a matrix over F_{p^e} at each pivot step.

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


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residue arrays whose inner dimension n is at most 16.

    The plain product is exact while n * (p-1)^2 < 2^63.  Beyond that
    (p near 2^31 with e >= 3) ``a`` is split at 2^16, which keeps every
    partial sum below 2^51, so int64 never overflows.
    """
    if a.shape[-1] * (p - 1) ** 2 < 2**63:
        return a @ b % p
    hi, lo = np.divmod(a, 1 << 16)
    return ((((hi @ b) % p) << 16) + lo @ b) % p


def _companion(f, p: int) -> np.ndarray:
    """Companion matrix of the monic f (coefficients, constant first): the
    matrix of multiplication by x on F_p[x]/(f), so g(C) multiplies by g."""
    e = len(f) - 1
    c = np.zeros((e, e), dtype=np.int64)
    c[1:, :-1] = np.eye(e - 1, dtype=np.int64)
    c[:, -1] = [-x % p for x in f[:e]]
    return c


@functools.lru_cache(maxsize=None)
def _find_irreducible(p: int, e: int):
    """A monic irreducible of degree e over F_p (coefficients, constant term
    first), the same on every run for a given (p, e).

    The first IRREDUCIBLE_SEARCH_LIMIT candidates are in lex order of the
    coefficient tuple (constant term varies fastest); as many random monic
    ones, seeded by (p, e), follow.  Lex order alone stalls where a family
    is all reducible, such as every x^4 + c for p = 3 (mod 4); about one
    random candidate in e is irreducible.

    Candidates with a root at 0, 1 or -1 have a linear factor and are
    skipped, and so are the binomials x^e + c where none is irreducible.
    By Capelli's theorem x^e - a is irreducible over F_p iff a is no q-th
    power for every prime q | e, and a is not in -4 F_p^4 when 4 | e.  Every
    a is a q-th power when q does not divide p - 1, and every a that is not
    a square lies in -4 F_p^4 when 4 does not divide p - 1.  Skipped
    candidates still count against the limit, so no (p, e) changes its
    polynomial.  The rest get Rabin's test on the companion matrix C: f is
    irreducible iff C^(p^e) = C and C^(p^(e/q)) - C, the multiplication
    by x^(p^(e/q)) - x, is invertible for every prime q dividing e.
    """
    if e == 1:
        return [0, 1]
    primes = _prime_factors(e)
    no_binomial = (any((p - 1) % q for q in primes)
                   or (e % 4 == 0 and (p - 1) % 4 != 0))
    steps = [e // q for q in primes] + [e]
    rng = random.Random(f"{p}:{e}")
    in_order = ([k // p ** i % p for i in range(e)] + [1]
                for k in range(min(p ** e, IRREDUCIBLE_SEARCH_LIMIT)))
    drawn = ([rng.randrange(p) for _ in range(e)] + [1]
             for _ in range(IRREDUCIBLE_SEARCH_LIMIT))
    for f in itertools.chain(in_order, drawn):
        if (no_binomial and not any(f[1:e])) or any(
                sum(c * a ** i for i, c in enumerate(f)) % p == 0 for a in (0, 1, -1)):
            continue
        c = _companion(f, p)
        frob = _matrix_powers(c, [p ** n for n in steps], p)
        if (frob[-1] == c).all() and all(
                _rank_dense_modp(m - c, p) == e for m in frob[:-1]):
            return f
    raise UnsupportedOperationError(
        f"no irreducible of degree {e} over F_{p} among "
        f"{2 * IRREDUCIBLE_SEARCH_LIMIT} candidates")


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
    powering shared across the exponents."""
    out = np.tile(np.eye(a.shape[0], dtype=np.int64), (len(exps), 1, 1))
    for bit in range(max(exps).bit_length()):
        hit = np.array([n >> bit & 1 for n in exps], dtype=bool)
        out[hit] = _matmul_mod(out[hit], a, p)
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


def _cleared_terms(m: LaurentMatrix, shifts):
    """The terms of ``m`` with each row scaled by its monomial in ``shifts``
    (from ``_clearing_shifts``), laid out for evaluation with numpy.

    Returns the flat cell index of each nonzero entry and the offset of
    its first term; each term's coefficient (a column) and the index of its
    monomial; and per variable, the distinct exponents it takes with the
    position of each monomial's exponent among them.
    """
    monos: Dict[Tuple[int, ...], int] = {}
    cells, starts, coeffs, term_monos = [], [], [], []
    for (i, j), poly in m.entries.items():
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
    return (cells, starts, np.array(coeffs, dtype=np.int64)[:, None],
            np.array(term_monos), per_var)


@dataclass(frozen=True)
class RankReport:
    """Outcome of a Laurent rank computation.

    ``certified`` is False exactly when randomized evaluation found less
    than full rank; ``failure_bound`` then bounds the probability that the
    true rank is larger.
    """

    rank: int
    certified: bool
    failure_bound: Fraction


def rank_laurent_probabilistic(m: LaurentMatrix, seed: int = 0) -> RankReport:
    """Schwartz-Zippel rank: evaluate at random points, take the max of
    three trials.  Evaluation can only lower the rank, so a trial that
    reaches min(r, s) certifies it.

    Each row is first divided by its least monomial, the monomial whose
    exponent in each variable is the least over the row's terms.  That
    does not change the rank at any point, and it leaves no negative
    exponent, so evaluation needs no inverses.  A row's degree is the largest total degree of its
    cleared terms, and a minor of the cleared matrix has total degree at
    most the sum of its rows' degrees.  So the nonzero minors have degree
    at most D, the sum of the min(r, s) largest row degrees, and a
    uniformly random point from a sample space of size >= 64*D witnesses
    full generic rank except with probability <= D/|space| per trial.
    D = 0 means every row is a constant row times a monomial; the cleared
    matrix is then constant and is ranked exactly.

    Over F_p the points lie in F_{p^e}, e the least degree with
    p^e - 1 >= 64*D (e = 1 when p is large enough).  A trial evaluates
    every monomial once, as a coefficient vector over F_p, sums the terms
    of each entry, and hands the r x (s*e) array of entries to the dense
    kernel, which ranks it over F_{p^e}.

    Over Q the points are integers and the powers of the cleared exponents
    exact, so a matrix whose largest such power would pass
    Q_POWER_BITS_LIMIT bits is refused.  Each row is also scaled, once, by
    the lcm of its denominators, a nonzero integer that changes no trial's
    rank; a trial then sums plain ints, which ``rank_sparse`` takes as
    exact rationals.
    """
    r, s = m.nrows, m.ncols
    if r == 0 or s == 0 or not m.entries:
        return RankReport(0, True, Fraction(0))
    shifts = _clearing_shifts(m)
    row_degrees = [0] * r
    for (i, _), poly in m.entries.items():
        row_degrees[i] = max(row_degrees[i], sum(shifts[i]) + max(map(sum, poly)))
    degree_bound = sum(sorted(row_degrees, reverse=True)[:min(r, s)])
    if degree_bound == 0:
        # every cleared row is constant: rank the one-term entries exactly
        const = PlainMatrix(m.field, r, s,
                            {k: next(iter(p.values())) for k, p in m.entries.items()})
        return RankReport(rank_plain(const), True, Fraction(0))
    target = SCHWARTZ_ZIPPEL_MARGIN * degree_bound
    if isinstance(m.field, PrimeField):
        p = m.field.p
        e = 1
        while p ** e - 1 < target:
            e += 1
        if e > 16:
            raise UnsupportedOperationError(
                f"extension degree {e} beyond the supported table (p={p})")
        sample_size = p ** e - 1
        cpow = _companion_powers(p, e)
        cells, starts, coeffs, term_monos, per_var = _cleared_terms(m, shifts)

        def trial(rng):
            point = [_random_nonzero(rng, p, e) for _ in range(m.nvars)]
            # every distinct monomial at the point, as a vector over F_p
            vals = np.zeros((len(per_var[0][1]), e), dtype=np.int64)
            vals[:, 0] = 1
            for digits, (exps, where) in zip(point, per_var):
                x = _multiplication_blocks(np.array([digits]), cpow, p)[0]
                vals = _matmul_mod(_matrix_powers(x, exps, p)[where],
                                   vals[:, :, None], p)[:, :, 0]
            values = np.zeros((r * s, e), dtype=np.int64)
            values[cells] = np.add.reduceat(coeffs * vals[term_monos] % p, starts) % p
            return _rank_dense_modp(values.reshape(r, s * e), p, cpow)
    else:
        bits = max(row_degrees) * target.bit_length()
        if bits > Q_POWER_BITS_LIMIT:
            raise UnsupportedOperationError(
                f"evaluating this matrix over Q needs powers of about {bits} bits, "
                f"beyond the limit of {Q_POWER_BITS_LIMIT}")
        sample_size = target
        lcms = [1] * r
        for (i, _), poly in m.entries.items():
            lcms[i] = math.lcm(lcms[i], *(v.denominator for v in poly.values()))
        cleared = {(i, j): [(tuple(map(operator.add, exp, shifts[i])),
                             v.numerator * (lcms[i] // v.denominator))
                            for exp, v in poly.items()]
                   for (i, j), poly in m.entries.items()}

        def trial(rng):
            point = [rng.randrange(1, target + 1) for _ in range(m.nvars)]
            evaluated = PlainMatrix(m.field, r, s)
            for k, terms in cleared.items():
                value = sum(c * math.prod(map(pow, point, exp)) for exp, c in terms)
                if value:
                    evaluated.entries[k] = value
            return rank_plain(evaluated)
    best = 0
    for k in range(PROBABILISTIC_TRIALS):
        best = max(best, trial(random.Random(seed * 1_000_003 + k + 1)))
        if best == min(r, s):
            return RankReport(best, True, Fraction(0))
    bound = Fraction(degree_bound, sample_size) ** PROBABILISTIC_TRIALS
    return RankReport(best, False, min(bound, Fraction(1)))


def rank_laurent(m: LaurentMatrix, seed: int = 0) -> RankReport:
    """Rank over k(t_1..t_d).

    Univariate matrices up to BAREISS_MAX_SHAPE x BAREISS_MAX_SHAPE are
    certified by Bareiss unless the elimination passes BAREISS_WORK_LIMIT
    term products; those, and all others (fraction-free coefficient growth
    is severe in two or more variables), are evaluated at random points.
    """
    if m.nvars <= 1 and max(m.nrows, m.ncols) <= BAREISS_MAX_SHAPE:
        rank = rank_laurent_bareiss(m, _work_limit=BAREISS_WORK_LIMIT)
        if rank is not None:
            return RankReport(rank, True, Fraction(0))
    return rank_laurent_probabilistic(m, seed)
