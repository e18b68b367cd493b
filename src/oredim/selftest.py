"""Acceptance suite, runnable as ``oredim selftest``.

Each criterion is a function returning (ok, detail); ``run_all`` prints
one PASS/FAIL line per criterion and reports overall success.  Expected
values are either exact consequences of the definitions or are
cross-checked against independent textbook oracles implemented here
(naive list-based elimination, Kuenneth convolution of single-factor
Betti numbers); randomized checks use fixed seeds so runs are
reproducible.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

from .chains import build_degree_p_attachment, build_koszul, char_comparison, \
    finite_group_betti, ore_homology, quotient_homology
from .dimensions import elek_truncation_dim, ore_dim, quotient_betti_dim, \
    virtual_ore_dim
from .fields import Field, PrimeField, Rationals
from .groupring import GroupRingElement, GroupRingMatrix, PresentedModule, \
    Sublattice, TranslationSubgroup, induce_to_quotient, restrict_scalars
from .groups import DihedralInfinite, Heisenberg, Zd
from .linalg import LaurentMatrix, PlainMatrix, rank_dense, \
    rank_laurent_bareiss, rank_laurent_probabilistic, rank_sparse

TOL = Fraction(1, 20)


# -- independent oracles ---------------------------------------------------

def textbook_rank(rows: List[list], field: Field) -> int:
    """Naive full-pivot-free elimination on plain lists; the cross-check
    oracle, deliberately independent of the numpy/Markowitz kernels."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if not field.is_zero(rows[i][c]):
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][c])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for i in range(nrows):
            if i != rank and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def betti_oracle(d: int, n: int, field: Field, i_max: int) -> List[int]:
    """Kuenneth convolution of single-factor Betti numbers of Z/n, the
    single factor computed from the ranks of the collapsed periodic
    resolution (boundary maps alternate 0 and n)."""
    def boundary_rank(i: int) -> int:
        if i < 1 or i % 2 == 1:
            return 0
        return 0 if field.is_zero(field.normalize(n)) else 1

    single = [1 - boundary_rank(i) - boundary_rank(i + 1) for i in range(i_max + 1)]
    out = single
    for _ in range(d - 1):
        out = [sum(out[j] * single[m - j] for j in range(m + 1))
               for m in range(i_max + 1)]
    return out


# -- samplers ---------------------------------------------------------------

def random_z_matrix(rng: random.Random, field: Field, nrows: int, ncols: int,
                    min_exp: int = 0, max_exp: int = 2) -> GroupRingMatrix:
    group = Zd(1)
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            terms = {}
            for e in range(min_exp, max_exp + 1):
                c = rng.randrange(field.characteristic() or 5)
                if c:
                    terms[(e,)] = c
            if terms:
                entries[(i, j)] = GroupRingElement(field, group, terms)
    return GroupRingMatrix(field, group, nrows, ncols, entries)


def random_laurent_5x5(rng: random.Random, field: PrimeField) -> LaurentMatrix:
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
            poly = {e: v for e, v in poly.items() if v}
            if poly:
                entries[(i, j)] = poly
    return LaurentMatrix(field, 2, 5, 5, entries)


def random_sparse_plain(rng: random.Random, field: Field) -> PlainMatrix:
    nrows = rng.randrange(4, 65)
    ncols = rng.randrange(4, 65)
    budget = max(1, int(0.1 * nrows * ncols * rng.random()))
    entries = {}
    for _ in range(budget):
        i, j = rng.randrange(nrows), rng.randrange(ncols)
        if isinstance(field, PrimeField):
            v = rng.randrange(1, field.p)
        else:
            v = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        if not field.is_zero(field.normalize(v)):
            entries[(i, j)] = v
    return PlainMatrix(field, nrows, ncols, entries)


def _module(matrix: GroupRingMatrix) -> PresentedModule:
    return PresentedModule(matrix)


def _one_by_one(field, group, terms) -> GroupRingMatrix:
    el = GroupRingElement(field, group, terms)
    return GroupRingMatrix(field, group, 1, 1, {(0, 0): el} if not el.is_zero() else {})


def _standard_plane_module(field) -> PresentedModule:
    group = Zd(2)
    a = GroupRingElement(field, group, {(1, 0): 1, (0, 0): -1})
    b = GroupRingElement(field, group, {(0, 1): 1, (0, 0): -1})
    return _module(GroupRingMatrix(field, group, 1, 2, {(0, 0): a, (0, 1): b}))


# -- criteria ---------------------------------------------------------------

def criterion_attachment_char_split() -> Tuple[bool, str]:
    """Characteristic split of the degree-2 attachment complex: homology
    is one-dimensional in degrees 2 and 3 over F_2 and vanishes over F_5,
    exactly, both over the fraction field and at every quotient level."""
    ok = True
    notes = []
    for field, expected in ((PrimeField(2), (0, 0, 1, 1)),
                            (PrimeField(5), (0, 0, 0, 0))):
        complex_ = build_degree_p_attachment(2, 2, field)
        ore = ore_homology(complex_)
        got = tuple(r.raw for r in ore)
        if got != expected or not all(r.certified for r in ore):
            ok = False
        notes.append(f"ore {field!r}={got}")
        want = Fraction(expected[2])
        for row in quotient_homology(complex_, [2, 4, 8, 16]):
            if row.method in ("quotient-h2", "quotient-h3") and row.normalized != want:
                ok = False
                notes.append(f"level {row.level} {row.method} != {want}")
    return ok, "; ".join(notes)


def criterion_normalization_additivity() -> Tuple[bool, str]:
    """The free rank-one module has every dimension equal to 1 at every
    level; all dimension functions are exactly additive on direct sums."""
    ok = True
    notes = []
    for group in (Zd(1), DihedralInfinite(), Heisenberg()):
        field = PrimeField(2)
        free = _module(GroupRingMatrix(field, group, 1, 1, {}))
        levels = [2, 3, 4]
        for table in (quotient_betti_dim(free, levels),
                      elek_truncation_dim(free, [2, 4])):
            if any(r.normalized != 1 for r in table):
                ok = False
                notes.append(f"free module over {group!r} not 1")
        if isinstance(group, Zd) and ore_dim(free).normalized != 1:
            ok = False
        if isinstance(group, DihedralInfinite) and \
                virtual_ore_dim(free, TranslationSubgroup()).normalized != 1:
            ok = False
    rng = random.Random(1105)
    primes = (2, 3, 5)
    checked = 0
    for k in range(50):
        field = PrimeField(primes[k % 3])
        a = random_z_matrix(rng, field, rng.randrange(1, 3), rng.randrange(1, 3))
        b = random_z_matrix(rng, field, rng.randrange(1, 3), rng.randrange(1, 3))
        diag = a.block_diag(b)
        ma, mb, md = _module(a), _module(b), _module(diag)
        if ore_dim(md).normalized != ore_dim(ma).normalized + ore_dim(mb).normalized:
            ok = False
            notes.append(f"ore not additive at sample {k}")
        if virtual_ore_dim(md, Sublattice(2)).normalized != \
                virtual_ore_dim(ma, Sublattice(2)).normalized + \
                virtual_ore_dim(mb, Sublattice(2)).normalized:
            ok = False
            notes.append(f"vdim not additive at sample {k}")
        levels = [2, 4]
        for fn in (quotient_betti_dim, elek_truncation_dim):
            ta, tb, td = fn(ma, levels), fn(mb, levels), fn(md, levels)
            for ra, rb, rd in zip(ta, tb, td):
                if rd.raw != ra.raw + rb.raw or \
                        rd.normalized != ra.normalized + rb.normalized:
                    ok = False
                    notes.append(f"{fn.__name__} not additive at sample {k}")
        checked += 1
    notes.append(f"{checked} random direct sums, primes {primes}")
    return ok, "; ".join(notes)


def criterion_three_way_agreement() -> Tuple[bool, str]:
    """Quotient and Foelner normalized values at level 64 both land within
    1/20 of the exact Ore dimension on random modules over F_2[Z].

    No convergence rate is available, so this is a property check at a
    fixed seed: individual matrices can exceed the tolerance at any fixed
    level (a full-rank 3x3 with truncated cokernel of dimension 5 at
    window 64 does), while the normalized values still converge."""
    rng = random.Random(0)
    field = PrimeField(2)
    worst = Fraction(0)
    ok = True
    for _ in range(20):
        matrix = random_z_matrix(rng, field, rng.randrange(1, 4), rng.randrange(1, 4))
        module = _module(matrix)
        target = ore_dim(module)
        assert target.certified
        [q] = [r.normalized for r in quotient_betti_dim(module, [64])]
        [f] = [r.normalized for r in elek_truncation_dim(module, [64])]
        gap = max(abs(q - target.normalized), abs(f - target.normalized))
        worst = max(worst, gap)
        if gap > TOL:
            ok = False
    return ok, f"20 modules, worst |normalized - ore| = {worst} (tol {TOL})"


def criterion_plane_standard_module() -> Tuple[bool, str]:
    """coker(z1-1, z2-1) over F_2[Z^2]: Ore dimension exactly 1, quotient
    value exactly 1 + 1/n^2, matching a textbook rank oracle."""
    module = _standard_plane_module(PrimeField(2))
    ok = ore_dim(module).normalized == 1
    notes = [f"ore={ore_dim(module).normalized}"]
    field = module.field
    for n in range(2, 9):
        quotient = module.group.quotient(n)
        induced = induce_to_quotient(module.matrix, quotient)
        oracle = textbook_rank(induced.to_dense(), field)
        [row] = quotient_betti_dim(module, [n])
        expected = Fraction(n * n + 1, n * n)
        if row.normalized != expected or \
                row.raw != 2 * quotient.index - oracle:
            ok = False
            notes.append(f"mismatch at n={n}: {row}")
    notes.append("quotient = 1 + n^-2 for n=2..8 against oracle")
    return ok, "; ".join(notes)


def criterion_virtual_ore() -> Tuple[bool, str]:
    """Dihedral virtual Ore dimensions (1/2 for coker(s-1), 0 for
    coker(z-1)) and exact index scaling of the Ore dimension under
    restriction to nZ."""
    ok = True
    notes = []
    dinf = DihedralInfinite()
    f3 = PrimeField(3)
    reflection = _module(_one_by_one(f3, dinf, {(0, 1): 1, (0, 0): -1}))
    v = virtual_ore_dim(reflection, TranslationSubgroup())
    if v.normalized != Fraction(1, 2):
        ok = False
    notes.append(f"vdim coker(s-1)={v.normalized}")
    rows = quotient_betti_dim(reflection, list(range(2, 9)))
    if any(r.normalized != Fraction(1, 2) for r in rows):
        ok = False
        notes.append("quotient rows of coker(s-1) differ from 1/2")
    f2 = PrimeField(2)
    translation = _module(_one_by_one(f2, dinf, {(1, 0): 1, (0, 0): 1}))
    v2 = virtual_ore_dim(translation, TranslationSubgroup())
    if v2.normalized != 0:
        ok = False
    notes.append(f"vdim coker(z-1)={v2.normalized}")
    rng = random.Random(551)
    for k in range(50):
        n = 2 + k % 2
        matrix = random_z_matrix(rng, f2, rng.randrange(1, 3), rng.randrange(1, 3),
                                 min_exp=-2, max_exp=2)
        module = _module(matrix)
        base = ore_dim(module).normalized
        restricted, idx = restrict_scalars(matrix, Sublattice(n))
        scaled = ore_dim(_module(restricted)).normalized
        if scaled != n * base or idx != n:
            ok = False
            notes.append(f"restriction identity failed at sample {k} (n={n})")
    notes.append("ore(restriction to nZ) = n*ore on 50 samples, n in {2,3}")
    return ok, "; ".join(notes)


def criterion_sublinear_betti() -> Tuple[bool, str]:
    """Betti numbers of (Z/n)^2 over F_2 grow sublinearly in the index:
    b_i/n^2 strictly decreases along n = 2, 4, 8 for i = 1, 2."""
    field = PrimeField(2)
    ok = True
    notes = []
    values = {}
    for n in (2, 4, 8):
        betti = finite_group_betti(2, n, field, 2)
        if betti != betti_oracle(2, n, field, 2):
            ok = False
            notes.append(f"oracle mismatch at n={n}")
        values[n] = betti
        notes.append(f"n={n}: b={betti}")
    for i in (1, 2):
        ratios = [Fraction(values[n][i], n * n) for n in (2, 4, 8)]
        if not (ratios[0] > ratios[1] > ratios[2]):
            ok = False
            notes.append(f"b_{i}/n^2 not strictly decreasing: {ratios}")
    if any(Fraction(values[2][i], 4) > Fraction(3, 4) for i in (1, 2)):
        ok = False
    if any(Fraction(values[8][i], 64) > Fraction(3, 64) for i in (1, 2)):
        ok = False
    return ok, "; ".join(notes)


def criterion_char_inequality() -> Tuple[bool, str]:
    """Mod-2 homology dominates rational homology degreewise at every
    level, for the degree-2 attachment complex and the Koszul complex."""
    ok = True
    notes = []
    rationals = Rationals()
    for name, complex_ in (("attachment", build_degree_p_attachment(2, 2, rationals)),
                           ("koszul", build_koszul(2, rationals))):
        over_q, over_p = char_comparison(complex_, 2, [2, 4, 8])
        for rq, rp in zip(over_q, over_p):
            if rp.raw < rq.raw:
                ok = False
                notes.append(f"{name} level {rq.level} {rq.method} violates the inequality")
        notes.append(f"{name}: F2 >= Q at levels 2,4,8")
    return ok, "; ".join(notes)


def criterion_rank_engine() -> Tuple[bool, str]:
    """Randomized evaluation agrees with fraction-free elimination on 100
    bivariate 5x5 matrices; on 200 plain instances the Markowitz rank
    agrees with the numpy kernel over F_p and with ``textbook_rank`` over
    Q; rank is invariant under transpose, permutation, and unit
    scaling on every sampled instance."""
    ok = True
    notes = []
    rng = random.Random(818)
    f5 = PrimeField(5)
    disagreements = 0
    for k in range(100):
        m = random_laurent_5x5(rng, f5)
        certified = rank_laurent_bareiss(m)
        fast = rank_laurent_probabilistic(m, seed=k).rank
        if fast != certified:
            disagreements += 1
        # metamorphic variants, evaluated probabilistically
        if rank_laurent_probabilistic(m.transpose(), seed=k + 1).rank != certified:
            disagreements += 1
        perm = LaurentMatrix(m.field, m.nvars, m.nrows, m.ncols,
                             {(m.nrows - 1 - i, m.ncols - 1 - j): p
                              for (i, j), p in m.entries.items()})
        if rank_laurent_probabilistic(perm, seed=k + 2).rank != certified:
            disagreements += 1

        def shift_row0(poly, i):
            if i != 0:
                return poly
            return {(e0 + 2, e1 - 1): c for (e0, e1), c in poly.items()}

        scaled = LaurentMatrix(m.field, m.nvars, m.nrows, m.ncols,
                               {(i, j): shift_row0(p, i)
                                for (i, j), p in m.entries.items()})
        if rank_laurent_probabilistic(scaled, seed=k + 3).rank != certified:
            disagreements += 1
    if disagreements:
        ok = False
    notes.append(f"100 bivariate 5x5: probabilistic == Bareiss, "
                 f"{disagreements} disagreements")
    fields = [PrimeField(2), PrimeField(3), PrimeField(101), Rationals()]
    plain_bad = 0
    for k in range(200):
        field = fields[k % 4]
        m = random_sparse_plain(rng, field)
        # over Q Markowitz is the only kernel, so the oracle checks it there
        if isinstance(field, PrimeField):
            kernel, want = rank_dense, rank_dense(m)
        else:
            kernel, want = rank_sparse, textbook_rank(m.to_dense(), field)
        reversed_entries = {(m.nrows - 1 - i, j): v for (i, j), v in m.entries.items()}
        unit = 2 if isinstance(field, PrimeField) and field.p > 2 else \
            (1 if isinstance(field, PrimeField) else Fraction(-3, 7))
        scaled_entries = {(i, j): field.mul(v, field.normalize(unit)) if i == 0 else v
                          for (i, j), v in m.entries.items()}
        plain_bad += sum(rank != want for rank in (
            rank_sparse(m), kernel(m.transpose()),
            kernel(PlainMatrix(field, m.nrows, m.ncols, reversed_entries)),
            rank_sparse(PlainMatrix(field, m.nrows, m.ncols, scaled_entries))))
    ok = ok and not plain_bad
    notes.append(f"200 sparse instances: sparse == dense over F_p, sparse == "
                 f"textbook over Q, and metamorphic checks, {plain_bad} failures")
    return ok, "; ".join(notes)


CRITERIA = (
    ("attachment-characteristic-split", criterion_attachment_char_split),
    ("normalization-and-additivity", criterion_normalization_additivity),
    ("three-way-agreement", criterion_three_way_agreement),
    ("plane-standard-module", criterion_plane_standard_module),
    ("virtual-ore-dimension", criterion_virtual_ore),
    ("sublinear-finite-quotient-betti", criterion_sublinear_betti),
    ("characteristic-comparison-inequality", criterion_char_inequality),
    ("rank-engine-integrity", criterion_rank_engine),
)


def run_all(verbose: bool = True) -> bool:
    all_ok = True
    for name, fn in CRITERIA:
        ok, detail = fn()
        all_ok = all_ok and ok
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
