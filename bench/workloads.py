"""Seeded job lists for the three workloads.

``jobs(workload, seed)`` returns the same list of ``Job`` for the same
arguments.  The seed picks coefficients, unit twists and unimodular
changes of basis; the shapes, levels and commands of a workload are fixed,
so the work per round barely depends on the seed.  Every job carries its
expected records: closed forms where the family has one, and otherwise a
request for the oracle (``algebra.transport`` + ``algebra.rank_mod``),
filled in by ``checker.fill_expectations`` before timing starts.

Families with closed forms (N = index of the level-n quotient):

* "augmentation" modules coker[g_1 - 1, .., g_m - 1] over the m
  generators of Z^d, D_inf or H, twisted by units: at level n the induced
  map k[G/G_n] -> k[G/G_n]^m has only the constants as kernel, so the
  quotient raw value is (m - 1) N + 1; the Ore dimension on Z^d is d - 1;
* Koszul complexes of Z^d on unit multiples of z_j - 1: quotient-h_i =
  C(d, i) at every level, ore-h_i = 0;
* degree-q attachment complexes over Z: h_0 = h_1 = 1, h_e = h_(e+1) =
  n or 0 as q is zero or not in the field;
* U.D.V with U, V unimodular over k[G] and D diagonal: generic rank is
  the number of nonzero diagonal entries, so Ore and virtual Ore
  dimensions are s - rank by construction.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Tuple

from algebra import el_mul, field_json, group_json, mat_mul, matrix_json, norm

BIG_PRIME = 1000003
Q_SCALARS = (1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2))
WORKLOADS = ("fp-tables", "laurent-targets", "q-tables")


@dataclass
class Job:
    command: str
    input: dict
    levels: Optional[str] = None
    fmt: str = "json"
    seed: int = 0
    # (method, level) -> [normalizer, raw]; raw None means "ask the oracle"
    expect: Dict[Tuple[str, int], list] = field(default_factory=dict)
    # approx jobs: method of the exact target row, or None
    target: Optional[str] = None
    # property checks against another job of the same round
    twin_of: Optional[int] = None   # F_p twin of a Q complex job
    same_as: Optional[int] = None   # vdim job whose value must equal an ore job

    def argv(self, input_path):
        argv = [self.command, "--input", input_path, "--format", self.fmt,
                "--seed", str(self.seed)]
        if self.levels:
            argv += ["--levels", self.levels]
        return argv


class Gen:
    def __init__(self, workload, seed):
        self.rng = random.Random(f"{workload}:{seed}")

    # -- scalars, units, elements ----------------------------------------

    def scalar(self, p, integral=False):
        """A random nonzero scalar; over Q one of a few small fractions, or
        +-1 when ``integral`` (so the complex stays defined over Z)."""
        if p:
            return self.rng.randrange(1, p)
        return Fraction(self.rng.choice((1, -1) if integral else Q_SCALARS))

    def shift(self, kind, d):
        """A canonical generator or its inverse.  Every shift has length
        1, so seeds change directions but not degrees or box overlaps."""
        if kind == "Zd":
            v = [0] * d
            v[self.rng.randrange(d)] = self.rng.choice((1, -1))
            return tuple(v)
        if kind == "Dinf":
            return self.rng.choice(((1, 0), (-1, 0), (0, 1)))
        return self.rng.choice(((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)))

    def unit(self, kind, d, p, integral=False):
        return {self.shift(kind, d): self.scalar(p, integral)}

    def binomial(self, kind, d, p):
        """c_0 + c_1 g with g a shift (in <z> for the dihedral group)."""
        g = (self.rng.choice((1, -1)), 0) if kind == "Dinf" else self.shift(kind, d)
        return {identity(kind, d): self.scalar(p), g: self.scalar(p)}

    # -- matrices over k[G] -------------------------------------------------

    def unimodular(self, kind, d, p, n, fill=1):
        """Monomial-scaled reversal times a unitriangular matrix with
        ``fill`` off-diagonal units per row next to the diagonal:
        invertible over k[G].  Positions are fixed, so that seeds change
        coefficients and shift directions but not sparsity patterns."""
        scaled = {(i, n - 1 - i): self.unit(kind, d, p) for i in range(n)}
        tri = {(i, i): {identity(kind, d): norm(1, p)} for i in range(n)}
        for i in range(n):
            for j in range(max(0, i - fill), i):
                tri[(i, j)] = self.unit(kind, d, p)
        return mat_mul(scaled, tri, kind, p)

    def udv(self, kind, d, p, nrows, ncols, rank, fill=1):
        """U.D.V with D = diag(f_1..f_rank, 0..); for D_inf the f_i lie in
        k[<z>], so the restriction to <z> has rank 2*rank."""
        dmat = {(i, i): self.binomial(kind, d, p) for i in range(rank)}
        u = self.unimodular(kind, d, p, nrows, fill)
        v = self.unimodular(kind, d, p, ncols, fill)
        return mat_mul(mat_mul(u, dmat, kind, p), v, kind, p)

    def augmentation(self, kind, d, p):
        """1 x m matrix [w (g_j - 1) c_j] over the group's generators, w a
        unit and c_j nonzero scalars."""
        gens = {"Zd": [tuple(int(k == j) for k in range(d)) for j in range(d)],
                "Dinf": [(1, 0), (0, 1)],
                "Heis": [(1, 0, 0), (0, 1, 0)]}[kind]
        w = self.unit(kind, d, p)
        ent = {}
        for j, g in enumerate(gens):
            gm1 = {g: norm(1, p), identity(kind, d): norm(-1, p)}
            c = self.scalar(p)
            ent[(0, j)] = el_mul(w, {g2: norm(v * c, p) for g2, v in gm1.items()},
                                 kind, p)
        return ent, len(gens)


def identity(kind, d):
    return (0,) * d if kind == "Zd" else ((0, 0) if kind == "Dinf" else (0, 0, 0))


def quotient_index(kind, d, n):
    return n ** d if kind == "Zd" else (2 * n if kind == "Dinf" else n ** 3)


def folner_size(kind, d, n):
    return n ** d if kind == "Zd" else (2 * n if kind == "Dinf" else n ** 4)


def level_list(levels):
    return [int(x) for x in levels.split(",")]


# -- job builders --------------------------------------------------------------

def module_job(g, command, kind, d, p, nrows, ncols, ent, levels=None,
               ore_rank=None, fmt="json", quotient_raw=None):
    """A module job.  ``ore_rank`` is the generic rank by construction;
    ``quotient_raw(N)`` a closed form for the quotient rows if known."""
    job = Job(command, matrix_json(kind, d, p, nrows, ncols, ent), levels, fmt,
              seed=g.rng.randrange(1 << 30))
    if command in ("ore", "approx") and kind == "Zd":
        job.expect[("ore", 0)] = [1, ncols - ore_rank]
        job.target = "ore"
    if command == "vdim" or (command == "approx" and kind == "Dinf"):
        index = 2 if kind == "Dinf" else 2 ** d
        job.expect[("virtual-ore", 0)] = [index, index * (ncols - ore_rank)]
        job.target = "virtual-ore"
    if command == "approx":
        for n in level_list(levels):
            big_n = quotient_index(kind, d, n)
            raw = quotient_raw(big_n) if quotient_raw else None
            job.expect[("quotient-betti", n)] = [big_n, raw]
    if command in ("approx", "folner"):
        for n in level_list(levels):
            job.expect[("elek-truncation", n)] = [folner_size(kind, d, n), None]
    return job


def augmentation_job(g, command, kind, d, p, levels, fmt="json"):
    ent, m = g.augmentation(kind, d, p)
    return module_job(g, command, kind, d, p, 1, m, ent, levels,
                      ore_rank=1, fmt=fmt,
                      quotient_raw=lambda big_n: (m - 1) * big_n + 1)


def udv_job(g, command, kind, d, p, nrows, ncols, rank, levels=None, fmt="json",
            fill=1):
    ent = g.udv(kind, d, p, nrows, ncols, rank, fill)
    return module_job(g, command, kind, d, p, nrows, ncols, ent, levels,
                      ore_rank=rank, fmt=fmt)


def complex_json(d, p, ranks, diffs):
    """A chain complex over k[Z^d]; diffs[i] is c_(i+1), r_(i+1) x r_i."""
    return {"group": group_json("Zd", d), "field": field_json(p), "ranks": ranks,
            "differentials": [matrix_json("Zd", d, p, ranks[i + 1], ranks[i], m)
                              for i, m in enumerate(diffs)]}


def koszul_job(g, d, p, levels, units=None):
    """Koszul complex of Z^d on u_j (z_j - 1); returns the job and the
    units so that an F_p twin can reuse them."""
    if units is None:
        units = [g.unit("Zd", d, p, integral=True) for _ in range(d)]
    units = [{e: norm(v, p) for e, v in u.items()} for u in units]
    zero = (0,) * d
    f = []
    for j in range(d):
        zj = tuple(int(k == j) for k in range(d))
        f.append(el_mul(units[j], {zj: norm(1, p), zero: norm(-1, p)}, "Zd", p))
    subsets = [list(itertools.combinations(range(d), i)) for i in range(d + 1)]
    index = [{s: k for k, s in enumerate(level)} for level in subsets]
    diffs = []
    for i in range(1, d + 1):
        m = {}
        for row, s in enumerate(subsets[i]):
            for pos, j in enumerate(s):
                rest = tuple(x for x in s if x != j)
                sign = -1 if pos % 2 else 1
                m[(row, index[i - 1][rest])] = {e: norm(sign * v, p)
                                                 for e, v in f[j].items()}
        diffs.append(m)
    ranks = [len(s) for s in subsets]
    job = Job("homology", complex_json(d, p, ranks, diffs), levels)
    for i in range(d + 1):
        job.expect[(f"ore-h{i}", 0)] = [1, 0]
    for n in level_list(levels):
        for i in range(d + 1):
            job.expect[(f"quotient-h{i}", n)] = [n ** d, comb(d, i)]
    return job, units


def attachment_job(g, e, q, p, levels, units=None):
    """Circle wedge an e-sphere with an (e+1)-cell attached by degree q,
    over k[Z]: c_1 = u (z - 1), c_(e+1) = q v, other differentials 0."""
    if units is None:
        units = [g.unit("Zd", 1, p, integral=True) for _ in range(2)]
    units = [{x: norm(v, p) for x, v in u.items()} for u in units]
    ranks = [0] * (e + 2)
    for i in (0, 1, e, e + 1):
        ranks[i] = 1
    diffs = [{} for _ in range(e + 1)]
    diffs[0] = {(0, 0): el_mul(units[0], {(1,): norm(1, p), (0,): norm(-1, p)}, "Zd", p)}
    top = {x: norm(q * v, p) for x, v in units[1].items() if norm(q * v, p)}
    diffs[e] = {(0, 0): top} if top else {}
    job = Job("homology", complex_json(1, p, ranks, diffs), levels)
    killed = p is not None and q % p == 0
    ore = [0] * (e + 2)
    if killed:
        ore[e] = ore[e + 1] = 1
    for i in range(e + 2):
        job.expect[(f"ore-h{i}", 0)] = [1, ore[i]]
    for n in level_list(levels):
        dims = [0] * (e + 2)
        dims[0] = dims[1] = 1
        if killed:
            dims[e] = dims[e + 1] = n
        for i in range(e + 2):
            job.expect[(f"quotient-h{i}", n)] = [n, dims[i]]
    return job, units


def betti_job(d, ns, i_max, p):
    job = Job("betti-finite", {"d": d, "n": ns, "i_max": i_max, "field": field_json(p)})
    for n in ns:
        for i in range(i_max + 1):
            if p and n % p == 0:
                b = comb(i + d - 1, d - 1)
            else:
                b = int(i == 0)
            job.expect[(f"finite-betti-b{i}", n)] = [n ** d, b]
    return job


# -- the workloads ---------------------------------------------------------------

def fp_tables(g: Gen) -> List[Job]:
    """Plain ranks over F_2, F_3 and a large prime at quotient and Foelner
    levels up to a few thousand rows; Laurent targets stay tiny."""
    jobs = []
    for p, levels in ((3, "8,16,32"), (2, "6,12,18"), (BIG_PRIME, "5,10,15")):
        jobs.append(augmentation_job(g, "approx", "Zd", 2, p, levels,
                                     fmt="csv" if p == 2 else "json"))
    for p in (2, 3, BIG_PRIME):
        jobs.append(udv_job(g, "folner", "Zd", 2, p, 2, 2, 1, "4,8,12,16"))
        jobs.append(udv_job(g, "approx", "Zd", 1, p, 3, 3, 2, "16,64,128"))
        jobs.append(udv_job(g, "approx", "Dinf", 0, p, 2, 2, 1, "16,32,64"))
        jobs.append(augmentation_job(g, "folner", "Dinf", 0, p, "32,64,128",
                                     fmt="csv"))
    jobs.append(augmentation_job(g, "approx", "Zd", 3, 2, "2,4,6"))
    for p, levels in ((2, "8,16"), (3, "6,12"), (BIG_PRIME, "4,10,16")):
        jobs.append(koszul_job(g, 2, p, levels)[0])
    jobs.append(koszul_job(g, 3, 3, "3,5")[0])
    return jobs


def laurent_targets(g: Gen) -> List[Job]:
    """Exact targets: Ore and virtual Ore dimensions through rank over
    k(t_1..t_d), plus the Ore rows of homology at --levels 1."""
    jobs = []
    for p in (2, 3, BIG_PRIME, None):
        for d, size, rank in ((1, 12, 9), (1, 16, 12), (2, 10, 8), (2, 16, 13),
                              (2, 24, 20), (3, 12, 10), (3, 20, 16)):
            jobs.append(udv_job(g, "ore", "Zd", d, p, size, size + 1, rank,
                                fmt="csv" if d == 1 else "json", fill=2))
        # univariate shapes within the certified (Bareiss) range
        jobs.append(udv_job(g, "ore", "Zd", 1, p, 6, 7, 5, fill=2))
        jobs.append(udv_job(g, "ore", "Zd", 1, p, 8, 8, 6, fill=2))
        ore = udv_job(g, "ore", "Zd", 1, p, 4, 4, 3)
        vd = Job("vdim", ore.input, seed=ore.seed)
        vd.expect[("virtual-ore", 0)] = [2, 2 * (4 - 3)]
        vd.same_as = len(jobs)
        jobs += [ore, vd]
        jobs.append(udv_job(g, "vdim", "Zd", 2, p, 3, 3, 2))
        jobs.append(udv_job(g, "vdim", "Dinf", 0, p, 3, 3, 2))
        jobs.append(udv_job(g, "vdim", "Dinf", 0, p, 5, 5, 3))
    for p in (2, 3):
        jobs.append(udv_job(g, "ore", "Zd", 3, p, 24, 25, 20, fill=2))
    for p in (3, None):
        jobs.append(koszul_job(g, 3, p, "1")[0])
        jobs.append(attachment_job(g, 2, 3, p, "1")[0])
    return jobs


def q_tables(g: Gen) -> List[Job]:
    """Rational homology with F_p twins, Heisenberg and dihedral tables
    over Q, and betti-finite requests."""
    jobs = []

    def with_twins(job_units, build, twin_primes):
        job, units = job_units
        q_id = len(jobs)
        jobs.append(job)
        for p in twin_primes:
            twin = build(p, units)
            twin.twin_of = q_id
            jobs.append(twin)

    for d, levels in ((2, "4,8,12,16"), (3, "2,3,4")):
        with_twins(koszul_job(g, d, None, levels),
                   lambda p, u, d=d, levels=levels: koszul_job(g, d, p, levels, u)[0],
                   (2, 3, 5))
    for e, q, levels in ((2, 2, "16,64,256"), (3, 3, "32,128,512")):
        with_twins(attachment_job(g, e, q, None, levels),
                   lambda p, u, e=e, q=q, levels=levels:
                   attachment_job(g, e, q, p, levels, u)[0],
                   (q, 5))
    for p in (None, 2, 3):
        jobs.append(augmentation_job(g, "approx", "Heis", 0, p, "2,3,4,5"))
    jobs.append(udv_job(g, "approx", "Heis", 0, None, 2, 2, 1, "2,3,4"))
    for p in (None, None, 3):
        jobs.append(udv_job(g, "approx", "Dinf", 0, p, 2, 2, 1, "8,16,32,64"))
    jobs.append(augmentation_job(g, "approx", "Zd", 2, None, "4,8,12,16", fmt="csv"))
    jobs.append(udv_job(g, "approx", "Zd", 1, None, 2, 3, 2, "8,32"))
    for p in (None, 2, 3):
        jobs.append(betti_job(2, [2, 3, 6], 4, p))
    return jobs


BUILDERS = {"fp-tables": fp_tables, "laurent-targets": laurent_targets,
            "q-tables": q_tables}


def jobs(workload: str, seed: int) -> List[Job]:
    return BUILDERS[workload](Gen(workload, seed))
