"""Finite free chain complexes over k[G] and their homology dimensions.

A complex is a contiguous stack kG^{r_0}, .., kG^{r_top} with
differentials c_i: kG^{r_i} -> kG^{r_(i-1)} (right multiplication by an
r_i x r_(i-1) matrix) satisfying c_i c_(i+1) = 0.  Homology dimensions
come from rank-nullity, never from explicit kernels:

    dim H_i = r_i * N - rank(c_i) - rank(c_(i+1))

both at finite quotients and over the fraction field of k[Z^d] (Laurent
ranks).  Quotient ranks come from one ``dimensions.quotient_ranker`` per
differential: over Q on Z^d and D_inf a sum of ranks at the characters
of the quotient, else the plain rank of the induced matrix.  Both kinds
come back as ``dimensions.Record`` rows:
``ore-h{i}`` at level 0 with normalizer 1, and ``quotient-h{i}`` at each
quotient level, normalized by its index.  Builders cover the standard
desk examples: a circle wedge a d-sphere with a (d+1)-cell attached along
a degree-p map, Koszul complexes of Z^d, and the periodic resolutions
behind the Betti numbers of finite quotient groups (Z/n)^d.
"""
from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .dimensions import DEFAULT_QUOTIENT_LEVELS, Record, quotient_ranker, resolve_levels
from .errors import UnsupportedOperationError
from .fields import Field, PrimeField, Rationals
from .groupring import GroupRingElement, GroupRingMatrix, to_laurent
from .groups import Group, Zd
from .linalg import PlainMatrix, rank_laurent, rank_plain


class FreeChainComplex:
    """Bounded free complex; construction verifies c_i c_(i+1) = 0."""

    def __init__(self, field: Field, group: Group, ranks: Sequence[int],
                 differentials: Sequence[GroupRingMatrix]):
        ranks = tuple(int(r) for r in ranks)
        if not ranks or any(r < 0 for r in ranks):
            raise ValueError("ranks must be a nonempty list of nonnegative integers")
        if len(differentials) != len(ranks) - 1:
            raise ValueError("need exactly one differential per positive degree")
        self.field = field
        self.group = group
        self.ranks = ranks
        self.differentials = tuple(differentials)
        for i, diff in enumerate(self.differentials, start=1):
            if diff.field != field or diff.group != group:
                raise ValueError(f"differential {i} uses a different field or group")
            if (diff.nrows, diff.ncols) != (ranks[i], ranks[i - 1]):
                raise ValueError(
                    f"differential {i} has shape {diff.nrows}x{diff.ncols}, "
                    f"expected {ranks[i]}x{ranks[i - 1]}")
        for i in range(1, len(ranks) - 1):
            prod = self.differentials[i].matmul(self.differentials[i - 1])
            if not prod.is_zero():
                raise ValueError(f"composite of differentials {i + 1} and {i} is nonzero")

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    def differential(self, i: int) -> Optional[GroupRingMatrix]:
        """c_i for 1 <= i <= top, None outside that range (treated as zero)."""
        if 1 <= i <= self.top:
            return self.differentials[i - 1]
        return None

    def __repr__(self):
        return f"FreeChainComplex({self.field!r}, {self.group!r}, ranks={self.ranks})"


def quotient_homology(complex_: FreeChainComplex,
                      levels: Optional[Sequence[int]] = None) -> List[Record]:
    """``quotient-h{i}`` rows: homology dimensions of the induced complex,
    level by level and degree by degree within a level; ``levels``
    defaults to the group's ``DEFAULT_QUOTIENT_LEVELS``."""
    rankers = [quotient_ranker(diff) for diff in complex_.differentials]
    rows = []
    for n in resolve_levels(levels, DEFAULT_QUOTIENT_LEVELS, complex_.group):
        quotient = complex_.group.quotient(n)
        idx = quotient.index
        ranks_of = [0] * (complex_.top + 2)
        for i, rank in enumerate(rankers, start=1):
            ranks_of[i] = rank(quotient)
        dims = tuple(complex_.ranks[i] * idx - ranks_of[i] - ranks_of[i + 1]
                     for i in range(complex_.top + 1))
        # Rank-nullity makes the alternating sums match identically.
        assert sum((-1) ** i * d for i, d in enumerate(dims)) == \
            idx * sum((-1) ** i * r for i, r in enumerate(complex_.ranks))
        rows.extend(Record(f"quotient-h{i}", n, idx, d) for i, d in enumerate(dims))
    return rows


def homology_report(complex_: FreeChainComplex,
                    levels: Optional[Sequence[int]] = None,
                    seed: int = 0) -> List[Record]:
    """The exact Ore rows whenever the group ring admits them (Z^d only),
    followed by the quotient homology rows."""
    table = quotient_homology(complex_, levels)
    if isinstance(complex_.group, Zd):
        return ore_homology(complex_, seed=seed) + table
    return table


def ore_homology(complex_: FreeChainComplex, seed: int = 0) -> List[Record]:
    """``ore-h{i}`` rows: per-degree Ore dimensions of homology for a
    complex over k[Z^d].

    Every row carries the complex-wide certification flag: False as soon
    as one ``rank_laurent`` result is uncertified, i.e. came from random
    evaluation below full rank.
    """
    if not isinstance(complex_.group, Zd):
        raise UnsupportedOperationError(
            "Ore dimension directly computable only for Zd; use approximation")
    ranks_of = [0] * (complex_.top + 2)
    certified = True
    for i in range(1, complex_.top + 1):
        report = rank_laurent(to_laurent(complex_.differential(i)), seed=seed)
        ranks_of[i] = report.rank
        certified = certified and report.certified
    return [Record(f"ore-h{i}", 0, 1,
                   complex_.ranks[i] - ranks_of[i] - ranks_of[i + 1], certified)
            for i in range(complex_.top + 1)]


# -- builders ---------------------------------------------------------------

def build_degree_p_attachment(d: int, p: int, field: Field) -> FreeChainComplex:
    """Cellular complex over field[Z] of the universal cover of a circle
    wedge a d-sphere with a (d+1)-cell attached along a degree-p map.

    One free generator in degrees 0, 1, d and d+1; the first differential
    is z - 1 and the top one is the scalar p (zero when p is the
    characteristic), everything else vanishes.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    group = Zd(1)
    ranks = [0] * (d + 2)
    for i in (0, 1, d, d + 1):
        ranks[i] = 1
    z_minus_1 = GroupRingElement(field, group, {(1,): field.one,
                                                (0,): field.neg(field.one)})
    diffs = []
    for i in range(1, d + 2):
        entries = {}
        if i == 1:
            entries[(0, 0)] = z_minus_1
        elif i == d + 1:
            entries[(0, 0)] = GroupRingElement(field, group,
                                               {(0,): field.normalize(p)})
        diffs.append(GroupRingMatrix(field, group, ranks[i], ranks[i - 1], entries))
    return FreeChainComplex(field, group, ranks, diffs)


def build_koszul(d: int, field: Field) -> FreeChainComplex:
    """Koszul complex of Z^d: rank C(d, i) in degree i, differentials with
    entries +-(z_j - 1) under the exterior-algebra sign rule.  This is the
    cellular complex of the universal cover of the d-torus and a free
    resolution of the trivial module."""
    if not 1 <= d <= 4:
        raise ValueError(f"need 1 <= d <= 4, got {d}")
    group = Zd(d)
    subsets: List[List[Tuple[int, ...]]] = [
        sorted(itertools.combinations(range(d), i)) for i in range(d + 1)]
    index: List[Dict[Tuple[int, ...], int]] = [
        {s: k for k, s in enumerate(level)} for level in subsets]

    def gen_minus_one(j: int) -> GroupRingElement:
        e = [0] * d
        e[j] = 1
        return GroupRingElement(field, group, {tuple(e): field.one,
                                               (0,) * d: field.neg(field.one)})

    diffs = []
    for i in range(1, d + 1):
        entries = {}
        for row, subset in enumerate(subsets[i]):
            for pos, j in enumerate(subset):
                rest = tuple(x for x in subset if x != j)
                el = gen_minus_one(j)
                # sign by the number of indices after j in the subset
                if (len(subset) - 1 - pos) % 2:
                    el = -el
                entries[(row, index[i - 1][rest])] = el
        diffs.append(GroupRingMatrix(field, group,
                                     len(subsets[i]), len(subsets[i - 1]), entries))
    return FreeChainComplex(field, group, [len(s) for s in subsets], diffs)


def finite_group_betti(d: int, n: int, field: Field, i_max: int) -> List[int]:
    """Betti numbers b_0..b_{i_max} of the finite group (Z/n)^d over k.

    Each Z/n factor contributes the collapsed periodic resolution, the
    complex with one copy of k per degree and differentials alternating 0
    and multiplication by n (the cellular complex of the standard infinite
    CW model of its classifying space).  The classifying space of the
    product is the product, so the chains are the d-fold tensor product
    over k, truncated one degree above i_max; dimensions again come from
    rank-nullity.
    """
    if not 1 <= d <= 3:
        raise ValueError(f"need 1 <= d <= 3, got {d}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0 <= i_max <= 6:
        raise ValueError(f"need 0 <= i_max <= 6, got {i_max}")
    top = i_max + 1

    def single_factor_map(degree: int):
        # boundary map into degree-1: zero in odd degrees, n in even ones
        return field.zero if degree % 2 else field.normalize(n)

    # Basis of the tensor complex in total degree m: compositions of m
    # into d nonnegative parts, ordered lexicographically.
    basis = [sorted(v for v in itertools.product(range(top + 1), repeat=d)
                    if sum(v) == m) for m in range(top + 1)]
    basis_index = [{v: k for k, v in enumerate(level)} for level in basis]
    boundary_ranks = [0] * (top + 2)
    for m in range(1, top + 1):
        entries = {}
        for row, v in enumerate(basis[m]):
            sign_exp = 0
            for axis in range(d):
                if v[axis] > 0:
                    coeff = single_factor_map(v[axis])
                    if not field.is_zero(coeff):
                        if sign_exp % 2:
                            coeff = field.neg(coeff)
                        w = v[:axis] + (v[axis] - 1,) + v[axis + 1:]
                        entries[(row, basis_index[m - 1][w])] = coeff
                sign_exp += v[axis]
        mat = PlainMatrix(field, len(basis[m]), len(basis[m - 1]), entries)
        boundary_ranks[m] = rank_plain(mat)
    return [len(basis[m]) - boundary_ranks[m] - boundary_ranks[m + 1]
            for m in range(i_max + 1)]


def char_comparison(complex_: FreeChainComplex, p: int,
                    levels: Sequence[int]) -> Tuple[List[Record], List[Record]]:
    """Quotient homology rows over Q and over F_p for an integral complex.

    Requires every coefficient to be an integer inside Q; the mod-p
    complex reinterprets those integers in F_p.  Universal coefficients
    force dim_{F_p} H_i >= dim_Q H_i at every level and degree, which is
    verified before returning.
    """
    if not isinstance(complex_.field, Rationals):
        raise UnsupportedOperationError(
            "characteristic comparison needs a complex over Q with integer entries")
    modp = PrimeField(p)

    def reduce_matrix(m: GroupRingMatrix) -> GroupRingMatrix:
        entries = {}
        for key, el in m.entries.items():
            terms = {}
            for g, v in el.terms.items():
                if v.denominator != 1:
                    raise UnsupportedOperationError(
                        f"non-integer coefficient {v} in differential entry {key}")
                terms[g] = v.numerator % p
            entries[key] = GroupRingElement(modp, m.group, terms)
        return GroupRingMatrix(modp, m.group, m.nrows, m.ncols, entries)

    reduced = FreeChainComplex(modp, complex_.group, complex_.ranks,
                               [reduce_matrix(x) for x in complex_.differentials])
    over_q = quotient_homology(complex_, levels)
    over_p = quotient_homology(reduced, levels)
    for rq, rp in zip(over_q, over_p):
        if rp.raw < rq.raw:
            raise ArithmeticError(
                f"mod-{p} homology smaller than rational homology "
                f"at level {rq.level}, {rq.method}")
    return over_q, over_p
