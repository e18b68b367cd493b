"""Dimension functions for finitely presented modules over k[G].

Every function returns ``Record`` rows, the rows the CLI prints.  A row
holds an exact dimension ``raw`` and the ``normalizer`` it is divided by;
``normalized`` is their quotient.  For a module presented by an r x s
matrix A:

* ``ore_dim``            -- one ``ore`` row: s minus the rank of A over the
  rational function field k(t_1..t_d); only Z^d group rings localize to a
  commutative fraction field we can compute in directly.
* ``elek_truncation_dim`` -- one ``elek-truncation`` row per Foelner set F:
  s*|F| - rank of the compressed matrix, normalized by |F|.
* ``quotient_betti_dim`` -- one ``quotient-betti`` row per residual-chain
  level: s*N minus the rank of the induced matrix on the quotient,
  normalized by the index N.
* ``virtual_ore_dim``    -- one ``virtual-ore`` row: the Ore dimension of the
  restriction to a whitelisted finite-index Z^d subgroup, normalized by
  the index.

``quotient_ranker``, shared with ``chains.quotient_homology``, finds the
rank of the induced matrix.  Over Q on Z^d and D_inf it never builds it:
the rank is the sum over the characters of (Z/n)^d of the rank of A at
each (``linalg.rank_by_characters``, certified modulo primes that split
completely in Q(zeta_n)), D_inf going through its restriction to <z>.
Over F_p, on the Heisenberg group, and at a level that route refuses (too
few split primes, or more primes than the budget admits) the induced
matrix is built and ranked by ``rank_plain``; it is the reference the
route is tested against.

Exact targets sit at level 0.  They take their rank from
``linalg.rank_laurent``; ``seed`` picks its evaluation points, and
``certified`` says whether the rank is proved.  Table rows are always
certified.

Tables never extrapolate: ``approx_report`` puts the exact target above
the tables when the group has one and flags whether each table's last row
lies within a user tolerance of it, but no limit is ever declared.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import UnsupportedOperationError
from .fields import Rationals
from .groupring import (GroupRingMatrix, PresentedModule, Sublattice,
                        TranslationSubgroup, compress_to_folner,
                        induce_to_quotient, restrict_scalars, to_laurent)
from .groups import DihedralInfinite, FiniteQuotient, Group, Zd
from .linalg import rank_by_characters, rank_laurent, rank_plain


@dataclass(frozen=True)
class Record:
    """One output row: the dimension ``raw`` of ``method`` at ``level``
    (0 for an exact target), divided by ``normalizer``."""

    method: str
    level: int
    normalizer: int
    raw: int
    certified: bool = True

    @property
    def normalized(self) -> Fraction:
        return Fraction(self.raw, self.normalizer)


# Default levels of each group model, keyed by ``Group.kind``.  A
# Heisenberg quotient has index n^3 and a Heisenberg Foelner box n^4
# elements, so its levels stay small: at level 32 the box alone holds about
# 10^6 elements.
DEFAULT_QUOTIENT_LEVELS = {"Zd": (2, 4, 8, 16), "Dinf": (2, 4, 8, 16),
                           "Heis": (2, 4, 6, 8)}
DEFAULT_FOLNER_LEVELS = {"Zd": (4, 8, 16, 32), "Dinf": (4, 8, 16, 32),
                         "Heis": (2, 4, 6, 8)}


def resolve_levels(levels: Optional[Sequence[int]], defaults, group: Group) -> List[int]:
    """``levels``, or the group's entry in ``defaults`` when it is None,
    checked to be strictly increasing positive integers."""
    levels = list(defaults[group.kind] if levels is None else levels)
    if not levels:
        raise ValueError("need at least one level")
    if levels != sorted(set(levels)) or levels[0] < 1:
        raise ValueError(f"levels must be strictly increasing positive integers: {levels}")
    return levels


def ore_dim(module: PresentedModule, seed: int = 0) -> Record:
    """Ore dimension of the module: generators minus rank over k(t_1..t_d)."""
    if not isinstance(module.group, Zd):
        raise UnsupportedOperationError(
            "Ore dimension directly computable only for Zd; use approximation")
    report = rank_laurent(to_laurent(module.matrix), seed=seed)
    return Record("ore", 0, 1, module.generators - report.rank, report.certified)


def elek_truncation_dim(module: PresentedModule,
                        levels: Optional[Sequence[int]] = None) -> List[Record]:
    """Dimensions of Foelner-truncated cokernels, normalized by |F_n|;
    ``levels`` defaults to the group's ``DEFAULT_FOLNER_LEVELS``."""
    rows = []
    for n in resolve_levels(levels, DEFAULT_FOLNER_LEVELS, module.group):
        folner = module.group.folner_set(n)
        compressed = compress_to_folner(module.matrix, folner)
        raw = module.generators * len(folner) - rank_plain(compressed)
        rows.append(Record("elek-truncation", n, len(folner), raw))
    return rows


def quotient_ranker(matrix: GroupRingMatrix) -> Callable[[FiniteQuotient], int]:
    """The rank over k of ``induce_to_quotient(matrix, quotient)``, as a
    function of the quotient.

    Over Q on Z^d, and on D_inf through its restriction to <z>, which is
    made once here for every level, it is ``rank_by_characters`` at the
    quotient's level: k[D_inf/<z^n>]^r is k[<z>/<z^n>]^(2r), and the induced
    map is that of the restricted matrix.  Over F_p, on the Heisenberg
    group, and at a level that route refuses, it is the rank of the
    induced matrix.
    """
    laurent = None
    if isinstance(matrix.field, Rationals):
        if isinstance(matrix.group, Zd):
            laurent = to_laurent(matrix)
        elif isinstance(matrix.group, DihedralInfinite):
            laurent = to_laurent(restrict_scalars(matrix, TranslationSubgroup())[0])

    def rank(quotient: FiniteQuotient) -> int:
        found = None if laurent is None else rank_by_characters(laurent, quotient.level)
        return rank_plain(induce_to_quotient(matrix, quotient)) if found is None else found
    return rank


def quotient_betti_dim(module: PresentedModule,
                       levels: Optional[Sequence[int]] = None) -> List[Record]:
    """Normalized Betti numbers of the module along the residual chain;
    ``levels`` defaults to the group's ``DEFAULT_QUOTIENT_LEVELS``."""
    rank = quotient_ranker(module.matrix)
    rows = []
    for n in resolve_levels(levels, DEFAULT_QUOTIENT_LEVELS, module.group):
        quotient = module.group.quotient(n)
        raw = module.generators * quotient.index - rank(quotient)
        rows.append(Record("quotient-betti", n, quotient.index, raw))
    return rows


def virtual_ore_dim(module: PresentedModule, subgroup, seed: int = 0) -> Record:
    """Ore dimension of the restriction to a finite-index Z^d subgroup,
    normalized by the index."""
    restricted, index = restrict_scalars(module.matrix, subgroup)
    report = rank_laurent(to_laurent(restricted), seed=seed)
    return Record("virtual-ore", 0, index, restricted.ncols - report.rank,
                  report.certified)


def default_subgroup(group: Group):
    """The canonical whitelisted subgroup used by reports: <z> for the
    dihedral model, the doubled lattice for Z^d."""
    if isinstance(group, Zd):
        return Sublattice(2)
    return TranslationSubgroup()


def approx_report(module: PresentedModule, levels: Optional[Sequence[int]] = None,
                  tol: Fraction = Fraction(1, 20),
                  seed: int = 0) -> Tuple[List[Record], Dict[str, bool]]:
    """Every applicable dimension function, and whether each table agrees
    with the exact target.

    The rows are the target, if any, then the quotient and the Foelner
    tables.  The target is the Ore dimension for Z^d modules and the
    virtual Ore dimension for dihedral modules; Heisenberg modules get
    tables only.  ``levels`` applies to both tables; None gives each its
    group default.  Agreement compares each table's last row against the
    target at tolerance ``tol``; nothing is extrapolated.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    kind = module.group.kind
    targets = []
    if kind == "Zd":
        targets.append(ore_dim(module, seed=seed))
    elif kind == "Dinf":
        targets.append(virtual_ore_dim(module, default_subgroup(module.group), seed=seed))
    tables = (quotient_betti_dim(module, levels), elek_truncation_dim(module, levels))
    agreement = {table[-1].method: abs(table[-1].normalized - target.normalized) <= tol
                 for target in targets for table in tables}
    return targets + tables[0] + tables[1], agreement
