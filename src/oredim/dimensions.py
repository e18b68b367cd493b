"""Dimension functions for finitely presented modules over k[G].

For a module presented by an r x s matrix A:

* ``ore_dim``            -- s minus the rank of A over the rational
  function field k(t_1..t_d); only Z^d group rings localize to a
  commutative fraction field we can compute in directly.
* ``elek_truncation_dim`` -- per Foelner set F, the k-dimension of the
  truncated cokernel, s*|F| - rank of the compressed matrix, normalized
  by |F|.
* ``quotient_betti_dim`` -- per residual-chain level, s*N minus the rank
  of the induced matrix on the quotient, normalized by the index N.
* ``virtual_ore_dim``    -- Ore dimension of the restriction to a
  whitelisted finite-index Z^d subgroup, divided by the index.

Both take their rank from ``linalg.rank_laurent``; ``seed`` picks its
evaluation points, and ``certified`` says whether the rank is proved.

Tables never extrapolate: the exact target is reported when available and
an agreement flag compares the last table row against it at a user
tolerance, but no limit is ever declared.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import UnsupportedOperationError
from .groupring import (PresentedModule, Sublattice, TranslationSubgroup,
                        compress_to_folner, induce_to_quotient,
                        restrict_scalars, to_laurent)
from .groups import Group, Zd
from .linalg import rank_laurent, rank_plain


class Method(str, Enum):
    ORE = "ore"
    ELEK = "elek-truncation"
    QUOTIENT = "quotient-betti"
    VIRTUAL_ORE = "virtual-ore"


@dataclass(frozen=True)
class DimensionValue:
    value: Fraction
    method: Method
    certified: bool
    # value * normalizer is the raw dimension: the subgroup index for
    # virtual Ore dimensions, 1 otherwise.
    normalizer: int = 1

    def __post_init__(self):
        if self.value < 0:
            raise ValueError(f"dimension must be nonnegative, got {self.value}")


@dataclass(frozen=True)
class TableRow:
    level: int
    normalizer: int
    raw: int
    normalized: Fraction

    def __post_init__(self):
        if self.normalized != Fraction(self.raw, self.normalizer):
            raise ValueError("normalized value must equal raw/normalizer exactly")


@dataclass(frozen=True)
class ConvergenceTable:
    method: Method
    rows: Tuple[TableRow, ...]

    def __post_init__(self):
        levels = [r.level for r in self.rows]
        if levels != sorted(set(levels)):
            raise ValueError("levels must be strictly increasing")

    def last_normalized(self) -> Optional[Fraction]:
        return self.rows[-1].normalized if self.rows else None


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


def ore_dim(module: PresentedModule, seed: int = 0) -> DimensionValue:
    """Ore dimension of the module: generators minus rank over k(t_1..t_d)."""
    if not isinstance(module.group, Zd):
        raise UnsupportedOperationError(
            "Ore dimension directly computable only for Zd; use approximation")
    report = rank_laurent(to_laurent(module.matrix), seed=seed)
    value = Fraction(module.generators - report.rank)
    return DimensionValue(value, Method.ORE, report.certified)


def elek_truncation_dim(module: PresentedModule,
                        levels: Optional[Sequence[int]] = None) -> ConvergenceTable:
    """Dimensions of Foelner-truncated cokernels, normalized by |F_n|;
    ``levels`` defaults to the group's ``DEFAULT_FOLNER_LEVELS``."""
    levels = resolve_levels(levels, DEFAULT_FOLNER_LEVELS, module.group)
    matrix = module.matrix
    s = module.generators

    def row(n: int) -> TableRow:
        folner = module.group.folner_set(n)
        compressed = compress_to_folner(matrix, folner)
        raw = s * len(folner) - rank_plain(compressed)
        return TableRow(n, len(folner), raw, Fraction(raw, len(folner)))

    return ConvergenceTable(Method.ELEK, tuple(row(n) for n in levels))


def quotient_betti_dim(module: PresentedModule,
                       levels: Optional[Sequence[int]] = None) -> ConvergenceTable:
    """Normalized Betti numbers of the module along the residual chain;
    ``levels`` defaults to the group's ``DEFAULT_QUOTIENT_LEVELS``."""
    levels = resolve_levels(levels, DEFAULT_QUOTIENT_LEVELS, module.group)
    matrix = module.matrix
    s = module.generators

    def row(n: int) -> TableRow:
        quotient = module.group.quotient(n)
        induced = induce_to_quotient(matrix, quotient)
        raw = s * quotient.index - rank_plain(induced)
        return TableRow(n, quotient.index, raw, Fraction(raw, quotient.index))

    return ConvergenceTable(Method.QUOTIENT, tuple(row(n) for n in levels))


def virtual_ore_dim(module: PresentedModule, subgroup, seed: int = 0) -> DimensionValue:
    """Ore dimension of the restriction to a finite-index Z^d subgroup,
    normalized by the index."""
    restricted, index = restrict_scalars(module.matrix, subgroup)
    report = rank_laurent(to_laurent(restricted), seed=seed)
    raw = restricted.ncols - report.rank
    return DimensionValue(Fraction(raw, index), Method.VIRTUAL_ORE, report.certified,
                          index)


def default_subgroup(group: Group):
    """The canonical whitelisted subgroup used by reports: <z> for the
    dihedral model, the doubled lattice for Z^d."""
    if isinstance(group, Zd):
        return Sublattice(2)
    return TranslationSubgroup()


@dataclass(frozen=True)
class ReportConfig:
    # None stands for the module's group default.
    quotient_levels: Optional[Tuple[int, ...]] = None
    folner_levels: Optional[Tuple[int, ...]] = None
    tol: Fraction = Fraction(1, 20)
    seed: int = 0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class ApproxReport:
    """Juxtaposition of every dimension function computable for a module."""

    target: Optional[DimensionValue]
    tables: Tuple[ConvergenceTable, ...]
    agreement: Dict[str, bool]
    tol: Fraction

    def table(self, method: Method) -> Optional[ConvergenceTable]:
        for t in self.tables:
            if t.method == method:
                return t
        return None


def approx_report(module: PresentedModule, config: ReportConfig = ReportConfig()) -> ApproxReport:
    """Run every applicable dimension function and flag agreement.

    The exact target is the Ore dimension for Z^d modules and the virtual
    Ore dimension for dihedral modules; Heisenberg modules get tables
    only.  Agreement compares each table's last row against the target at
    the configured tolerance; nothing is extrapolated.
    """
    group = module.group
    target: Optional[DimensionValue] = None
    if isinstance(group, Zd):
        target = ore_dim(module, seed=config.seed)
    else:
        try:
            target = virtual_ore_dim(module, default_subgroup(group), seed=config.seed)
        except UnsupportedOperationError:
            target = None

    tables = (
        quotient_betti_dim(module, config.quotient_levels),
        elek_truncation_dim(module, config.folner_levels),
    )
    agreement: Dict[str, bool] = {}
    if target is not None:
        for t in tables:
            last = t.last_normalized()
            agreement[t.method.value] = (last is not None
                                         and abs(last - target.value) <= config.tol)
    return ApproxReport(target, tables, agreement, config.tol)
