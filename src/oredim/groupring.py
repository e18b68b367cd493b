"""Group-ring elements, matrices, presented modules, and matrix transports.

A module is presented as the cokernel of right multiplication by an r x s
matrix over k[G].  Three transports turn such a matrix into something a
rank kernel can chew on:

* ``induce_to_quotient``  -- the k-linear matrix of the induced map on
  k[G/G_n]^r -> k[G/G_n]^s in the coset basis (an (r*N) x (s*N) matrix).
* ``compress_to_folner``  -- project the map onto the span of a Foelner
  set on both sides (truncation; an (r*|F|) x (s*|F|) matrix).
* ``restrict_scalars``    -- view k[G] as a free module over k[H] for a
  whitelisted finite-index subgroup H and rewrite each entry as an m x m
  block over k[H] (m = [G:H]).

All plain matrices here act on row vectors, so the matrix of a composition
is the product of the matrices in application order.
"""
from __future__ import annotations

from typing import Dict, Tuple

from dataclasses import dataclass

from .errors import MismatchError, UnsupportedOperationError
from .fields import Field
from .groups import DihedralInfinite, Element, FiniteQuotient, FolnerSet, Group, Zd
from .linalg import LaurentMatrix, PlainMatrix


class GroupRingElement:
    """A finitely supported function G -> k with convolution product."""

    __slots__ = ("field", "group", "terms")

    def __init__(self, field: Field, group: Group, terms=None):
        self.field = field
        self.group = group
        clean: Dict[Element, object] = {}
        for g, v in (terms or {}).items():
            g = group.check_element(g)
            v = field.normalize(v)
            if not field.is_zero(v):
                clean[g] = v
        self.terms = clean

    @classmethod
    def zero(cls, field, group):
        return cls(field, group, {})

    def _check(self, other):
        if not isinstance(other, GroupRingElement):
            raise TypeError(f"expected GroupRingElement, got {type(other).__name__}")
        if other.field != self.field:
            raise MismatchError("field mismatch")
        if other.group != self.group:
            raise MismatchError("group mismatch")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        f = self.field
        out = dict(self.terms)
        for g, v in other.terms.items():
            s = f.add(out.get(g, f.zero), v)
            if f.is_zero(s):
                out.pop(g, None)
            else:
                out[g] = s
        return GroupRingElement(self.field, self.group, out)

    def __neg__(self):
        f = self.field
        return GroupRingElement(self.field, self.group,
                                {g: f.neg(v) for g, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Convolution: (ab)(g) = sum over uv = g of a(u) b(v)."""
        self._check(other)
        f, grp = self.field, self.group
        out: Dict[Element, object] = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                g = grp.mul(u, v)
                s = f.add(out.get(g, f.zero), f.mul(a, b))
                if f.is_zero(s):
                    out.pop(g, None)
                else:
                    out[g] = s
        return GroupRingElement(self.field, self.group, out)

    def __eq__(self, other):
        return (isinstance(other, GroupRingElement) and self.field == other.field
                and self.group == other.group and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.group, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{v}*{g}" for g, v in sorted(self.terms.items()))


class GroupRingMatrix:
    """An r x s matrix over k[G], stored sparsely by (row, col)."""

    def __init__(self, field: Field, group: Group, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix shape must be nonnegative")
        self.field = field
        self.group = group
        self.nrows = nrows
        self.ncols = ncols
        self.entries: Dict[Tuple[int, int], GroupRingElement] = {}
        for (i, j), el in (entries or {}).items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry ({i},{j}) outside a {nrows}x{ncols} matrix")
            if not isinstance(el, GroupRingElement):
                el = GroupRingElement(field, group, el)
            if el.field != field or el.group != group:
                raise MismatchError("matrix entries must share field and group")
            if not el.is_zero():
                self.entries[(i, j)] = el

    def entry(self, i, j) -> GroupRingElement:
        el = self.entries.get((i, j))
        return el if el is not None else GroupRingElement.zero(self.field, self.group)

    def is_zero(self) -> bool:
        return not self.entries

    def matmul(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if other.field != self.field or other.group != self.group:
            raise MismatchError("descriptor mismatch")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        acc: Dict[Tuple[int, int], GroupRingElement] = {}
        by_row: Dict[int, list] = {}
        for (i, k), el in other.entries.items():
            by_row.setdefault(i, []).append((k, el))
        for (i, j), el in self.entries.items():
            for k, el2 in by_row.get(j, []):
                prod = el * el2
                key = (i, k)
                acc[key] = acc[key] + prod if key in acc else prod
        return GroupRingMatrix(self.field, self.group, self.nrows, other.ncols, acc)

    def block_diag(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if other.field != self.field or other.group != self.group:
            raise MismatchError("descriptor mismatch")
        entries = dict(self.entries)
        for (i, j), el in other.entries.items():
            entries[(i + self.nrows, j + self.ncols)] = el
        return GroupRingMatrix(self.field, self.group,
                               self.nrows + other.nrows, self.ncols + other.ncols, entries)

    def __eq__(self, other):
        return (isinstance(other, GroupRingMatrix) and self.field == other.field
                and self.group == other.group and self.nrows == other.nrows
                and self.ncols == other.ncols and self.entries == other.entries)

    def __repr__(self):
        return (f"GroupRingMatrix({self.field!r}, {self.group!r}, "
                f"{self.nrows}x{self.ncols}, nnz={len(self.entries)})")


@dataclass(frozen=True)
class PresentedModule:
    """The cokernel of right multiplication by ``matrix`` on kG^r -> kG^s."""

    matrix: GroupRingMatrix

    @property
    def generators(self) -> int:
        return self.matrix.ncols

    @property
    def field(self) -> Field:
        return self.matrix.field

    @property
    def group(self) -> Group:
        return self.matrix.group


# -- transports -----------------------------------------------------------

def induce_to_quotient(matrix: GroupRingMatrix, quotient: FiniteQuotient) -> PlainMatrix:
    """Matrix of the induced map on k[G/G_n]^r -> k[G/G_n]^s.

    Basis vectors are (block, coset) pairs ordered block-major by the
    fundamental-domain ordering; row (i, c) maps to the sum over terms
    (g, a) of entry (i, j) of a * (c.g, j).  Distinct g may hit the same
    coset, so coefficients accumulate.
    """
    if matrix.group != quotient.group:
        raise MismatchError("group mismatch")
    field = matrix.field
    n = quotient.index
    acc: Dict[Tuple[int, int], object] = {}
    perms: Dict[Element, Tuple[int, ...]] = {}
    for (i, j), el in matrix.entries.items():
        for g, a in el.terms.items():
            perm = perms.get(g)
            if perm is None:
                perm = perms[g] = quotient.action_permutation(g)
            for c in range(n):
                key = (i * n + c, j * n + perm[c])
                s = field.add(acc.get(key, field.zero), a)
                if field.is_zero(s):
                    acc.pop(key, None)
                else:
                    acc[key] = s
    return PlainMatrix(field, matrix.nrows * n, matrix.ncols * n, acc)


def compress_to_folner(matrix: GroupRingMatrix, folner: FolnerSet) -> PlainMatrix:
    """Matrix of the two-sided truncation of the map to the Foelner span.

    Row (i, u) picks up entry (i, j)'s coefficient at g on column (j, v)
    exactly when f_u * g = f_v; products leaving the set are dropped.
    """
    if matrix.group != folner.group:
        raise MismatchError("group mismatch")
    field = matrix.field
    grp = matrix.group
    size = len(folner)
    acc: Dict[Tuple[int, int], object] = {}
    for (i, j), el in matrix.entries.items():
        for g, a in el.terms.items():
            for u, f in enumerate(folner.elements):
                target = grp.mul(f, g)
                if target in folner:
                    key = (i * size + u, j * size + folner.index(target))
                    s = field.add(acc.get(key, field.zero), a)
                    if field.is_zero(s):
                        acc.pop(key, None)
                    else:
                        acc[key] = s
    return PlainMatrix(field, matrix.nrows * size, matrix.ncols * size, acc)


@dataclass(frozen=True)
class Sublattice:
    """(nZ)^d inside Z^d; index n^d, representatives the [0,n)^d box."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"sublattice scale must be >= 1, got {self.n}")


@dataclass(frozen=True)
class TranslationSubgroup:
    """The translation subgroup <z> of the infinite dihedral group; index 2."""


def restrict_scalars(matrix: GroupRingMatrix, subgroup) -> Tuple[GroupRingMatrix, int]:
    """Rewrite A over k[G] as an (r*m) x (s*m) matrix over k[H].

    Supported pairs: (Z^d, (nZ)^d) and (D_inf, <z>).  Each entry becomes
    the m x m matrix of its right multiplication in the left k[H]-basis of
    coset representatives; returns the rewritten matrix together with the
    index m.  The subgroup is identified with Z^d (resp. Z) so the result
    is again a matrix over one of the built-in models.
    """
    group = matrix.group
    if isinstance(group, Zd) and isinstance(subgroup, Sublattice):
        return _restrict_lattice(matrix, subgroup.n), subgroup.n ** group.d
    if isinstance(group, DihedralInfinite) and isinstance(subgroup, TranslationSubgroup):
        return _restrict_dihedral(matrix), 2
    raise UnsupportedOperationError(
        f"unsupported subgroup restriction: {group!r} / {subgroup!r}")


def _restrict_lattice(matrix: GroupRingMatrix, n: int) -> GroupRingMatrix:
    import itertools

    group: Zd = matrix.group
    field = matrix.field
    d = group.d
    reps = sorted(itertools.product(range(n), repeat=d))
    rep_index = {r: k for k, r in enumerate(reps)}
    m = len(reps)
    new_group = Zd(d)
    acc: Dict[Tuple[int, int], Dict[Element, object]] = {}
    for (i, j), el in matrix.entries.items():
        for t, a in el.terms.items():
            for u in reps:
                total = tuple(x + y for x, y in zip(u, t))
                v = tuple(x % n for x in total)
                w = tuple(x // n for x in total)
                key = (i * m + rep_index[u], j * m + rep_index[v])
                bucket = acc.setdefault(key, {})
                s = field.add(bucket.get(w, field.zero), a)
                if field.is_zero(s):
                    bucket.pop(w, None)
                else:
                    bucket[w] = s
    entries = {k: GroupRingElement(field, new_group, terms)
               for k, terms in acc.items() if terms}
    return GroupRingMatrix(field, new_group, matrix.nrows * m, matrix.ncols * m, entries)


def _restrict_dihedral(matrix: GroupRingMatrix) -> GroupRingMatrix:
    # Left k[<z>]-basis {e, s}: e.(z^t s^eps) lands in column eps with
    # exponent t; s.(z^t s^eps) = z^(-t) s^(1+eps) lands in column 1-eps
    # with exponent -t.
    field = matrix.field
    new_group = Zd(1)
    acc: Dict[Tuple[int, int], Dict[Element, object]] = {}

    def put(key, w, a):
        bucket = acc.setdefault(key, {})
        s = field.add(bucket.get(w, field.zero), a)
        if field.is_zero(s):
            bucket.pop(w, None)
        else:
            bucket[w] = s

    for (i, j), el in matrix.entries.items():
        for (t, eps), a in el.terms.items():
            put((2 * i + 0, 2 * j + eps), (t,), a)
            put((2 * i + 1, 2 * j + (1 - eps)), (-t,), a)
    entries = {k: GroupRingElement(field, new_group, terms)
               for k, terms in acc.items() if terms}
    return GroupRingMatrix(field, new_group, matrix.nrows * 2, matrix.ncols * 2, entries)


def to_laurent(matrix: GroupRingMatrix) -> LaurentMatrix:
    """View a matrix over k[Z^d] as a Laurent-polynomial matrix."""
    group = matrix.group
    if not isinstance(group, Zd):
        raise UnsupportedOperationError(
            f"Laurent form needs a Z^d group ring, got {group!r}")
    entries = {key: dict(el.terms) for key, el in matrix.entries.items()}
    return LaurentMatrix(matrix.field, group.d, matrix.nrows, matrix.ncols, entries)
