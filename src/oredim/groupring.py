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

The two plain-matrix transports share ``_transport``, numpy index
arithmetic over a coordinate box, and differ only in how a product
``f * g`` is located in the basis: by its coset (the box index of the
product mod the quotient's moduli), or by its position in the Foelner box
(outside the box it is dropped).  It reduces the summed coefficients into
the field itself and hands the ``PlainMatrix`` its sorted (row, col,
value) lists without a per-entry ``normalize``.  ``restrict_scalars``
runs one loop for both supported subgroups, each the kernel of a quotient
whose fundamental domain gives the coset representatives.  That loop,
like the ring arithmetic, only adds raw coefficients: the
``GroupRingMatrix`` and ``GroupRingElement`` constructors reduce into the
field and drop zeros.

Over Q on Z^d and D_inf, ``dimensions.quotient_ranker`` ranks quotients
without ``induce_to_quotient``: it hands ``to_laurent`` of the matrix (on
D_inf, of its ``restrict_scalars`` to <z>, since k[D_inf/<z^n>]^r is
k[<z>/<z^n>]^(2r) with the restricted map) to
``linalg.rank_by_characters``.  The induced matrix stays the route for
F_p, the Heisenberg group and the levels that one refuses.

All plain matrices here act on row vectors, so the matrix of a composition
is the product of the matrices in application order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .errors import MismatchError, UnsupportedOperationError
from .fields import Field, PrimeField
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
    def from_checked(cls, field: Field, group: Group, terms) -> "GroupRingElement":
        """The element with ``terms``, whose keys ``group.check_element``
        returned and whose values are already normalized (by
        ``field.normalize``, ``field.parse_value`` or field arithmetic).
        Zeros are dropped; nothing is checked again."""
        el = cls.__new__(cls)
        el.field = field
        el.group = group
        el.terms = {g: v for g, v in terms.items() if not field.is_zero(v)}
        return el

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
        out = dict(self.terms)
        for g, v in other.terms.items():
            out[g] = out.get(g, 0) + v
        return GroupRingElement(self.field, self.group, out)

    def __neg__(self):
        return GroupRingElement(self.field, self.group,
                                {g: -v for g, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Convolution: (ab)(g) = sum over uv = g of a(u) b(v)."""
        self._check(other)
        mul = self.group.mul
        out: Dict[Element, object] = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                g = mul(u, v)
                out[g] = out.get(g, 0) + a * b
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
    return _transport(matrix, quotient.moduli, wrap=True)


def compress_to_folner(matrix: GroupRingMatrix, folner: FolnerSet) -> PlainMatrix:
    """Matrix of the two-sided truncation of the map to the Foelner span.

    Row (i, u) picks up entry (i, j)'s coefficient at g on column (j, v)
    exactly when f_u * g = f_v; products leaving the set are dropped.
    """
    if matrix.group != folner.group:
        raise MismatchError("group mismatch")
    return _transport(matrix, folner.sizes, wrap=False)


def _transport(matrix: GroupRingMatrix, sizes, wrap: bool) -> PlainMatrix:
    """The plain matrix whose row (i, u) gets entry (i, j)'s coefficient at
    g on column (j, v), where f_v = f_u * g for the elements f of the box
    ``0 <= . < sizes`` in lex order.  With ``wrap`` the product is first
    reduced mod ``sizes``, the quotient's moduli (its coset); without, a
    product outside the box is dropped (a Foelner truncation).

    Every g is brought into int64 range in Python ints first.  Reduction
    mod the moduli is a homomorphism, so the coset of f * g depends only
    on g mod the moduli.  A Foelner term with some |g[k]| >= reach[k]
    (``Group.reach``) moves no box element into the box and is dropped.
    What is left has coordinates of the order of the box sizes.

    The box is then multiplied by each distinct g at once
    (``Group.mul_arrays``) and located by one mixed-radix formula
    (``np.ravel_multi_index``, wrapping mod the moduli).  The
    (row, col, value) triples of all terms are sorted by (row, col), and
    the values of each cell summed with ``np.add.reduceat``: int64 residues
    below 2^31 over F_p, reduced mod p afterwards, and ``Fraction`` objects
    over Q.  Cells that sum to zero are dropped, and the rest, already
    sorted and reduced into the field, become the matrix's storage lists
    as they are (``PlainMatrix.from_sorted``).
    """
    field, group = matrix.field, matrix.group
    n = math.prod(sizes)
    nrows, ncols = matrix.nrows * n, matrix.ncols * n
    reach = None if wrap else group.reach(sizes)
    slots: Dict[Element, int] = {}
    term_row, term_col, term_g, term_val = [], [], [], []
    for (i, j), el in matrix.entries.items():
        for g, a in el.terms.items():
            if wrap:
                g = tuple(x % m for x, m in zip(g, sizes))
            elif any(abs(x) >= b for x, b in zip(g, reach)):
                continue
            term_row.append(i * n)
            term_col.append(j * n)
            term_g.append(slots.setdefault(g, len(slots)))
            term_val.append(a)
    if not term_val:
        return PlainMatrix(field, nrows, ncols)
    box = np.indices(sizes).reshape(len(sizes), n).T
    prods = group.mul_arrays(box, np.array(list(slots), dtype=np.int64)[:, None, :])
    coords = tuple(np.moveaxis(prods, -1, 0))
    if wrap:
        targets = np.ravel_multi_index(coords, sizes, mode="wrap")
    else:
        targets = np.ravel_multi_index(coords, sizes, mode="clip")
        targets[((prods < 0) | (prods >= sizes)).any(axis=-1)] = -1
    targets = targets[term_g]
    keep = targets >= 0
    rows = (np.array(term_row)[:, None] + np.arange(n))[keep]
    if not rows.size:
        return PlainMatrix(field, nrows, ncols)
    cols = (targets + np.array(term_col)[:, None])[keep]
    dtype = np.int64 if isinstance(field, PrimeField) else object
    vals = np.broadcast_to(np.array(term_val, dtype=dtype)[:, None], keep.shape)[keep]
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])])
    sums = np.add.reduceat(vals, starts)
    if isinstance(field, PrimeField):
        sums %= field.p
    nonzero = sums != 0
    live = starts[nonzero]
    return PlainMatrix.from_sorted(field, nrows, ncols, rows[live].tolist(),
                                   cols[live].tolist(), sums[nonzero].tolist())


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
    # H is the kernel of a quotient in the residual chain: (nZ)^d of
    # Z^d/(nZ)^d, and <z> of D_inf/<z^1>.  So x = h.v with v the domain
    # element of x's coset, and h is identified with a Z^d element by
    # dividing the first d (translation) coordinates of x by n.
    if isinstance(group, Zd) and isinstance(subgroup, Sublattice):
        quotient, d = group.quotient(subgroup.n), group.d
    elif isinstance(group, DihedralInfinite) and isinstance(subgroup, TranslationSubgroup):
        quotient, d = group.quotient(1), 1
    else:
        raise UnsupportedOperationError(
            f"unsupported subgroup restriction: {group!r} / {subgroup!r}")
    n, m = quotient.level, quotient.index
    acc: Dict[Tuple[int, int], Dict[Element, object]] = {}
    for (i, j), el in matrix.entries.items():
        for g, a in el.terms.items():
            for k, u in enumerate(quotient.domain.elements):
                x = group.mul(u, g)
                h = tuple(c // n for c in x[:d])
                bucket = acc.setdefault((i * m + k, j * m + quotient.coset_of(x)), {})
                bucket[h] = bucket.get(h, 0) + a
    return GroupRingMatrix(matrix.field, Zd(d), matrix.nrows * m,
                           matrix.ncols * m, acc), m


def to_laurent(matrix: GroupRingMatrix) -> LaurentMatrix:
    """View a matrix over k[Z^d] as a Laurent-polynomial matrix.

    The entries' terms are already checked Z^d elements (d-tuples, the
    exponent vectors) with nonzero normalized values, so they fill the
    Laurent matrix as they are, without its constructor's checks."""
    group = matrix.group
    if not isinstance(group, Zd):
        raise UnsupportedOperationError(
            f"Laurent form needs a Z^d group ring, got {group!r}")
    out = LaurentMatrix(matrix.field, group.d, matrix.nrows, matrix.ncols)
    out.entries = {key: dict(el.terms) for key, el in matrix.entries.items()}
    return out
