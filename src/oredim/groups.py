"""The three built-in amenable group models.

Every element is a tuple of integers in a unique normal form:

* ``Zd(d)``      -- integer vectors of length d.
* ``DihedralInfinite`` -- pairs (a, eps) encoding z^a s^eps with the
  relation s z s^(-1) = z^(-1); multiplication is
  (a, e)(a', e') = (a + (-1)^e a', e xor e').
* ``Heisenberg`` -- triples (a, b, c) encoding x^a y^b z^c with z = [y, x]
  central; multiplication is (a,b,c)(a',b',c') = (a+a', b+b', c+c'+b*a').

Each model carries a canonical symmetric generating set, a Foelner
sequence and a residual chain of finite-index normal subgroups.  In all
three models both are coordinate boxes in the normal form:

* the Foelner set ``F_n`` is the box ``0 <= g[k] < sizes[k]`` in lex
  order, with sizes ``(n,)*d`` on Z^d, ``(n, 2)`` on D_inf and
  ``(n, n, n^2)`` on H;
* the quotient ``G/G_n`` is reduction of the coordinates mod ``moduli``,
  a homomorphism because each product rule commutes with that reduction;
  the moduli are ``(n,)*d``, ``(n, 2)`` and ``(n, n, n)``, the
  fundamental domain is the box of the same sizes, and a coset is the box
  index of ``g mod moduli``.

Each model also has its product rule on int64 arrays (``mul_arrays``), so
that a transport multiplies a whole box by one element at once, and a
bound on how far a box reaches (``reach``), so that it can drop an
element no box element multiplies back into the box.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

Element = Tuple[int, ...]

class Group:
    """Common interface of the three group models."""

    kind = "?"

    def identity(self) -> Element:
        raise NotImplementedError

    def mul(self, g: Element, h: Element) -> Element:
        raise NotImplementedError

    def inv(self, g: Element) -> Element:
        raise NotImplementedError

    def generators(self) -> Tuple[Element, ...]:
        """Canonical symmetric generating set."""
        raise NotImplementedError

    def mul_arrays(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """``mul`` on int64 arrays of normal forms, coordinates on the last
        axis; the two arrays broadcast against each other."""
        raise NotImplementedError

    def reach(self, sizes: Tuple[int, ...]) -> Tuple[int, ...]:
        """Bounds b with |h[k]| < b[k] for every h = f^(-1) * g with f and g
        in the box ``0 <= . < sizes``: an element h outside them moves no
        box element into the box."""
        raise NotImplementedError

    def check_element(self, g) -> Element:
        raise NotImplementedError

    # -- Foelner sequence and residual chain ---------------------------

    def folner_set(self, n: int) -> "FolnerSet":
        raise NotImplementedError

    def quotient(self, level: int) -> "FiniteQuotient":
        raise NotImplementedError


@dataclass(frozen=True)
class Zd(Group):
    d: int

    kind = "Zd"

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"Zd needs d >= 1, got {self.d}")

    def identity(self) -> Element:
        return (0,) * self.d

    def mul(self, g, h):
        if len(g) != self.d or len(h) != self.d:
            raise ValueError("element arity does not match the group")
        return tuple(a + b for a, b in zip(g, h))

    def mul_arrays(self, g, h):
        return g + h

    def reach(self, sizes):
        return sizes

    def inv(self, g):
        return tuple(-a for a in g)

    def generators(self):
        gens = []
        for i in range(self.d):
            e = [0] * self.d
            e[i] = 1
            gens.append(tuple(e))
            e[i] = -1
            gens.append(tuple(e))
        return tuple(gens)

    def check_element(self, g):
        g = tuple(g)
        if len(g) != self.d or not all(isinstance(a, int) for a in g):
            raise ValueError(f"not a Z^{self.d} element: {g}")
        return g

    def folner_set(self, n: int) -> "FolnerSet":
        return FolnerSet(self, n, (n,) * self.d)

    def quotient(self, level: int) -> "FiniteQuotient":
        return FiniteQuotient(self, level, (level,) * self.d)


@dataclass(frozen=True)
class DihedralInfinite(Group):
    kind = "Dinf"

    def identity(self):
        return (0, 0)

    def mul(self, g, h):
        a, e = g
        b, f = h
        return (a - b if e else a + b, e ^ f)

    def mul_arrays(self, g, h):
        a, e = g[..., 0], g[..., 1]
        return np.stack((a + np.where(e == 1, -h[..., 0], h[..., 0]), e ^ h[..., 1]),
                        axis=-1)

    def reach(self, sizes):
        # f^(-1) g is (b - a, .) or (a - b, .) for f = (a, .), g = (b, .)
        return sizes

    def inv(self, g):
        a, e = g
        return (a, 1) if e else (-a, 0)

    def generators(self):
        return ((1, 0), (-1, 0), (0, 1))

    def check_element(self, g):
        g = tuple(g)
        if len(g) != 2 or not isinstance(g[0], int) or g[1] not in (0, 1):
            raise ValueError(f"not an infinite-dihedral element: {g}")
        return g

    def folner_set(self, n):
        return FolnerSet(self, n, (n, 2))

    def quotient(self, level):
        # G_n = <z^n> is normal: s z^n s^(-1) = z^(-n).
        return FiniteQuotient(self, level, (level, 2))


@dataclass(frozen=True)
class Heisenberg(Group):
    kind = "Heis"

    def identity(self):
        return (0, 0, 0)

    def mul(self, g, h):
        a, b, c = g
        x, y, z = h
        return (a + x, b + y, c + z + b * x)

    def mul_arrays(self, g, h):
        b = g[..., 1]
        x = h[..., 0]
        return np.stack((g[..., 0] + x, b + h[..., 1], g[..., 2] + h[..., 2] + b * x),
                        axis=-1)

    def reach(self, sizes):
        # f^(-1) g = (x - a, y - b, z - c - b (x - a)) for f = (a, b, c) and
        # g = (x, y, z); the central term is below sizes[2] + sizes[0]*sizes[1].
        return (sizes[0], sizes[1], sizes[2] + sizes[0] * sizes[1])

    def inv(self, g):
        a, b, c = g
        return (-a, -b, a * b - c)

    def generators(self):
        return ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))

    def check_element(self, g):
        g = tuple(g)
        if len(g) != 3 or not all(isinstance(a, int) for a in g):
            raise ValueError(f"not a Heisenberg element: {g}")
        return g

    def folner_set(self, n):
        # The (n, n, n^2) box: commutators shift the central coordinate by
        # O(n) per step, so the relative boundary decays like 1/n.
        return FolnerSet(self, n, (n, n, n * n))

    def quotient(self, level):
        # The kernel of reduction mod n is the congruence subgroup of level n.
        return FiniteQuotient(self, level, (level, level, level))


class FolnerSet:
    """The box ``0 <= g[k] < sizes[k]`` of a group, in lex order.

    The transports read only ``sizes``; the element tuple and its index
    are built on first use."""

    def __init__(self, group: Group, level: int, sizes: Tuple[int, ...]):
        if not isinstance(level, int) or level < 1:
            raise ValueError(f"level must be a positive integer, got {level}")
        self.group = group
        self.level = level
        self.sizes = sizes

    @functools.cached_property
    def elements(self) -> Tuple[Element, ...]:
        return tuple(itertools.product(*map(range, self.sizes)))

    @functools.cached_property
    def _index(self):
        return {g: i for i, g in enumerate(self.elements)}

    def __len__(self):
        return math.prod(self.sizes)

    def __iter__(self):
        return iter(self.elements)

    def index(self, g) -> Optional[int]:
        """Position of g in the box, or None if g lies outside it."""
        return self._index.get(g)

    def __repr__(self):
        return f"FolnerSet({self.group!r}, level={self.level}, size={len(self)})"


class FiniteQuotient:
    """The finite quotient G/G_n given by reduction of coordinates mod
    ``moduli``.

    ``domain`` is the box of sizes ``moduli``, the coset representatives
    in the canonical order; ``coset_of`` maps any group element to the
    index of its coset.  The right coset action (c, g) -> c.g is well
    defined because every G_n in the built-in residual chains is normal.
    """

    def __init__(self, group: Group, level: int, moduli: Tuple[int, ...]):
        self.group = group
        self.level = level
        self.moduli = moduli
        self.domain = FolnerSet(group, level, moduli)
        self.index = len(self.domain)

    def coset_of(self, g: Element) -> int:
        """The box index of g mod moduli."""
        c = 0
        for a, m in zip(g, self.moduli):
            c = c * m + a % m
        return c

    def act(self, c: int, g: Element) -> int:
        """Index of the coset (representative of c) * g."""
        return self.coset_of(self.group.mul(self.domain.elements[c], g))

    def action_permutation(self, g: Element) -> Tuple[int, ...]:
        return tuple(self.act(c, g) for c in range(self.index))

    def __repr__(self):
        return f"FiniteQuotient({self.group!r}, level={self.level}, index={self.index})"


# -- JSON descriptors ----------------------------------------------------

def group_to_json(group: Group) -> dict:
    if isinstance(group, Zd):
        return {"type": "Zd", "d": group.d}
    if isinstance(group, DihedralInfinite):
        return {"type": "Dinf"}
    if isinstance(group, Heisenberg):
        return {"type": "Heis"}
    raise TypeError(f"unknown group {group!r}")

