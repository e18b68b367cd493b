"""The three built-in amenable group models.

Every element is a tuple of integers in a unique normal form:

* ``Zd(d)``      -- integer vectors of length d.
* ``DihedralInfinite`` -- pairs (a, eps) encoding z^a s^eps with the
  relation s z s^(-1) = z^(-1); multiplication is
  (a, e)(a', e') = (a + (-1)^e a', e xor e').
* ``Heisenberg`` -- triples (a, b, c) encoding x^a y^b z^c with z = [y, x]
  central; multiplication is (a,b,c)(a',b',c') = (a+a', b+b', c+c'+b*a').

Each model carries a canonical symmetric generating set, a Foelner
sequence of boxes, and a residual chain of finite-index normal subgroups
with explicit fundamental domains and coset actions.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Tuple

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
        _check_level(n)
        elems = [tuple(v) for v in itertools.product(range(n), repeat=self.d)]
        return FolnerSet(self, n, tuple(sorted(elems)))

    def quotient(self, level: int) -> "FiniteQuotient":
        _check_level(level)
        domain = self.folner_set(level)

        def coset_of(g, n=level, d=self.d):
            idx = 0
            for a in g:
                idx = idx * n + (a % n)
            return idx

        return FiniteQuotient(self, level, level ** self.d, domain, coset_of)


@dataclass(frozen=True)
class DihedralInfinite(Group):
    kind = "Dinf"

    def identity(self):
        return (0, 0)

    def mul(self, g, h):
        a, e = g
        b, f = h
        return (a - b if e else a + b, e ^ f)

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
        _check_level(n)
        elems = [(a, e) for a in range(n) for e in (0, 1)]
        return FolnerSet(self, n, tuple(sorted(elems)))

    def quotient(self, level):
        # G_n = <z^n> is normal: s z^n s^(-1) = z^(-n).
        _check_level(level)
        domain = self.folner_set(level)

        def coset_of(g, n=level):
            a, e = g
            return (a % n) * 2 + e

        return FiniteQuotient(self, level, 2 * level, domain, coset_of)


@dataclass(frozen=True)
class Heisenberg(Group):
    kind = "Heis"

    def identity(self):
        return (0, 0, 0)

    def mul(self, g, h):
        a, b, c = g
        x, y, z = h
        return (a + x, b + y, c + z + b * x)

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
        _check_level(n)
        elems = [(x, y, c)
                 for x in range(n) for y in range(n) for c in range(n * n)]
        return FolnerSet(self, n, tuple(sorted(elems)))

    def quotient(self, level):
        # Reduction mod n is a homomorphism because the product rule is
        # polynomial; its kernel is the congruence subgroup of level n.
        _check_level(level)
        n = level
        elems = [(x, y, c) for x in range(n) for y in range(n) for c in range(n)]
        domain = FolnerSet(self, level, tuple(sorted(elems)))

        def coset_of(g, n=level):
            a, b, c = g
            return ((a % n) * n + (b % n)) * n + (c % n)

        return FiniteQuotient(self, level, n ** 3, domain, coset_of)


def _check_level(n: int):
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"level must be a positive integer, got {n}")


class FolnerSet:
    """A finite subset of a group with a fixed deterministic ordering."""

    def __init__(self, group: Group, level: int, elements: Tuple[Element, ...]):
        if not elements:
            raise ValueError("Foelner set must be nonempty")
        self.group = group
        self.level = level
        self.elements = elements
        self._index = {g: i for i, g in enumerate(elements)}
        if len(self._index) != len(elements):
            raise ValueError("Foelner set contains duplicates")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self._index

    def index(self, g) -> int:
        return self._index[g]

    def __repr__(self):
        return f"FolnerSet({self.group!r}, level={self.level}, size={len(self)})"


class FiniteQuotient:
    """A finite quotient G/G_n with fundamental domain and coset action.

    ``domain`` lists coset representatives in the canonical order;
    ``coset_of`` maps any group element to the index of its coset.  The
    right coset action (c, g) -> c.g is well defined because every G_n in
    the built-in residual chains is normal.
    """

    def __init__(self, group, level, index, domain: FolnerSet, coset_of):
        self.group = group
        self.level = level
        self.index = index
        self.domain = domain
        self._coset_of = coset_of
        if len(domain) != index:
            raise ValueError("fundamental domain size does not equal the index")

    def coset_of(self, g: Element) -> int:
        return self._coset_of(g)

    def act(self, c: int, g: Element) -> int:
        """Index of the coset (representative of c) * g."""
        return self._coset_of(self.group.mul(self.domain.elements[c], g))

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

