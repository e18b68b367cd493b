"""Group-ring arithmetic and exact ranks of the benchmark's own.

Nothing here imports oredim: the generator builds inputs with it and the
checker builds quotient and Foelner matrices with it, so every expected
value comes from a second route.

Coefficients are Python ints reduced mod p, or Fractions when p is None
(the field Q).  A group-ring element is a dict {group element: coeff}; a
matrix over k[G] is a dict {(row, col): element}.  Group elements follow
the wire format: integer vectors for Z^d, (a, e) for z^a s^e in the
infinite dihedral group, (x, y, c) for x^x y^y z^c in the Heisenberg
group.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

import numpy as np

# Prime for rational ranks: an integer matrix has the same rank over Q as
# mod P unless P divides every nonzero maximal minor.
ORACLE_PRIME = 2147483647


def gmul(kind, g, h):
    if kind == "Zd":
        return tuple(a + b for a, b in zip(g, h))
    if kind == "Dinf":
        (a, e), (b, f) = g, h
        return (a - b if e else a + b, e ^ f)
    (a, b, c), (x, y, z) = g, h
    return (a + x, b + y, c + z + b * x)


def norm(v, p):
    return v % p if p else Fraction(v)


def el_add(a, b, p):
    out = dict(a)
    for g, v in b.items():
        s = norm(out.get(g, 0) + v, p)
        if s:
            out[g] = s
        else:
            out.pop(g, None)
    return out


def el_mul(a, b, kind, p):
    out = {}
    for u, x in a.items():
        for v, y in b.items():
            g = gmul(kind, u, v)
            s = norm(out.get(g, 0) + x * y, p)
            if s:
                out[g] = s
            else:
                out.pop(g, None)
    return out


def mat_mul(a, b, kind, p):
    """Product of matrices over k[G] stored as {(i, j): element}."""
    by_row = {}
    for (k, j), el in b.items():
        by_row.setdefault(k, []).append((j, el))
    out = {}
    for (i, k), el in a.items():
        for j, el2 in by_row.get(k, ()):
            out[(i, j)] = el_add(out.get((i, j), {}), el_mul(el, el2, kind, p), p)
    return {key: el for key, el in out.items() if el}


# -- wire format -------------------------------------------------------------

def field_json(p):
    return {"type": "Fp", "p": p} if p else {"type": "Q"}


def coeff_json(v, p):
    if p:
        return int(v)
    v = Fraction(v)
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def group_json(kind, d):
    return {"type": "Zd", "d": d} if kind == "Zd" else {"type": kind}


def matrix_json(kind, d, p, nrows, ncols, entries):
    out = []
    for (i, j) in sorted(entries):
        terms = [{"coeff": coeff_json(v, p), "g": list(g)}
                 for g, v in sorted(entries[(i, j)].items())]
        out.append({"row": i, "col": j, "terms": terms})
    return {"group": group_json(kind, d), "field": field_json(p),
            "rows": nrows, "cols": ncols, "entries": out}


def matrix_from_json(obj):
    """(kind, d, p, nrows, ncols, entries) from the wire format."""
    grp, fld = obj["group"], obj["field"]
    kind = grp["type"]
    d = grp.get("d", 0)
    p = fld.get("p") if fld["type"] == "Fp" else None
    entries = {}
    for ent in obj["entries"]:
        el = {}
        for t in ent["terms"]:
            coeff = t["coeff"] if p else Fraction(t["coeff"])
            el = el_add(el, {tuple(t["g"]): norm(coeff, p)}, p)
        if el:
            entries[(ent["row"], ent["col"])] = el
    return kind, d, p, obj["rows"], obj["cols"], entries


# -- finite quotients and Foelner sets ----------------------------------------

def quotient_cosets(kind, d, n):
    """Coset representatives of the level-n normal subgroup and a function
    sending any element to its coset index."""
    if kind == "Zd":
        reps = list(itertools.product(range(n), repeat=d))
        return reps, lambda g: sum((a % n) * n ** k for k, a in enumerate(reversed(g)))
    if kind == "Dinf":
        reps = [(a, e) for a in range(n) for e in (0, 1)]
        return reps, lambda g: (g[0] % n) * 2 + g[1]
    reps = list(itertools.product(range(n), repeat=3))
    return reps, lambda g: ((g[0] % n) * n + g[1] % n) * n + g[2] % n


def folner_box(kind, d, n):
    if kind == "Zd":
        return list(itertools.product(range(n), repeat=d))
    if kind == "Dinf":
        return [(a, e) for a in range(n) for e in (0, 1)]
    return [(x, y, c) for x in range(n) for y in range(n) for c in range(n * n)]


def transport(kind, d, p, nrows, ncols, entries, n, how):
    """Integer numpy matrix of the map x -> x.A on k[G/G_n] (how="quotient")
    or of its truncation to the level-n Foelner box (how="folner"), rows
    (i, c) and columns (j, c.g).  Over Q each row of A is first scaled to
    integers, which changes no rank."""
    if how == "quotient":
        reps, coset = quotient_cosets(kind, d, n)
    else:
        reps = folner_box(kind, d, n)
        where = {g: k for k, g in enumerate(reps)}
        coset = where.get
    size = len(reps)
    scale = [1] * nrows
    if p is None:
        for (i, j), el in entries.items():
            for v in el.values():
                scale[i] = lcm(scale[i], v.denominator)
    mod = p or ORACLE_PRIME
    a = np.zeros((nrows * size, ncols * size), dtype=np.int64)
    for (i, j), el in entries.items():
        for g, v in el.items():
            coeff = int(v * scale[i]) % mod
            for c, rep in enumerate(reps):
                target = coset(gmul(kind, rep, g))
                if target is not None:
                    a[i * size + c, j * size + target] += coeff
    return a % mod, size


def rank_mod(a, p):
    """Rank over F_p by row echelon form; eliminates only to the right of
    the pivot column and only in rows that have a nonzero there."""
    a = np.array(a, dtype=np.int64) % p
    nrows, ncols = a.shape
    rank = 0
    for c in range(ncols):
        if rank == nrows:
            break
        nz = np.flatnonzero(a[rank:, c])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv], c:] = a[[piv, rank], c:]
        a[rank, c:] = a[rank, c:] * pow(int(a[rank, c]), p - 2, p) % p
        below = rank + 1 + np.flatnonzero(a[rank + 1:, c])
        if below.size:
            a[below, c:] = (a[below, c:]
                            - a[below, c:c + 1] * a[rank, c:]) % p
        rank += 1
    return rank
