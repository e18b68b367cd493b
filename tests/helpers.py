"""Independent oracles and samplers for the test suite.

Everything here is deliberately naive (plain lists and dicts, nothing from
the package's elimination kernels) so that expected values frozen in the
tests come from a second route.  The textbook rank oracle is
``oracle_rank``, list-based Gauss-Jordan elimination.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

from oredim.errors import SchemaError
from oredim.fields import PrimeField, Rationals
from oredim.groupring import GroupRingElement, GroupRingMatrix
from oredim.groups import Zd
from oredim.linalg import PlainMatrix


def oracle_rank(rows, field):
    """Rank of a list of rows over ``field`` by Gauss-Jordan elimination
    on plain lists, independent of the numpy and sparse kernels."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows))
                    if not field.is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][c])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y))
                           for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def oracle_rank_modp(int_rows, p):
    return oracle_rank(int_rows, PrimeField(p))


def oracle_rank_q(rows):
    return oracle_rank([[Fraction(x) for x in r] for r in rows], Rationals())


def plain_product(x, y):
    """The product of two PlainMatrix operands, summed cell by cell."""
    f = x.field
    a, b = x.to_dense(), y.to_dense()
    entries = {}
    for i in range(x.nrows):
        for j in range(y.ncols):
            total = f.zero
            for k in range(x.ncols):
                total = f.add(total, f.mul(a[i][k], b[k][j]))
            entries[(i, j)] = total
    return PlainMatrix(f, x.nrows, y.ncols, entries)


def oracle_transport(matrix, elements, locate):
    """The dict-and-loop transport: row (i, u) gets entry (i, j)'s
    coefficient at g on column (j, locate(elements[u] * g)), in Python
    ints throughout; ``locate`` returns None for a product outside the
    basis, and that term is dropped."""
    n = len(elements)
    acc = {}
    for (i, j), el in matrix.entries.items():
        for g, a in el.terms.items():
            for u, f in enumerate(elements):
                v = locate(matrix.group.mul(f, g))
                if v is not None:
                    key = (i * n + u, j * n + v)
                    acc[key] = acc.get(key, 0) + a
    return PlainMatrix(matrix.field, matrix.nrows * n, matrix.ncols * n, acc)


def oracle_induce(matrix, quotient):
    return oracle_transport(matrix, quotient.domain.elements, quotient.coset_of)


def oracle_compress(matrix, folner):
    return oracle_transport(matrix, folner.elements, folner.index)


def unit_diagonal(field, group, n, k, g, coeff):
    """The n x n identity over k[G] with entry (k, k) the unit coeff*g.

    Left multiplication by it scales row k of a matrix by the unit on the
    left; right multiplication scales column k on the right.
    """
    entries = {(i, i): {group.identity(): 1} for i in range(n)}
    entries[(k, k)] = {g: coeff}
    return GroupRingMatrix(field, group, n, n, entries)


# -- word metric oracle ------------------------------------------------------

def word_ball(group, radius):
    """Word length of every element of length <= radius, by breadth-first
    search over the canonical generators."""
    dist = {group.identity(): 0}
    frontier = [group.identity()]
    for r in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for s in group.generators():
                h = group.mul(g, s)
                if h not in dist:
                    dist[h] = r
                    nxt.append(h)
        frontier = nxt
    return dist


def folner_boundary(folner, radius):
    """Elements within word distance `radius` of both the set and its
    complement, sorted.

    g = f.b with f in F and b in the radius-ball is within the radius of F
    (the generating sets are symmetric), and every element within the
    radius of F arises so; it is near the complement iff some g.b leaves F.
    """
    if radius == 0:
        return ()
    group = folner.group
    ball = list(word_ball(group, radius))
    members = set(folner)
    near = {group.mul(f, b) for f in members for b in ball}
    return tuple(sorted(g for g in near
                        if any(group.mul(g, b) not in members for b in ball)))


def support_radius(matrix):
    """Diameter of supp(A) united with its inverses in the word metric; 0
    for the zero matrix."""
    group = matrix.group
    supp = {g for el in matrix.entries.values() for g in el.terms}
    supp |= {group.inv(g) for g in supp}
    gaps = {group.mul(group.inv(a), b) for a in supp for b in supp}
    radius = 0
    while not gaps <= word_ball(group, radius).keys():
        radius += 1
    return radius


# -- polynomials over F_p (coefficient lists, constant term first) ------------

def poly_rem(a, mod, p):
    """a mod the monic polynomial `mod`, padded to deg(mod) coefficients."""
    a = [x % p for x in a]
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for k in range(dm + 1):
                a[i - dm + k] = (a[i - dm + k] - c * mod[k]) % p
    return (a + [0] * dm)[:dm]


def polymul(a, b, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    return prod


def polymulmod(a, b, mod, p):
    return poly_rem(polymul(a, b, p), mod, p)


def polypowmod(a, n, mod, p):
    """a^n modulo the monic polynomial `mod`, by square and multiply."""
    out = poly_rem([1], mod, p)
    while n:
        if n & 1:
            out = polymulmod(out, a, mod, p)
        a = polymulmod(a, a, mod, p)
        n >>= 1
    return out


def polygcd(a, b, p):
    """Monic gcd over F_p; the zero polynomial is []."""
    def trim(c):
        c = [x % p for x in c]
        while c and not c[-1]:
            c.pop()
        return c

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        b = [x * inv % p for x in b]
        a, b = b, trim(poly_rem(a, b, p))
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def rabin_irreducible(f, p):
    """Rabin's test for the monic f of degree e over F_p: x^(p^e) = x mod f,
    and gcd(x^(p^(e/q)) - x, f) = 1 for every prime q dividing e."""
    e = len(f) - 1
    x = poly_rem([0, 1], f, p)

    def minus_x(g):
        return [(c - d) % p for c, d in zip(g, x)]

    if any(minus_x(polypowmod(x, p ** e, f, p))):
        return False
    primes = [q for q in range(2, e + 1) if e % q == 0
              and all(q % d for d in range(2, q))]
    return all(polygcd(minus_x(polypowmod(x, p ** (e // q), f, p)), f, p) == [1]
               for q in primes)


def first_rabin_candidate(p, e, limit):
    """First polynomial passing ``rabin_irreducible``, tested one at a time,
    among the candidates ``_find_irreducible`` walks: ``limit`` draws of e
    coefficients each from random.Random(f"{p}:{e}"), made monic."""
    rng = random.Random(f"{p}:{e}")
    for _ in range(limit):
        f = [rng.randrange(p) for _ in range(e)] + [1]
        if rabin_irreducible(f, p):
            return f
    return None


def irreducible_by_trial_division(f, p):
    """Whether the monic f of degree e over F_p has no monic factor of
    degree 1..e//2.  The divisors of each degree k are tried all at once:
    x^(p^k) - x is the product of every monic irreducible whose degree
    divides k, so f has such a factor iff gcd(x^(p^k) - x, f) is not 1.
    Unlike Rabin's test, every k up to e//2 is tried."""
    x = poly_rem([0, 1], f, p)
    power = x
    for _ in range((len(f) - 1) // 2):
        power = polypowmod(power, p, f, p)
        if polygcd([(c - d) % p for c, d in zip(power, x)], f, p) != [1]:
            return False
    return True


def oracle_rank_ext(cells, modulus, p):
    """Rank over F_{p^e} = F_p[x]/(modulus) of a matrix of coefficient
    lists, by restriction of scalars: each cell b becomes the e x e block
    whose column l is b * x^l, and the rank over F_p of the realified
    matrix is e times the rank over F_{p^e}."""
    e = len(modulus) - 1
    rows = []
    for row in cells:
        blocks = [[polymulmod(b, [0] * l + [1], modulus, p) for l in range(e)]
                  for b in row]
        for k in range(e):
            rows.append([column[k] for block in blocks for column in block])
    rank = oracle_rank_modp(rows, p)
    assert rank % e == 0, (rank, e)
    return rank // e


# -- finite group Betti numbers ------------------------------------------------

def betti_oracle(d, n, field, i_max):
    """Betti numbers b_0..b_i_max of (Z/n)^d over ``field``: the Kuenneth
    convolution of those of Z/n, read off its periodic resolution, whose
    boundary maps alternate 0 (odd degrees) and multiplication by n (even
    degrees)."""
    def boundary_rank(i):
        if i < 1 or i % 2 == 1:
            return 0
        return 0 if field.is_zero(field.normalize(n)) else 1

    single = [1 - boundary_rank(i) - boundary_rank(i + 1) for i in range(i_max + 1)]
    out = single
    for _ in range(d - 1):
        out = [sum(out[j] * single[m - j] for j in range(m + 1))
               for m in range(i_max + 1)]
    return out


# -- polynomial determinant oracle (for tiny Laurent matrices) -------------

def _po_mul(a, b, field):
    out = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = field.add(out.get(e, field.zero), field.mul(va, vb))
            if field.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _po_add(a, b, field):
    out = dict(a)
    for e, v in b.items():
        s = field.add(out.get(e, field.zero), v)
        if field.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _po_neg(a, field):
    return {e: field.neg(v) for e, v in a.items()}


def _po_det(grid, field):
    """Cofactor expansion; grid is a square list-of-lists of poly dicts."""
    n = len(grid)
    if n == 0:
        return {(): field.one}
    if n == 1:
        return grid[0][0]
    total = {}
    for j in range(n):
        if not grid[0][j]:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in grid[1:]]
        term = _po_mul(grid[0][j], _po_det(minor, field), field)
        if j % 2:
            term = _po_neg(term, field)
        total = _po_add(total, term, field)
    return total


def oracle_laurent_rank(m):
    """Largest k with a nonzero k x k minor, by exhaustive cofactor
    expansion.  Only sensible for very small matrices."""
    field = m.field
    grid = [[dict(m.entry(i, j)) for j in range(m.ncols)] for i in range(m.nrows)]
    for k in range(min(m.nrows, m.ncols), 0, -1):
        for rows in itertools.combinations(range(m.nrows), k):
            for cols in itertools.combinations(range(m.ncols), k):
                sub = [[grid[i][j] for j in cols] for i in rows]
                if _po_det(sub, field):
                    return k
    return 0


def cleared_minor_degree(m):
    """The Schwartz-Zippel degree of a Laurent matrix: the most that
    min(r, s) distinct rows add up to, where a row counts the largest
    total degree of its terms after the row is divided by its least
    monomial (per variable, the least exponent over the row)."""
    def row_degree(i):
        exps = [e for (a, _), poly in m.entries.items() if a == i for e in poly]
        if not exps:
            return 0
        low = [min(column) for column in zip(*exps)]
        return max(sum(x - lo for x, lo in zip(e, low)) for e in exps)

    degrees = [row_degree(i) for i in range(m.nrows)]
    return max(sum(pick) for pick in
               itertools.combinations(degrees, min(m.nrows, m.ncols)))


def _oracle_decode_term(field, group, term, tpath):
    from oredim.jsonio import _expect_object, _get, decode_element, decode_scalar
    term = _expect_object(term, tpath)
    g = decode_element(group, _get(term, "g", tpath), tpath and f"{tpath}.g")
    return g, decode_scalar(field, _get(term, "coeff", tpath), tpath and f"{tpath}.coeff")


def oracle_decode_matrix(obj, path=""):
    """``jsonio.decode_matrix`` as it was before its one-walk decode: each
    node checked with its path, a malformed term decoded again to name it,
    and the entries passed through the ``GroupRingMatrix`` constructor."""
    from oredim.jsonio import (_expect_array, _expect_int, _expect_object, _get,
                               decode_field, decode_group)
    prefix = f"{path}." if path else ""
    obj = _expect_object(obj, path or "matrix")
    field = decode_field(_get(obj, "field", path or "matrix"), f"{prefix}field")
    group = decode_group(_get(obj, "group", path or "matrix"), f"{prefix}group")
    rows = _expect_int(_get(obj, "rows", path or "matrix"), f"{prefix}rows", minimum=0)
    cols = _expect_int(_get(obj, "cols", path or "matrix"), f"{prefix}cols", minimum=0)
    entries = {}
    for k, ent in enumerate(_expect_array(_get(obj, "entries", path or "matrix"),
                                          f"{prefix}entries")):
        epath = f"{prefix}entries[{k}]"
        ent = _expect_object(ent, epath)
        i = _expect_int(_get(ent, "row", epath), f"{epath}.row", minimum=0)
        j = _expect_int(_get(ent, "col", epath), f"{epath}.col", minimum=0)
        if i >= rows or j >= cols:
            raise SchemaError(epath, f"position ({i},{j}) outside a {rows}x{cols} matrix")
        terms = {}
        for t, term in enumerate(_expect_array(_get(ent, "terms", epath),
                                               f"{epath}.terms")):
            try:
                g, coeff = _oracle_decode_term(field, group, term, None)
            except SchemaError:
                _oracle_decode_term(field, group, term, f"{epath}.terms[{t}]")
                raise
            terms[g] = field.add(terms[g], coeff) if g in terms else coeff
        key = (i, j)
        if key in entries:
            raise SchemaError(epath, f"duplicate entry at position ({i},{j})")
        entries[key] = GroupRingElement.from_checked(field, group, terms)
    return GroupRingMatrix(field, group, rows, cols, entries)


# -- samplers ---------------------------------------------------------------

def random_element(rng, group, span=5):
    if isinstance(group, Zd):
        return tuple(rng.randint(-span, span) for _ in range(group.d))
    if group.kind == "Dinf":
        return (rng.randint(-span, span), rng.randrange(2))
    return (rng.randint(-span, span), rng.randint(-span, span),
            rng.randint(-span, span))


def random_ring_element(rng, field, group, max_terms=3, span=2):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        g = random_element(rng, group, span)
        if isinstance(field, PrimeField):
            c = rng.randrange(field.p)
        else:
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        terms[g] = field.add(terms.get(g, field.zero), field.normalize(c))
    return GroupRingElement(field, group, {g: v for g, v in terms.items()
                                           if not field.is_zero(v)})


def random_zd_matrix(rng, field, d, nrows, ncols, max_exp=2, min_exp=0):
    group = Zd(d)
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            terms = {}
            for e in itertools.product(range(min_exp, max_exp + 1), repeat=d):
                if isinstance(field, PrimeField):
                    c = rng.randrange(field.p)
                else:
                    c = rng.randint(-3, 3)
                if c:
                    terms[e] = c
            if terms:
                entries[(i, j)] = GroupRingElement(field, group, terms)
    return GroupRingMatrix(field, group, nrows, ncols, entries)
