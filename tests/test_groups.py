import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import folner_boundary, random_element, word_ball
from oredim.groups import DihedralInfinite, Heisenberg, Zd

Z1 = Zd(1)
Z2 = Zd(2)
DINF = DihedralInfinite()
HEIS = Heisenberg()
MODELS = (Z1, Z2, DINF, HEIS)


# -- multiplication and normal forms ---------------------------------------

def test_z2_mul():
    assert Z2.mul((1, 2), (3, -1)) == (4, 1)


def test_dihedral_mul_example():
    # z^2 s * z^3 = z^{-1} s
    assert DINF.mul((2, 1), (3, 0)) == (-1, 1)


@pytest.mark.parametrize("group", MODELS)
def test_identity_neutral(group):
    rng = random.Random(11)
    e = group.identity()
    for _ in range(50):
        g = random_element(rng, group)
        assert group.mul(g, e) == g
        assert group.mul(e, g) == g


@pytest.mark.parametrize("group", MODELS)
def test_associativity_and_inverses_randomized(group):
    rng = random.Random(13)
    e = group.identity()
    for _ in range(1000):
        g, h, k = (random_element(rng, group) for _ in range(3))
        assert group.mul(group.mul(g, h), k) == group.mul(g, group.mul(h, k))
        assert group.mul(g, group.inv(g)) == e
        assert group.mul(group.inv(g), g) == e


@pytest.mark.parametrize("group", MODELS)
def test_mul_arrays_matches_mul(group):
    rng = random.Random(19)
    gs = [random_element(rng, group, span=50) for _ in range(40)]
    hs = [random_element(rng, group, span=50) for _ in range(7)]
    got = group.mul_arrays(np.array(gs)[None, :, :], np.array(hs)[:, None, :])
    assert got.tolist() == [[list(group.mul(g, h)) for g in gs] for h in hs]


@pytest.mark.parametrize("group", MODELS)
def test_reach_bounds_every_box_quotient(group):
    for n in (1, 2, 3):
        box = group.folner_set(n)
        reach = group.reach(box.sizes)
        for f in box:
            for g in box:
                h = group.mul(group.inv(f), g)
                assert all(abs(x) < b for x, b in zip(h, reach)), (n, f, g)


def test_heisenberg_commutator_is_central():
    z = (0, 0, 1)
    rng = random.Random(17)
    for _ in range(50):
        g = random_element(rng, HEIS)
        assert HEIS.mul(g, z) == HEIS.mul(z, g)
    x, y = (1, 0, 0), (0, 1, 0)
    word = HEIS.mul(HEIS.mul(y, x), HEIS.mul(HEIS.inv(y), HEIS.inv(x)))
    assert word == z


def test_element_validation():
    with pytest.raises(ValueError):
        Z2.mul((1,), (0, 0))
    with pytest.raises(ValueError):
        DINF.check_element((1, 2))
    with pytest.raises(ValueError):
        HEIS.check_element((1, 2))


# -- word metric (the breadth-first oracle in helpers) -----------------------

def test_zd_distance_is_l1():
    for g, length in word_ball(Z2, 4).items():
        assert length == sum(abs(a) for a in g)
    assert word_ball(Z1, 4)[(-4,)] == 4


def test_dihedral_generator_distance():
    lengths = word_ball(DINF, 3)
    assert lengths[(0, 1)] == 1
    assert lengths[(3, 0)] == 3
    assert lengths[(2, 1)] == 3


def test_heisenberg_central_generator_distance():
    lengths = word_ball(HEIS, 4)
    assert lengths[(0, 0, 1)] == 4
    assert (0, 0, 1) not in word_ball(HEIS, 3)


@pytest.mark.parametrize("group", (DINF, HEIS))
def test_bfs_metric_symmetry(group):
    # |g| = |g^{-1}| since generating sets are symmetric
    lengths = word_ball(group, 4)
    for g, length in lengths.items():
        assert lengths[group.inv(g)] == length


def test_ball_sizes_z():
    assert len(word_ball(Z1, 3)) == 7
    assert len(word_ball(Z2, 1)) == 5
    assert len(word_ball(Z2, 2)) == 13


# -- Foelner sets ------------------------------------------------------------

def test_folner_sizes():
    assert len(Z2.folner_set(3)) == 9
    assert len(DINF.folner_set(4)) == 8
    assert len(HEIS.folner_set(2)) == 16
    assert len(HEIS.folner_set(3)) == 3 * 3 * 9


def test_folner_ordering_deterministic():
    # Boxes list their elements in lex order: the order of the sorted
    # element lists, which fixes the row and column order of every
    # transported matrix.
    cases = [
        (Z2.folner_set(2), ((0, 0), (0, 1), (1, 0), (1, 1))),
        (DINF.folner_set(3), ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1))),
        (HEIS.folner_set(2), tuple(sorted(
            (x, y, c) for c in range(4) for y in range(2) for x in range(2)))),
        (Z2.quotient(3).domain, tuple(sorted(
            (b, a) for a in range(3) for b in range(3)))),
        (DINF.quotient(2).domain, ((0, 0), (0, 1), (1, 0), (1, 1))),
        (HEIS.quotient(3).domain, tuple(sorted(
            (x, y, c) for c in range(3) for y in range(3) for x in range(3)))),
    ]
    for f, expected in cases:
        assert f.elements == expected
        assert [f.index(g) for g in f.elements] == list(range(len(expected)))
    f = DINF.folner_set(3)
    assert f.index((3, 0)) is None and f.index((-1, 1)) is None


def test_folner_rejects_level_zero():
    for group in MODELS:
        with pytest.raises(ValueError):
            group.folner_set(0)


def test_boundary_interval_example():
    f = Z1.folner_set(10)
    assert folner_boundary(f, 2) == ((-2,), (-1,), (0,), (1,), (8,), (9,), (10,), (11,))


def test_boundary_radius_zero_empty():
    for group in MODELS:
        assert folner_boundary(group.folner_set(3), 0) == ()


def test_boundary_square_count():
    # interior shell n^2-(n-2)^2 plus the 4n exterior cells at l1-distance
    # exactly 1 (corners sit at distance 2 and are excluded)
    for n in (2, 3, 4, 6):
        got = folner_boundary(Z2.folner_set(n), 1)
        assert len(got) == n * n - (n - 2) * (n - 2) + 4 * n
        # cross-check by direct enumeration over a window
        expected = set()
        box = {(a, b) for a in range(n) for b in range(n)}
        for a in range(-2, n + 2):
            for b in range(-2, n + 2):
                d_in = min(abs(a - u) + abs(b - v) for (u, v) in box)
                inside = (a, b) in box
                d_out = 0 if not inside else min(
                    min(abs(a), abs(b), n - 1 - a, n - 1 - b) + 1, n)
                if d_in <= 1 and d_out <= 1:
                    expected.add((a, b))
        assert set(got) == expected


@pytest.mark.parametrize("group,levels", [
    (Z1, (4, 8, 16, 32)),
    (Z2, (4, 8, 16, 32)),
    (DINF, (4, 8, 16, 32)),
    (HEIS, (2, 4, 8)),
])
def test_folner_property_decay(group, levels):
    for radius in (1, 2):
        ratios = []
        for n in levels:
            f = group.folner_set(n)
            ratios.append(Fraction(len(folner_boundary(f, radius)), len(f)))
        assert all(a > b for a, b in zip(ratios, ratios[1:])), (group, radius, ratios)
        if isinstance(group, Zd):
            for n, ratio in zip(levels, ratios):
                assert ratio <= Fraction(10 * radius * group.d, n)


# -- finite quotients --------------------------------------------------------

def test_quotient_indices():
    assert Z2.quotient(3).index == 9
    assert DINF.quotient(5).index == 10
    assert HEIS.quotient(2).index == 8


def test_quotient_rejects_level_zero():
    for group in MODELS:
        with pytest.raises(ValueError):
            group.quotient(0)


@pytest.mark.parametrize("group,level", [
    (Z1, 6), (Z2, 4), (DINF, 5), (HEIS, 3)])
def test_fundamental_domain_bijection(group, level):
    q = group.quotient(level)
    assert len(q.domain) == q.index
    seen = sorted(q.coset_of(g) for g in q.domain)
    assert seen == list(range(q.index))
    for c, g in enumerate(q.domain.elements):
        assert q.coset_of(g) == c


@pytest.mark.parametrize("group,level", [
    (Z1, 6), (Z2, 4), (DINF, 5), (HEIS, 3)])
def test_generator_actions_are_permutations(group, level):
    q = group.quotient(level)
    for g in group.generators():
        assert sorted(q.action_permutation(g)) == list(range(q.index)), g


MODULI_AT_4 = {Z1: (4,), Z2: (4, 4), DINF: (4, 2), HEIS: (4, 4, 4)}


@pytest.mark.parametrize("group", MODELS)
def test_coset_map_is_action(group):
    rng = random.Random(19)
    q = group.quotient(4)
    moduli = MODULI_AT_4[group]
    # the weight of coordinate k in the mixed-radix index of g mod moduli
    weights = [math.prod(moduli[k + 1:]) for k in range(len(moduli))]
    negative = 0
    for _ in range(100):
        g, h = random_element(rng, group), random_element(rng, group)
        c = q.coset_of(g)
        assert c == sum(a % m * w for a, m, w in zip(g, moduli, weights)), g
        assert q.act(c, h) == q.coset_of(group.mul(g, h))
        negative += min(g) < 0
    assert negative > 0


@pytest.mark.parametrize("group", MODELS)
def test_residual_chain_nesting(group):
    # for m | m', the level-m' kernel sits inside the level-m kernel
    rng = random.Random(23)
    for m, mp in ((2, 4), (2, 8), (4, 8), (3, 6)):
        qm, qmp = group.quotient(m), group.quotient(mp)
        e = group.identity()
        for _ in range(200):
            g = random_element(rng, group, span=12)
            if qmp.coset_of(g) == qmp.coset_of(e):
                assert qm.coset_of(g) == qm.coset_of(e)


@pytest.mark.parametrize("group", MODELS)
def test_quotients_separate_short_elements(group):
    # g acts trivially on G/G_n exactly when g lies in the normal G_n
    quotients = [group.quotient(n) for n in (2, 4, 8, 16, 32)]
    for g in word_ball(group, 3):
        if g == group.identity():
            continue
        assert any(q.action_permutation(g) != tuple(range(q.index))
                   for q in quotients), g


def test_heisenberg_quotient_is_congruence_kernel():
    q = HEIS.quotient(3)
    e = HEIS.identity()
    rng = random.Random(29)
    for _ in range(100):
        a, b, c = rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)
        g = (3 * a, 3 * b, 3 * c)
        assert q.coset_of(g) == q.coset_of(e)


def test_dihedral_quotient_normality():
    # conjugates of z^n stay in the kernel
    n = 4
    q = DINF.quotient(n)
    e = DINF.identity()
    zn = (n, 0)
    rng = random.Random(31)
    for _ in range(100):
        g = random_element(rng, DINF)
        conj = DINF.mul(DINF.mul(g, zn), DINF.inv(g))
        assert q.coset_of(conj) == q.coset_of(e)
