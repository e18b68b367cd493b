import random
from fractions import Fraction

import pytest

from oredim.fields import PrimeField, Rationals, is_prime

F2 = PrimeField(2)
F7 = PrimeField(7)
Q = Rationals()


def test_char_2_addition():
    assert F2.add(1, 1) == 0


def test_f7_product_example():
    assert F7.mul(3, 5) == 1


def test_f7_products_exhaustive():
    for a in range(7):
        for b in range(7):
            assert F7.mul(a, b) == (a * b) % 7


def test_rational_addition():
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)


def test_f7_inverse_against_exhaustive_search():
    for a in range(1, 7):
        inv = F7.inv(a)
        assert (a * inv) % 7 == 1
    assert F7.inv(3) == 5


def test_f2_inverse_identity():
    assert F2.inv(1) == 1


def test_rational_inverse():
    assert Q.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        F7.inv(0)
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        Q.inv(Q.zero)


def test_double_inverse_is_identity():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randrange(1, 7)
        assert F7.inv(F7.inv(a)) == a
        q = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        assert Q.inv(Q.inv(q)) == q


@pytest.mark.parametrize("field", [F2, PrimeField(5), F7, Q])
def test_field_axioms_randomized(field):
    rng = random.Random(42)

    def sample():
        if isinstance(field, PrimeField):
            return field.normalize(rng.randrange(field.p))
        return field.normalize(Fraction(rng.randint(-20, 20), rng.randint(1, 9)))

    add, mul = field.add, field.mul
    for _ in range(1000):
        a, b, c = sample(), sample(), sample()
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert add(a, field.neg(a)) == field.zero
        assert field.sub(a, b) == add(a, field.neg(b))


def test_large_prime_no_overflow():
    # p just below 2^31; the point is that products of residues stay exact
    p = 2147483647
    field = PrimeField(p)
    rng = random.Random(3)
    for _ in range(100):
        a, b = rng.randrange(p), rng.randrange(p)
        assert field.mul(a, b) == (a * b) % p
        assert field.add(a, b) == (a + b) % p


def test_prime_validation():
    for bad in (0, 1, 4, 9, 2**31, 2**31 + 11, -7):
        with pytest.raises(ValueError):
            PrimeField(bad)
    # boundary prime is accepted
    PrimeField(2147483647)


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(3) and is_prime(97) and is_prime(2147483647)
    for n in (0, 1, 4, 91, 561, 1105, 2147483647 - 1):
        assert not is_prime(n)


def test_rational_normalization():
    s = Q.normalize(Fraction(2, -4))
    assert s == Fraction(-1, 2)
    assert s.denominator == 2 and s.denominator > 0


def test_prime_field_normalizes_fractions():
    # 1/2 == 4 in F_7
    assert F7.normalize(Fraction(1, 2)) == 4
    with pytest.raises(ZeroDivisionError):
        F2.normalize(Fraction(1, 2))


def test_value_json_round_trip():
    assert F7.parse_value(F7.value_to_json(5)) == 5
    assert Q.parse_value(Q.value_to_json(Fraction(-3, 4))) == Fraction(-3, 4)
    assert Q.parse_value(7) == Fraction(7)
    with pytest.raises(ValueError):
        F7.parse_value("3")
    with pytest.raises(ValueError):
        Q.parse_value("not-a-number")
    with pytest.raises(ValueError):
        Q.parse_value(True)


def test_scalar_is_zero():
    assert F2.is_zero(F2.normalize(2))
    assert not Q.is_zero(Q.normalize(Fraction(1, 3)))


def test_rationals_reuse_constants_and_fractions():
    assert Q.zero is Q.zero and Q.one is Q.one
    assert Q.zero == 0 and Q.one == 1 and type(Q.zero) is Fraction
    x = Fraction(-3, 4)
    assert Q.normalize(x) is x
    assert Q.normalize(3) == Fraction(3) and type(Q.normalize(3)) is Fraction
    assert Q.is_zero(Q.zero) and Q.is_zero(Fraction(0, 5)) and not Q.is_zero(x)
