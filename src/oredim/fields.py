"""Exact coefficient fields: prime fields F_p and the rationals Q.

Field elements are plain Python values (int residues in [0, p) for F_p,
``Fraction`` in lowest terms for Q); a field object owns the arithmetic.
This keeps the elimination kernels working on raw machine values.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RawScalar = Union[int, Fraction]

# p is capped so residues stay single machine words and products fit in
# int64 (needed by the numpy elimination kernel).
MAX_PRIME = 2**31

# Fractions are immutable, so Q hands out one zero and one one.
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3,215,031,751."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of the two coefficient fields."""

    @property
    def zero(self) -> RawScalar:
        raise NotImplementedError

    @property
    def one(self) -> RawScalar:
        raise NotImplementedError

    def normalize(self, value) -> RawScalar:
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero

    def parse_value(self, obj) -> RawScalar:
        """Decode the JSON form of one element (int for F_p, "n/d" for Q)."""
        raise NotImplementedError

    def value_to_json(self, value):
        raise NotImplementedError


@dataclass(frozen=True)
class PrimeField(Field):
    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not 2 <= self.p < MAX_PRIME:
            raise ValueError(f"prime field order must be an integer in [2, 2^31): {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1 % self.p

    def normalize(self, value) -> int:
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError("division by zero")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("division by zero")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def parse_value(self, obj) -> int:
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise ValueError(f"expected an integer residue, got {obj!r}")
        return obj % self.p

    def value_to_json(self, value):
        return int(value)

    def __repr__(self):
        return f"F_{self.p}"


@dataclass(frozen=True)
class Rationals(Field):
    @property
    def zero(self) -> Fraction:
        return _Q_ZERO

    @property
    def one(self) -> Fraction:
        return _Q_ONE

    def normalize(self, value) -> Fraction:
        return value if isinstance(value, Fraction) else Fraction(value)

    def is_zero(self, a) -> bool:
        return not a

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero")
        return 1 / Fraction(a)

    def parse_value(self, obj) -> Fraction:
        if isinstance(obj, bool):
            raise ValueError(f"expected a rational, got {obj!r}")
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, str):
            try:
                return Fraction(obj)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"not a rational literal: {obj!r}") from exc
        raise ValueError(f"expected a rational, got {obj!r}")

    def value_to_json(self, value):
        return f"{value.numerator}/{value.denominator}"

    def __repr__(self):
        return "Q"

