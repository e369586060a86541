"""Exact coefficient fields: the rationals and prime fields GF(p).

Field elements are plain Python values (``fractions.Fraction`` for the
rationals, ``int`` in ``[0, p)`` for GF(p)); a field object supplies the
arithmetic.  All operations normalize eagerly so that equality of
coefficients is structural equality of the stored values.
"""

from __future__ import annotations

from fractions import Fraction


class FieldConfigError(ValueError):
    """Invalid field configuration (non-prime modulus, missing prime, ...)."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Rationals:
    """The field of rational numbers, with Fraction coefficients."""

    kind = "q"
    prime = None
    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, n):
        return Fraction(n)

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
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def format(self, a) -> str:
        return str(a)

    def random(self, rng):
        return Fraction(rng.randint(-9, 9))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash(("q",))

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) with elements stored as ints in [0, p)."""

    kind = "fp"

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise FieldConfigError(f"modulus {p!r} is not prime")
        self.prime = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, n):
        if isinstance(n, Fraction):
            if n.denominator % self.prime == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.prime}")
            return n.numerator * pow(n.denominator, self.prime - 2, self.prime) % self.prime
        return n % self.prime

    def add(self, a, b):
        return (a + b) % self.prime

    def sub(self, a, b):
        return (a - b) % self.prime

    def mul(self, a, b):
        return a * b % self.prime

    def neg(self, a):
        return -a % self.prime

    def inv(self, a):
        if a % self.prime == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.prime - 2, self.prime)

    def format(self, a) -> str:
        return str(a % self.prime)

    def random(self, rng):
        return rng.randrange(self.prime)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.prime == self.prime

    def __hash__(self):
        return hash(("fp", self.prime))

    def __repr__(self):
        return f"GF({self.prime})"


QQ = Rationals()
DEFAULT_PRIME = 32003


def make_field(kind: str, prime: int | None = None):
    """Build a field from a config pair ('q'|'fp', prime)."""
    if kind == "q":
        return QQ
    if kind == "fp":
        return PrimeField(DEFAULT_PRIME if prime is None else prime)
    raise FieldConfigError(f"unknown field kind {kind!r}")
