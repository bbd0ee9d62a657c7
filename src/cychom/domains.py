"""Exact scalar domains: the rationals, prime fields and the integers.

Scalars are plain Python values: ``Fraction`` (or ``int``) over Q,
``int`` in ``[0, p)`` over F_p, and ``int`` over Z.  A ``ScalarDomain``
bundles the arithmetic so matrices and complexes can stay generic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainNotField, InputFormatError

RATIONALS = "Q"
PRIME_FIELD = "Fp"
INTEGERS = "Z"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class ScalarDomain:
    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in (RATIONALS, PRIME_FIELD, INTEGERS):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == PRIME_FIELD:
            # residues are exact Python ints, so the bound only keeps the
            # trial-division primality test below fast (at most ~55 000
            # steps); it is checked first because that test hangs for huge p
            if self.p is not None and self.p > 1 and (self.p - 1) ** 2 >= 2 ** 63:
                raise ValueError(f"p = {self.p} is too large: F_p takes primes with"
                                 " (p - 1)^2 < 2^63, so p <= 3037000493")
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
        elif self.p is not None:
            raise ValueError("p only makes sense for prime fields")

    # -- predicates ----------------------------------------------------
    @property
    def is_field(self) -> bool:
        return self.kind in (RATIONALS, PRIME_FIELD)

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == PRIME_FIELD else 0

    def require_field(self):
        if not self.is_field:
            raise DomainNotField(f"{self} is not a field")

    # -- arithmetic ----------------------------------------------------
    def coerce(self, x):
        """Normalize x into the canonical scalar representation."""
        if self.kind == PRIME_FIELD:
            return int(x) % self.p
        if self.kind == RATIONALS:
            if isinstance(x, (int, Fraction)):
                return x
            raise TypeError(f"cannot coerce {x!r} into Q")
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise TypeError(f"{x} is not an integer")
            return x.numerator
        return int(x)

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        c = a + b
        return c % self.p if self.kind == PRIME_FIELD else c

    def sub(self, a, b):
        c = a - b
        return c % self.p if self.kind == PRIME_FIELD else c

    def mul(self, a, b):
        c = a * b
        return c % self.p if self.kind == PRIME_FIELD else c

    def neg(self, a):
        return (-a) % self.p if self.kind == PRIME_FIELD else -a

    def inv(self, a):
        self.require_field()
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.kind == PRIME_FIELD:
            return pow(a, self.p - 2, self.p)
        return Fraction(1, 1) / Fraction(a)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def __str__(self):
        if self.kind == PRIME_FIELD:
            return f"F{self.p}"
        return "Q" if self.kind == RATIONALS else "Z"


Q = ScalarDomain(RATIONALS)
Z = ScalarDomain(INTEGERS)


def Fp(p: int) -> ScalarDomain:
    return ScalarDomain(PRIME_FIELD, p)


def parse_domain(text: str) -> ScalarDomain:
    """Parse the CLI domain selector: q | zp:<p> | z."""
    t = text.strip().lower()
    if t == "q":
        return Q
    if t == "z":
        return Z
    if t.startswith("zp:"):
        try:
            p = int(t[3:])
        except ValueError:
            raise InputFormatError(f"bad prime in domain selector {text!r}")
        try:
            return Fp(p)
        except ValueError as exc:
            raise InputFormatError(str(exc))
    raise InputFormatError(f"unknown domain {text!r} (expected q, zp:<p> or z)")
