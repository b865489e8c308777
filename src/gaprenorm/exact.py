"""Exact arithmetic over rationals and real quadratic irrationals.

Every number the core manipulates is either a `fractions.Fraction` or a
`Surd` representing a + b*sqrt(d) with rational a, b and a non-square
integer d > 1.  `squarefree_split` strips square factors by trial division
over the primes below 2^10 plus an exact square test of what is left, so d
is squarefree except possibly for repeated primes above 2^10; no integer is
ever factored.  Two radicands name one field exactly when their product is a
perfect square, and `Surd` decides equality by field, not by the form of d.
All order comparisons are exact integer comparisons; floating point only
appears when a caller explicitly asks for an approximation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

ExactReal = Union[Fraction, "Surd"]

_SMALL_PRIMES = tuple(  # the primes below 2^10
    p for p in range(2, 1 << 10) if all(p % q for q in range(2, math.isqrt(p) + 1))
)


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n > 0 as s*s*d; return (s, d).

    d = 1 exactly when n is a perfect square; otherwise d is a non-square.
    The square factors of the primes below 2^10 are stripped, and so is the
    cofactor left over when it is a perfect square, so d is squarefree
    whenever that cofactor has at most one repeated prime (every n < 2^30).
    """
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    s, d = 1, 1
    for p in _SMALL_PRIMES:
        if p * p > n:
            break  # what is left is 1 or a prime
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        if n % p == 0:
            n //= p
            d *= p
    r = math.isqrt(n)
    if r * r == n:
        return s * r, d
    return s, d * n


def _sign_triplet(a: Fraction | int, b: Fraction | int, d: int) -> int:
    """Sign of a + b*sqrt(d) for a non-square d > 1 (so the value is 0 only if a = b = 0).

    d need not be squarefree: only sqrt(d) being irrational matters.  Takes
    Fractions or ints; the orbit kernel's exact fallback passes Fractions.
    """
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 against b^2 d, the larger magnitude wins
    lhs = a * a
    rhs = b * b * d
    if lhs == rhs:  # would mean sqrt(d) rational
        raise ArithmeticError(f"sqrt({d}) behaved rationally; radicand a square?")
    if a > 0:
        return 1 if lhs > rhs else -1
    return 1 if rhs > lhs else -1


class Surd:
    """a + b*sqrt(d) with Fraction coefficients, b != 0 and a non-square d > 1.

    d is squarefree except possibly for repeated primes above 2^10 (see
    `squarefree_split`), so one field Q(sqrt(d)) can carry several radicands.
    Arithmetic stays inside the field and collapses to Fraction whenever the
    radical part cancels.  Equality, hashing and mixed operands are decided
    by field: sqrt(d1) and sqrt(d2) mix exactly when d1*d2 is a perfect
    square.  Mixing two different fields is an error rather than a silent
    approximation, and two Surds of different fields compare unequal.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        self.a = a
        self.b = b
        self.d = d

    def _coerce(self, other) -> tuple[Fraction, Fraction]:
        """Return (a, b) of the other operand inside this Surd's field."""
        if isinstance(other, Surd):
            if other.d == self.d:
                return other.a, other.b
            # b2 sqrt(d2) = (b2 r / d1) sqrt(d1) when r^2 = d1 d2
            r = math.isqrt(self.d * other.d)
            if r * r != self.d * other.d:
                raise ValueError(f"cannot mix sqrt({self.d}) with sqrt({other.d})")
            return other.a, other.b * r / self.d
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        raise TypeError(f"unsupported operand {type(other).__name__}")

    @staticmethod
    def _wrap(a: Fraction, b: Fraction, d: int) -> ExactReal:
        return a if b == 0 else Surd(a, b, d)

    def __add__(self, other) -> ExactReal:
        oa, ob = self._coerce(other)
        return self._wrap(self.a + oa, self.b + ob, self.d)

    __radd__ = __add__

    def __sub__(self, other) -> ExactReal:
        oa, ob = self._coerce(other)
        return self._wrap(self.a - oa, self.b - ob, self.d)

    def __rsub__(self, other) -> ExactReal:
        oa, ob = self._coerce(other)
        return self._wrap(oa - self.a, ob - self.b, self.d)

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b, self.d)

    def __mul__(self, other) -> ExactReal:
        oa, ob = self._coerce(other)
        return self._wrap(
            self.a * oa + self.b * ob * self.d,
            self.a * ob + self.b * oa,
            self.d,
        )

    __rmul__ = __mul__

    def _inverse(self) -> "Surd":
        # 1/(a + b sqrt d) = (a - b sqrt d) / (a^2 - b^2 d); denominator is
        # nonzero because sqrt(d) is irrational
        norm = self.a * self.a - self.b * self.b * self.d
        return Surd(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other) -> ExactReal:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return Surd(self.a / other, self.b / other, self.d)
        oa, ob = self._coerce(other)
        return self * Surd(oa, ob, self.d)._inverse()

    def __rtruediv__(self, other) -> ExactReal:
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        inv = self._inverse()
        return self._wrap(inv.a * other, inv.b * other, self.d)

    def _cmp_sign(self, other) -> int:
        oa, ob = self._coerce(other)
        return _sign_triplet(self.a - oa, self.b - ob, self.d)

    def __eq__(self, other) -> bool:
        if isinstance(other, Surd):
            try:
                oa, ob = self._coerce(other)
            except ValueError:
                return False  # different fields
            return self.a == oa and self.b == ob
        if isinstance(other, (int, Fraction)):
            return False  # a surd is irrational
        return NotImplemented

    def __hash__(self):
        # b*b*d and the sign of b fix b*sqrt(d) whatever form d takes
        return hash((self.a, self.b * self.b * self.d, self.b > 0))

    def __lt__(self, other):
        return self._cmp_sign(other) < 0

    def __le__(self, other):
        return self._cmp_sign(other) <= 0

    def __gt__(self, other):
        return self._cmp_sign(other) > 0

    def __ge__(self, other):
        return self._cmp_sign(other) >= 0

    def __float__(self) -> float:
        lo, _ = fraction_bounds(self, 96)
        return float(lo)

    def __repr__(self):
        return f"Surd({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        sign = "+" if self.b >= 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self.d})"


def fraction_bounds(x: ExactReal, prec_bits: int = 96) -> tuple[Fraction, Fraction]:
    """Exact enclosure lo <= x <= hi with hi - lo <= |b| / 2^prec_bits."""
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        return f, f
    num = math.isqrt(x.d << (2 * prec_bits))
    scale = Fraction(1, 1 << prec_bits)
    root_lo = num * scale
    root_hi = (num + 1) * scale
    if x.b >= 0:
        return x.a + x.b * root_lo, x.a + x.b * root_hi
    return x.a + x.b * root_hi, x.a + x.b * root_lo


def exact_floor(x: ExactReal) -> int:
    """Largest integer <= x, decided exactly, however large |x| is."""
    if isinstance(x, (int, Fraction)):
        return math.floor(x)
    # an enclosure narrower than 2^-64 holds at most one integer; one exact
    # comparison places x against it
    lo, hi = fraction_bounds(x, 64 + abs(x.b.numerator).bit_length())
    n = math.floor(hi)
    return n if math.floor(lo) == n or x >= n else n - 1


def _log_fraction(f: Fraction) -> float:
    # math.log accepts arbitrary-size ints, so this stays accurate for the
    # huge numerators exact trajectories produce
    return math.log(f.numerator) - math.log(f.denominator)


def exact_log(x: ExactReal) -> float:
    """Natural log of a positive exact value, accurate to ~1e-15 relative."""
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        if f <= 0:
            raise ValueError("log of a non-positive value")
        return _log_fraction(f)
    if x <= 0:
        raise ValueError("log of a non-positive value")
    prec = 96
    while True:
        lo, hi = fraction_bounds(x, prec)
        # tighten until the enclosure is relatively sharp; cancellation in
        # a + b*sqrt(d) can make the first pass too loose
        if lo > 0 and (hi - lo) * (10**18) < lo:
            return _log_fraction(lo)
        prec *= 2


def exact_str(x: ExactReal) -> str:
    """Compact exact rendering, e.g. '3/7' or '-1 + 1*sqrt(2)'."""
    return str(x)
