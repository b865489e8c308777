"""Exact arithmetic over rationals and real quadratic irrationals.

Every number the core manipulates is either a `fractions.Fraction` or a
`Surd`, the value (p + q*sqrt(d))/r held as integers with a non-square
d > 1.  The integer triple is kept canonical (r > 0, gcd(p, q, r) = 1), so
an operation costs a few integer products and one three-way gcd, where a
pair of Fraction coefficients would pay a gcd per coefficient; equal values
of one radicand have equal triples, and the coefficients a = p/r and
b = q/r read back as the same reduced Fractions.  `squarefree_split` strips
square factors by trial division over the primes below 2^10 plus an exact
square test of what is left, so d is squarefree except possibly for
repeated primes above 2^10; no integer is ever factored.  Two radicands
name one field exactly when their product is a perfect square, and `Surd`
decides equality by field, not by the form of d.  All order comparisons are
exact integer comparisons; floating point only appears when a caller
explicitly asks for an approximation.
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


def _sign_triplet(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d) for a non-square d > 1 (so the value is 0 only if a = b = 0).

    d need not be squarefree: only sqrt(d) being irrational matters.  `Surd`
    passes the integer numerator of a difference, whose sign is the sign of
    the difference.
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
    """(p + q*sqrt(d)) / r with integers p, q, r, q != 0 and a non-square d > 1.

    The triple is canonical: r > 0 and gcd(p, q, r) = 1, so each value of
    one radicand has exactly one triple.  An operation multiplies integers
    and divides out one three-way gcd (`_reduced`); no coefficient is ever a
    Fraction.  `Surd(a, b, d)` builds a + b*sqrt(d) from rational a and b,
    and `a`, `b` read the coefficients back as the reduced Fractions
    p/r and q/r, so `str`, `repr` and hashes are those of the coefficients.

    d is squarefree except possibly for repeated primes above 2^10 (see
    `squarefree_split`), so one field Q(sqrt(d)) can carry several radicands.
    Arithmetic stays inside the field and collapses to Fraction whenever the
    radical part cancels.  Equality, hashing and mixed operands are decided
    by field: sqrt(d1) and sqrt(d2) mix exactly when d1*d2 is a perfect
    square, and a result keeps the left operand's radicand.  Mixing two
    different fields is an error rather than a silent approximation, and two
    Surds of different fields compare unequal.
    """

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, a: Fraction | int, b: Fraction | int, d: int):
        a, b = Fraction(a), Fraction(b)
        # over the lcm of two reduced denominators the triple is already canonical
        r = math.lcm(a.denominator, b.denominator)
        self.p = a.numerator * (r // a.denominator)
        self.q = b.numerator * (r // b.denominator)
        self.r = r
        self.d = d

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.r)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.r)

    def _coerce(self, other) -> tuple[int, int, int]:
        """(p, q, r) with r > 0 of the other operand inside this Surd's field."""
        if isinstance(other, Surd):
            if other.d == self.d:
                return other.p, other.q, other.r
            # q2 sqrt(d2) = (q2 s / d1) sqrt(d1) when s^2 = d1 d2
            s = math.isqrt(self.d * other.d)
            if s * s != self.d * other.d:
                raise ValueError(f"cannot mix sqrt({self.d}) with sqrt({other.d})")
            return other.p * self.d, other.q * s, other.r * self.d
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        raise TypeError(f"unsupported operand {type(other).__name__}")

    def __add__(self, other) -> ExactReal:
        p, q, r = self._coerce(other)
        return _reduced(self.p * r + p * self.r, self.q * r + q * self.r,
                        self.r * r, self.d)

    __radd__ = __add__

    def __sub__(self, other) -> ExactReal:
        p, q, r = self._coerce(other)
        return _reduced(self.p * r - p * self.r, self.q * r - q * self.r,
                        self.r * r, self.d)

    def __rsub__(self, other) -> ExactReal:
        p, q, r = self._coerce(other)
        return _reduced(p * self.r - self.p * r, q * self.r - self.q * r,
                        self.r * r, self.d)

    def __neg__(self) -> "Surd":
        return _reduced(-self.p, -self.q, self.r, self.d)

    def __mul__(self, other) -> ExactReal:
        return _times(self.p, self.q, self.r, *self._coerce(other), self.d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> ExactReal:
        p, q, r = self._coerce(other)
        if p == 0 and q == 0:
            raise ZeroDivisionError("division by zero")
        return _times(self.p, self.q, self.r, *_inverse(p, q, r, self.d), self.d)

    def __rtruediv__(self, other) -> ExactReal:
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return _times(*self._coerce(other), *_inverse(self.p, self.q, self.r, self.d),
                      self.d)

    def _cmp_sign(self, other) -> int:
        # both denominators are positive, so the numerator of the
        # difference carries its sign
        p, q, r = self._coerce(other)
        return _sign_triplet(self.p * r - p * self.r, self.q * r - q * self.r, self.d)

    def __eq__(self, other) -> bool:
        if isinstance(other, Surd):
            if other.d == self.d:  # canonical triples: equal values, equal triples
                return self.p == other.p and self.q == other.q and self.r == other.r
            try:
                p, q, r = self._coerce(other)
            except ValueError:
                return False  # different fields
            return self.p * r == p * self.r and self.q * r == q * self.r
        if isinstance(other, (int, Fraction)):
            return False  # a surd is irrational
        return NotImplemented

    def __hash__(self):
        # a and b*b*d with the sign of b fix a + b*sqrt(d) whatever form d takes
        return hash((self.a, Fraction(self.q * self.q * self.d, self.r * self.r),
                     self.q > 0))

    def __lt__(self, other):
        return self._cmp_sign(other) < 0

    def __le__(self, other):
        return self._cmp_sign(other) <= 0

    def __gt__(self, other):
        return self._cmp_sign(other) > 0

    def __ge__(self, other):
        return self._cmp_sign(other) >= 0

    def __float__(self) -> float:
        # rounding is monotone: once both ends of an enclosure round to one
        # float, that float is the correctly rounded value
        prec = 96
        while True:
            lo, hi = fraction_bounds(self, prec)
            f = float(lo)
            if f == float(hi):
                return f
            prec *= 2

    def __repr__(self):
        return f"Surd({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        sign = "+" if self.q >= 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self.d})"


def _reduced(p: int, q: int, r: int, d: int) -> ExactReal:
    """(p + q*sqrt(d)) / r for r != 0: a canonical Surd, or Fraction(p, r) if q = 0."""
    if q == 0:
        return Fraction(p, r)
    if r < 0:
        p, q, r = -p, -q, -r
    g = math.gcd(p, q, r)
    if g != 1:
        p, q, r = p // g, q // g, r // g
    x = object.__new__(Surd)
    x.p, x.q, x.r, x.d = p, q, r, d
    return x


def _times(p1: int, q1: int, r1: int, p2: int, q2: int, r2: int, d: int) -> ExactReal:
    """The product of two triples of one radicand, reduced once."""
    return _reduced(p1 * p2 + q1 * q2 * d, p1 * q2 + q1 * p2, r1 * r2, d)


def _inverse(p: int, q: int, r: int, d: int) -> tuple[int, int, int]:
    """A triple of 1/((p + q*sqrt(d))/r), not reduced.

    r/(p + q sqrt d) = r (p - q sqrt d) / (p^2 - q^2 d); the norm is nonzero
    when q = 0 < |p| or when sqrt(d) is irrational.
    """
    return r * p, -r * q, p * p - q * q * d


def mobius(a: int, b: int, c: int, d: int, x: ExactReal) -> ExactReal:
    """(a*x + b)/(c*x + d) for integers a, b, c, d, reduced once.

    A rational x = p/q gives Fraction(a*p + b*q, c*p + d*q); a Surd gives one
    `_inverse` and one `_times`, so callers never see the triple.
    """
    if isinstance(x, Surd):
        p, q, r, D = x.p, x.q, x.r, x.d
        return _times(a * p + b * r, a * q, 1,
                      *_inverse(c * p + d * r, c * q, 1, D), D)
    p, q = x.numerator, x.denominator
    return Fraction(a * p + b * q, c * p + d * q)


def fraction_bounds(x: ExactReal, prec_bits: int = 96) -> tuple[Fraction, Fraction]:
    """Exact enclosure lo <= x <= hi with hi - lo <= |b| / 2^prec_bits."""
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        return f, f
    # sqrt(d) lies in [num, num + 1] / 2^prec_bits
    num = math.isqrt(x.d << (2 * prec_bits))
    top, den = x.p << prec_bits, x.r << prec_bits
    lo, hi = Fraction(top + x.q * num, den), Fraction(top + x.q * (num + 1), den)
    return (lo, hi) if x.q >= 0 else (hi, lo)


def exact_floor(x: ExactReal) -> int:
    """Largest integer <= x, decided exactly, however large |x| is."""
    if isinstance(x, (int, Fraction)):
        return math.floor(x)
    # q*sqrt(d) is irrational, so with f = floor(q*sqrt(d)) the value is
    # (p + f + t)/r for some 0 < t < 1, whose floor is (p + f) // r
    root = math.isqrt(x.q * x.q * x.d)
    return (x.p + root if x.q > 0 else x.p - root - 1) // x.r


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
