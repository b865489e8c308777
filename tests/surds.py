"""Test helpers: quadratic irrationals from their coefficients, and the
Fraction-pair reference the integer-triple `Surd` is checked against."""

import math
from fractions import Fraction

from gaprenorm.exact import ExactReal, Surd, _sign_triplet, squarefree_split


def make_surd(a, b, d: int) -> ExactReal:
    """Build a + b*sqrt(d), collapsing to a Fraction when the value is rational."""
    a, b = Fraction(a), Fraction(b)
    if d <= 0:
        raise ValueError("radicand must be positive")
    if b == 0:
        return a
    s, d0 = squarefree_split(d)
    if d0 == 1:
        return a + b * s
    return Surd(a, b * s, d0)


class PairSurd:
    """a + b*sqrt(d) with Fraction coefficients, b != 0 and a non-square d > 1.

    The reference implementation: every operation works on the two Fraction
    coefficients directly.  Fields and mixed radicands follow the rules of
    `gaprenorm.exact.Surd`, and `repr` prints as that class does.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        self.a = a
        self.b = b
        self.d = d

    def _coerce(self, other) -> tuple[Fraction, Fraction]:
        """Return (a, b) of the other operand inside this PairSurd's field."""
        if isinstance(other, PairSurd):
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
    def _wrap(a: Fraction, b: Fraction, d: int):
        return a if b == 0 else PairSurd(a, b, d)

    def __add__(self, other):
        oa, ob = self._coerce(other)
        return self._wrap(self.a + oa, self.b + ob, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        oa, ob = self._coerce(other)
        return self._wrap(self.a - oa, self.b - ob, self.d)

    def __rsub__(self, other):
        oa, ob = self._coerce(other)
        return self._wrap(oa - self.a, ob - self.b, self.d)

    def __neg__(self):
        return PairSurd(-self.a, -self.b, self.d)

    def __mul__(self, other):
        oa, ob = self._coerce(other)
        return self._wrap(
            self.a * oa + self.b * ob * self.d,
            self.a * ob + self.b * oa,
            self.d,
        )

    __rmul__ = __mul__

    def _inverse(self):
        # 1/(a + b sqrt d) = (a - b sqrt d) / (a^2 - b^2 d)
        norm = self.a * self.a - self.b * self.b * self.d
        return PairSurd(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return PairSurd(self.a / other, self.b / other, self.d)
        oa, ob = self._coerce(other)
        return self * PairSurd(oa, ob, self.d)._inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        inv = self._inverse()
        return self._wrap(inv.a * other, inv.b * other, self.d)

    def _cmp_sign(self, other) -> int:
        oa, ob = self._coerce(other)
        a, b = self.a - oa, self.b - ob
        den = math.lcm(a.denominator, b.denominator)  # positive, so the sign stays
        return _sign_triplet(int(a * den), int(b * den), self.d)

    def __eq__(self, other) -> bool:
        if isinstance(other, PairSurd):
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
        prec = 96
        while True:
            lo, hi = pair_fraction_bounds(self, prec)
            if float(lo) == float(hi):
                return float(lo)
            prec *= 2

    def __repr__(self):
        return f"Surd({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        sign = "+" if self.b >= 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self.d})"


def pair_fraction_bounds(x, prec_bits: int = 96) -> tuple[Fraction, Fraction]:
    """Reference enclosure lo <= x <= hi from the coefficients a and b."""
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


def pair_exact_floor(x) -> int:
    """Reference floor: an enclosure narrower than 2^-64 and one comparison."""
    if isinstance(x, (int, Fraction)):
        return math.floor(x)
    lo, hi = pair_fraction_bounds(x, 64 + abs(x.b.numerator).bit_length())
    n = math.floor(hi)
    return n if math.floor(lo) == n or x >= n else n - 1
