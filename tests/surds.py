"""Test helper: quadratic irrationals from their coefficients."""

from fractions import Fraction

from gaprenorm.exact import ExactReal, Surd, squarefree_split


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
