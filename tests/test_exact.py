import math
import random
from fractions import Fraction

import pytest

from gaprenorm.exact import (
    Surd,
    exact_ceil,
    exact_floor,
    exact_log,
    fraction_bounds,
    make_surd,
    squarefree_split,
)


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(2) == (1, 2)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(49) == (7, 1)
    assert squarefree_split(360) == (6, 10)
    with pytest.raises(ValueError):
        squarefree_split(0)


def test_make_surd_collapses_rationals():
    assert make_surd(1, 0, 5) == Fraction(1)
    assert make_surd(1, 2, 9) == Fraction(7)  # sqrt(9) = 3 is rational
    s = make_surd(0, 1, 8)
    assert isinstance(s, Surd) and s.d == 2 and s.b == 2  # sqrt(8) = 2 sqrt(2)


def test_field_arithmetic():
    r2 = make_surd(0, 1, 2)
    assert (1 + r2) * (1 - r2) == Fraction(-1)
    assert (3 - 2 * r2) * (3 + 2 * r2) == Fraction(1)
    assert 1 / (3 - 2 * r2) == 3 + 2 * r2
    assert r2 * r2 == Fraction(2)
    assert (r2 / 2) * r2 == Fraction(1)
    half = r2 / r2
    assert half == Fraction(1)


def test_mixing_radicands_is_an_error():
    r2 = make_surd(0, 1, 2)
    r3 = make_surd(0, 1, 3)
    with pytest.raises(ValueError):
        r2 + r3


def test_order_against_convergents():
    # 99/70 and 140/99 straddle sqrt(2); ties must be decided exactly
    r2 = make_surd(0, 1, 2)
    assert Fraction(99, 70) > r2
    assert Fraction(140, 99) < r2
    assert r2 < Fraction(577, 408)
    assert r2 > Fraction(816, 577)
    assert not (r2 == Fraction(99, 70))
    assert r2 != Fraction(99, 70)


def test_fraction_bounds_enclose():
    x = make_surd(3, -2, 2)  # 3 - 2 sqrt(2), about 0.1716
    lo, hi = fraction_bounds(x, 64)
    assert lo <= x <= hi
    assert hi - lo <= Fraction(2, 1 << 64)
    f = Fraction(5, 7)
    assert fraction_bounds(f) == (f, f)


def test_exact_floor_and_ceil():
    r2 = make_surd(0, 1, 2)
    assert exact_floor(r2) == 1
    assert exact_floor(-r2) == -2
    assert exact_floor(3 - 2 * r2) == 0
    assert exact_floor((make_surd(0, 1, 5) + 1) / 2) == 1
    assert exact_ceil(r2) == 2
    assert exact_floor(Fraction(7, 3)) == 2
    # value a hair below an integer: 665857/470832 exceeds sqrt(2)
    assert exact_floor(r2 * 470832 - 665856) == 0


def _isqrt_floor(x: Surd) -> int:
    # x = (p + q*sqrt(d)) / m with integers, m > 0; sqrt(q^2 d) is irrational
    m = math.lcm(x.a.denominator, x.b.denominator)
    p, q = int(x.a * m), int(x.b * m)
    root = math.isqrt(q * q * x.d)
    return (p + root if q > 0 else p - root - 1) // m


def test_exact_floor_of_large_surds():
    from gaprenorm.cf import cf_value, parse_theta_spec

    x = cf_value(parse_theta_spec("cfper:[3][2,5,7]"))
    for k in range(0, 513, 8):
        for v in (x * (1 << k), -x * (1 << k), x * (1 << k) + Fraction(1, 3)):
            assert exact_floor(v) == _isqrt_floor(v)
    assert exact_ceil(x * (1 << 512)) == _isqrt_floor(x * (1 << 512)) + 1


def test_exact_log_accuracy():
    assert exact_log(Fraction(1)) == 0.0
    big = Fraction(10**100, 3**200)
    want = 100 * math.log(10) - 200 * math.log(3)
    assert math.isclose(exact_log(big), want, rel_tol=1e-14)
    r2 = make_surd(0, 1, 2)
    # the surd path subtracts logs of ~96-bit integers, which costs a few ulp
    assert math.isclose(exact_log(r2), math.log(2) / 2, rel_tol=5e-13)
    # heavy cancellation: 3 - 2 sqrt(2) = (sqrt(2) - 1)^2
    assert math.isclose(exact_log(3 - 2 * r2), 2 * math.log(math.sqrt(2) - 1),
                        rel_tol=1e-12)
    with pytest.raises(ValueError):
        exact_log(Fraction(0))
    with pytest.raises(ValueError):
        exact_log(2 * r2 - 3)


def test_float_matches_numeric():
    rng = random.Random(9)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
        b = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
        d = rng.randint(2, 99)
        x = make_surd(a, b, d)
        assert math.isclose(float(x), float(a) + float(b) * math.sqrt(d),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_comparison_randomized():
    rng = random.Random(10)
    for _ in range(300):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        b = Fraction(rng.randint(-20, 20) or 1, rng.randint(1, 20))
        d = rng.choice([2, 3, 5, 7, 11])
        x = make_surd(a, b, d)
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        assert (x < q) == (float(x) < float(q)) or abs(float(x) - float(q)) < 1e-9
        assert (x < q) != (x > q)  # a surd never equals a rational
