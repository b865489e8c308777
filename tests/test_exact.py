import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gaprenorm.exact import (
    Surd,
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


def _has_square_factor(d: int) -> bool:
    return any(d % (k * k) == 0 for k in range(2, math.isqrt(d) + 1))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, (1 << 24) - 1),
                 st.integers(1, (1 << 12) - 1).map(lambda r: r * r),
                 st.integers(1, 15).map(lambda k: 1031 * 1031 * k)))
def test_squarefree_split_below_2_24(n):
    s, d = squarefree_split(n)
    assert s * s * d == n
    assert (d == 1) == (math.isqrt(n) ** 2 == n)
    assert not _has_square_factor(d)


# sqrt(1031^2 * 1033) = 1031 sqrt(1033); 1031 lies above the trial-division
# primes, so the split leaves the first radicand as it is
BIG_P, BIG_Q = 1031, 1033


def test_repeated_large_prime_stays_in_the_radicand():
    assert squarefree_split(BIG_P * BIG_P * BIG_Q) == (1, BIG_P * BIG_P * BIG_Q)
    assert squarefree_split(BIG_P * BIG_P) == (BIG_P, 1)


def test_non_canonical_radicands_are_one_field():
    wide = make_surd(0, 1, BIG_P * BIG_P * BIG_Q)
    tight = make_surd(0, BIG_P, BIG_Q)
    assert wide.d != tight.d
    assert wide == tight and tight == wide
    assert hash(wide) == hash(tight)
    assert hash(-wide) == hash(-tight) and hash(-wide) != hash(wide)
    assert wide - tight == Fraction(0) and isinstance(wide - tight, Fraction)
    assert wide * tight == Fraction(BIG_P * BIG_P * BIG_Q)
    assert wide / tight == Fraction(1)
    assert (1 + wide) > tight and tight + Fraction(1, 10**9) > wide
    assert len({wide, tight, 1 + wide}) == 2


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
    with pytest.raises(ValueError):
        r2 < r3
    assert r2 != r3 and not (r2 == r3)
    assert make_surd(0, 1, 8) == 2 * r2  # sqrt(8) = 2 sqrt(2): one field


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
    assert -exact_floor(-r2) == 2
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
    assert -exact_floor(-x * (1 << 512)) == _isqrt_floor(x * (1 << 512)) + 1


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


# radicands in several forms: squarefree, and with a repeated prime above
# the trial-division bound
FIELDS = (2, 3, 5, BIG_Q)
FORMS = {2: (2, 18 * BIG_P * BIG_P), 3: (3,), 5: (5, 5 * 1039 * 1039),
         BIG_Q: (BIG_Q, BIG_P * BIG_P * BIG_Q)}
COEFF = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@st.composite
def surds_of(draw, d):
    a = draw(COEFF)
    b = draw(COEFF.filter(lambda f: f != 0))
    # b sqrt(d) = (b / k) sqrt(k^2 d) for the form's k
    form = draw(st.sampled_from(FORMS[d]))
    k = math.isqrt(form // d)
    return Surd(a, b / k, form)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.sampled_from(FIELDS))
def test_field_laws(data, d):
    x, y = data.draw(surds_of(d)), data.draw(surds_of(d))
    assert (x * y) / y == x
    assert x - x == 0 and isinstance(x - x, Fraction)
    assert (x + y) - y == x
    assert x * (1 / x) == 1
    assert (x == y) == (hash(x) == hash(y) and x - y == 0)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.sampled_from(FIELDS), prec=st.integers(1, 40))
def test_order_agrees_with_enclosures(data, d, prec):
    x = data.draw(surds_of(d))
    y = data.draw(st.one_of(surds_of(d), COEFF))
    lo_x, hi_x = fraction_bounds(x, prec)
    lo_y, hi_y = fraction_bounds(y, prec)
    assert lo_x <= x <= hi_x
    if hi_x < lo_y:
        assert x < y and y > x and not x >= y
    if hi_y < lo_x:
        assert x > y and y < x and not x <= y


START_UP = """
import sys

def loaded(*names):
    return [n for n in names if n in sys.modules]

import gaprenorm
assert not loaded("sympy", "numpy", "scipy"), loaded("sympy", "numpy", "scipy")
from gaprenorm import cli
assert cli.main(["traj", "--theta", "cfper:[][2]", "--depth", "8"]) == 0
assert not loaded("numpy", "scipy"), loaded("numpy", "scipy")
import gaprenorm.measure, gaprenorm.experiments
assert not loaded("scipy"), loaded("scipy")
"""


def test_import_leaves_sympy_out():
    # the package and the level verbs load no numpy; only the functions
    # that need scipy import it
    import gaprenorm

    env = {**os.environ, "PYTHONPATH": str(Path(gaprenorm.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", START_UP], check=True, env=env,
                   stdout=subprocess.DEVNULL)
