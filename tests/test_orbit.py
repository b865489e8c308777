import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaprenorm.cf import (
    cf_value, gap_trajectory, parse_theta_spec, rational_to_cf, sample_theta,
)
from gaprenorm.exact import Surd, _sign_triplet, exact_floor
from gaprenorm import orbit
from gaprenorm.orbit import (
    _Orbits,
    EncodingSearchError,
    discrepancy_profile,
    encode_orbit,
    sandwich_levels_sweep,
    sandwich_sweep,
    verify_encoding,
)
from gaprenorm.substitution import A, B, C, expand_word, levels, rules_along

from surds import make_surd

SILVER = cf_value(parse_theta_spec("cfper:[][2]"))


def test_silver_prefix():
    enc = encode_orbit(Fraction(0), SILVER, 20)
    assert enc.symbols == "AACACAACACABCACACAAC"
    assert enc.endpoint_hits == [(0, "0")]
    assert not enc.period_wrapped
    # an int start point decides its ambiguous steps as Fraction(0) does
    assert encode_orbit(0, SILVER, 20).symbols == enc.symbols


def test_rational_orbit_wraps():
    enc = encode_orbit(Fraction(0), Fraction(1, 3), 9)
    assert enc.symbols == "AACAACAAC"
    assert enc.period_wrapped
    assert (0, "0") in enc.endpoint_hits
    assert (2, "1-theta") in enc.endpoint_hits


def test_encode_validation():
    with pytest.raises(ValueError):
        encode_orbit(Fraction(0), Fraction(2, 3), 5)  # theta above 1/2
    with pytest.raises(ValueError):
        encode_orbit(Fraction(0), Fraction(1, 2), 5)
    with pytest.raises(ValueError):
        encode_orbit(Fraction(3, 2), Fraction(1, 3), 5)
    with pytest.raises(ValueError):
        encode_orbit(Fraction(0), Fraction(1, 3), -1)


def test_surd_walk_rejects_square_radicand():
    # 1/8 * sqrt(4) is the rational 1/4; the exact sign test must notice
    # instead of ordering it as an irrational
    with pytest.raises(ArithmeticError):
        encode_orbit(Fraction(0), Surd(Fraction(0), Fraction(1, 8), 4), 10)


def test_surd_agrees_with_close_rational():
    """A deep convergent of the rotation number reproduces the surd encoding."""
    deep = rational_to_cf(Fraction(5741, 13860))  # convergent of sqrt(2) - 1
    enc_s = encode_orbit(Fraction(1, 7), SILVER, 2000)
    enc_r = encode_orbit(Fraction(1, 7), cf_value(deep), 2000)
    assert enc_s.symbols == enc_r.symbols


def test_word_weights_and_profile():
    # A weighs +1, B and C weigh -1
    sums = discrepancy_profile("AACAC").sums
    assert sums.dtype == np.int64 and sums.tolist() == [1, 2, 1, 2, 1]
    assert discrepancy_profile("ABCBA").sums.tolist() == [1, 0, -1, -2, -1]
    prof = discrepancy_profile("AACACAAC")
    assert prof.sums.tolist() == [1, 2, 1, 2, 1, 2, 3, 2]
    assert prof.rho.tolist() == [1, 2, 2, 2, 2, 2, 3, 3]
    assert prof.rho_at(1) == 1 and prof.rho_at(8) == 3
    with pytest.raises(ValueError):
        prof.rho_at(0)
    with pytest.raises(ValueError):
        prof.rho_at(9)


def test_profile_of_encoding():
    enc = encode_orbit(Fraction(0), SILVER, 500)
    prof = discrepancy_profile(enc.symbols)
    assert len(prof.sums) == 500
    # the spread of a rotation word over {A} vs {B, C} grows without bound
    # but very slowly; at 500 symbols it is still in single digits
    assert 1 <= prof.rho_at(500) <= 9


def test_verify_encoding_rational():
    # the README's acceptance gate: at most 2 boundary mismatches
    assert orbit.ENCODING_MISMATCH_MAX == 2
    rng = random.Random(32)
    theta = sample_theta(rng, bits=160, lower_half=True, min_quotients=40)
    match = verify_encoding(theta, 6)
    assert match.mismatches <= 2
    assert match.level == 6
    assert 0 <= match.y < 1


def test_verify_encoding_error_path(monkeypatch):
    theta = parse_theta_spec("cfper:[][2]")
    monkeypatch.setattr(orbit, "ENCODING_MISMATCH_MAX", -1)  # impossible budget
    with pytest.raises(EncodingSearchError):
        verify_encoding(theta, 3)


def test_word_matches_direct_orbit_at_base_point():
    """The level word read off the substitutions is the orbit encoding of 0."""
    theta = parse_theta_spec("cfper:[][2]")
    rules = rules_along(theta, 6)
    word = expand_word(rules, A)
    enc = encode_orbit(Fraction(0), SILVER, len(word))
    mism = sum(1 for a, b in zip(word, enc.symbols) if a != b)
    assert mism <= 2


def test_sandwich_silver():
    checks = sandwich_sweep(Fraction(1, 7), parse_theta_spec("cfper:[][2]"), 6)
    assert [c.level for c in checks] == [1, 2, 3, 4, 5, 6]
    assert all(c.ok for c in checks)
    assert checks[4].level == 5 and checks[4].ok


def test_sandwich_sweep_level_validation():
    theta = parse_theta_spec("cfper:[][2]")
    for n_max in (0, -1):
        with pytest.raises(ValueError):
            sandwich_sweep(Fraction(1, 7), theta, n_max)
    with pytest.raises(ValueError):
        sandwich_levels_sweep(Fraction(1, 7), levels(theta, 4), 5)


def test_sandwich_levels_sweep_matches_sweep():
    theta = parse_theta_spec("cfper:[3][2,5,7]")
    lv = levels(theta, 10)
    for y in (Fraction(0), Fraction(1, 7), Fraction(5, 9)):
        for n_max in (1, 6, 10):
            assert (sandwich_levels_sweep(y, lv, n_max)
                    == sandwich_sweep(y, theta, n_max))


def test_orbit_mixes_forms_of_one_field():
    # theta = (sqrt(1033) - 31)/4 and x0 = frac(3 sqrt(1033))/5, with sqrt(1033)
    # also written as sqrt(1031^2 * 1033)/1031
    wide = make_surd(0, Fraction(1, 1031), 1031 * 1031 * 1033)
    tight = make_surd(0, 1, 1033)
    assert wide.d != tight.d and wide == tight

    def point(r):
        return (r - 31) / 4, (3 * r - 96) / 5

    theta_w, x0_w = point(wide)
    theta_t, x0_t = point(tight)
    want = encode_orbit(x0_t, theta_t, 3000)
    for x0, theta in ((x0_w, theta_t), (x0_t, theta_w), (x0_w, theta_w)):
        got = encode_orbit(x0, theta, 3000)
        assert (got.symbols, got.endpoint_hits) == (want.symbols, want.endpoint_hits)
    with pytest.raises(ValueError, match="cannot mix"):
        encode_orbit(make_surd(-1, 1, 3) / 2, make_surd(-1, 1, 2), 10)


@pytest.mark.parametrize("target", ["1/2", "1-theta"])
def test_exact_fallback_mixes_forms_of_one_field(monkeypatch, target):
    # the orbit of x0 = frac(target - k*theta) hits the target exactly at
    # step k, so that step goes to the exact fallback, which then meets the
    # wide and the tight form of sqrt(1033) in one position
    wide = make_surd(0, Fraction(1, 1031), 1031 * 1031 * 1033)
    tight = make_surd(0, 1, 1033)
    k = 1234

    def start(theta):
        point = Fraction(1, 2) if target == "1/2" else 1 - theta
        return _frac(point - k * theta)

    theta_w, theta_t = (wide - 31) / 4, (tight - 31) / 4
    want = encode_orbit(start(theta_t), theta_t, 3000)
    assert (k, target) in want.endpoint_hits
    assert (want.symbols, want.endpoint_hits) == _reference_encode(
        start(theta_t), theta_t, 3000)[:2]
    fallback = []
    exact = _Orbits._exact

    def spy(self, r, j, hits):
        fallback.append(j)
        return exact(self, r, j, hits)

    monkeypatch.setattr(_Orbits, "_exact", spy)
    for x0, theta in ((start(theta_w), theta_t), (start(theta_t), theta_w),
                      (start(theta_w), theta_w)):
        fallback.clear()
        got = encode_orbit(x0, theta, 3000)
        assert k in fallback
        assert (got.symbols, got.endpoint_hits) == (want.symbols, want.endpoint_hits)


def test_theta_value_computed_once_per_trajectory(monkeypatch):
    calls = []
    real = cf_value

    def counting(cf, depth=None):
        calls.append(cf)
        return real(cf, depth)

    for module in list(sys.modules.values()):  # every binding in the package
        if (module.__name__.startswith("gaprenorm.")
                and getattr(module, "cf_value", None) is real):
            monkeypatch.setattr(module, "cf_value", counting)
    theta = parse_theta_spec("cfper:[3][2,5,7]")
    verify_encoding(theta, 4)  # reads theta's value and delta_product(4)
    assert len(calls) == 1
    traj = gap_trajectory(theta, 12)
    assert traj.theta_value == traj.steps[0].value
    traj.delta_product(12)
    assert len(calls) == 2
    assert traj.theta_value == real(theta)


# --- the per-symbol exact walker, kept as a brute-force reference ----------


def _parts(x, d):
    if isinstance(x, Surd):
        assert x.d == d
        return x.a, x.b
    return Fraction(x), Fraction(0)


def _walk(x0, theta):
    """Yield (letter, endpoint names) of x0 + j*theta mod 1, one step at a time.

    Positions are (pa + pb*sqrt(d)) / den on integer coordinates; a rational
    orbit keeps pb = 0, so the sign test never reads d.
    """
    d = next((v.d for v in (theta, x0) if isinstance(v, Surd)), 0)
    (xa, xb), (ta, tb) = _parts(x0, d), _parts(theta, d)
    den = math.lcm(xa.denominator, xb.denominator, ta.denominator, tb.denominator)
    pa, pb, sa, sb = (int(v * den) for v in (xa, xb, ta, tb))
    ca, cb = den - sa, -sb  # the point 1 - theta
    while True:
        names = []
        if pa == 0 and pb == 0:
            names.append("0")
        half = _sign_triplet(2 * pa - den, 2 * pb, d)
        if half == 0:
            names.append("1/2")
        at_c = _sign_triplet(pa - ca, pb - cb, d)
        if at_c == 0:
            names.append("1-theta")
        yield (A if half < 0 else B if at_c < 0 else C), names
        pa += sa
        pb += sb
        if _sign_triplet(pa - den, pb, d) >= 0:
            pa -= den


def _reference_encode(x0, theta, length):
    symbols, hits = [], []
    for j, (letter, names) in zip(range(length), _walk(x0, theta)):
        symbols.append(letter)
        hits += [(j, name) for name in names]
    wrapped = False
    if not any(isinstance(v, Surd) for v in (x0, theta)):
        lat = math.lcm(Fraction(x0).denominator, theta.denominator)
        step = theta.numerator * (lat // theta.denominator)
        wrapped = length > lat // math.gcd(step, lat)
    return "".join(symbols), hits, wrapped


def _frac(x):
    return x - exact_floor(x)


def _same_as_reference(x0, theta, length):
    enc = encode_orbit(x0, theta, length)
    got = (enc.symbols, enc.endpoint_hits, enc.period_wrapped)
    assert repr(got) == repr(_reference_encode(x0, theta, length))  # types too


_SURDS = st.builds(
    lambda pre, per: cf_value(parse_theta_spec(f"cfper:[{pre}][{','.join(map(str, per))}]")),
    st.integers(2, 12), st.lists(st.integers(1, 9), min_size=1, max_size=4),
)
_SMALL_RATIONALS = st.integers(3, 50).flatmap(
    lambda q: st.integers(1, (q - 1) // 2).map(lambda p: Fraction(p, q)))
_DYADICS = st.sampled_from([Fraction(1, 4), Fraction(3, 8), Fraction(5, 16)])
# denominators of 2^64 and beyond: rational orbits decided in fixed point,
# the first with every position exact in it
_WIDE = st.one_of(
    st.integers(1, 1 << 62).map(lambda p: Fraction(2 * p - 1, 1 << 64)),
    st.integers(1 << 69, 1 << 70).map(lambda q: Fraction(q // 3 + 1, q)),
)
THETAS = st.one_of(_SURDS, _SMALL_RATIONALS, _DYADICS, _WIDE)


@st.composite
def _starts(draw, theta):
    """0, 1/2, 1 - theta, a random Fraction, or a point of theta's field
    whose orbit hits 0, 1/2 or 1 - theta exactly at step k."""
    kind = draw(st.sampled_from(["0", "half", "1-theta", "fraction", "hit"]))
    if kind == "0":
        return Fraction(0)
    if kind == "half":
        return Fraction(1, 2)
    if kind == "1-theta":
        return 1 - theta
    if kind == "fraction":
        q = draw(st.integers(1, 1 << 80))
        return Fraction(draw(st.integers(0, q - 1)), q)
    target = draw(st.sampled_from([Fraction(0), Fraction(1, 2), 1 - theta]))
    return _frac(target - draw(st.integers(1, 3000)) * theta)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), theta=THETAS, length=st.sampled_from([0, 1, 2, 700, 3001]))
def test_encode_matches_reference_walker(data, theta, length):
    _same_as_reference(data.draw(_starts(theta)), theta, length)


@pytest.mark.parametrize("theta, x0", [
    (SILVER, Fraction(0)),
    (SILVER, _frac(Fraction(1, 2) - (1 << 16) * SILVER)),  # hit on a block edge
    (Fraction(0x3C6EF372FE94F82B, 1 << 64), _frac(-Fraction(0x3C6EF372FE94F82B, 1 << 64) * 65535)),
    (Fraction(5, 16), Fraction(0)),
])
def test_encode_across_block_edges(theta, x0):
    n = (1 << 16) + 1
    symbols, hits, _ = _reference_encode(x0, theta, n)
    for length in (n - 2, n):
        enc = encode_orbit(x0, theta, length)
        assert enc.symbols == symbols[:length]
        assert repr(enc.endpoint_hits) == repr([h for h in hits if h[0] < length])


@pytest.mark.parametrize("target", ["0", "1/2", "1-theta"])
def test_period_longer_than_a_block_repeats_exactly(target):
    # a period of 70001 steps spans two blocks; the orbit hits the target at
    # its last step, q - 1, so the copies must carry that hit across the seam
    theta = Fraction(30001, 70001)
    q = theta.denominator
    assert q > orbit._BLOCK
    point = {"0": Fraction(0), "1/2": Fraction(1, 2), "1-theta": 1 - theta}[target]
    x0 = _frac(point - (q - 1) * theta)
    for length in (q, q + 1, 2 * q + 5):
        _same_as_reference(x0, theta, length)


def _reference_scan(lv, n, budget):
    """The grid scan verify_encoding answers: the first grid point with the
    fewest mismatches, stopping at the first exact match."""
    theta = lv.traj.steps[0].value
    word = expand_word(lv.rules[:n], A)
    grid = exact_floor(2 / lv.traj.delta_product(n)) + 1
    best_bad, best_y = budget + 1, None
    for t in range(grid):
        bad = 0
        for ch, (letter, _) in zip(word, _walk(Fraction(t, grid), theta)):
            bad += letter != ch
            if bad > budget:
                break
        if bad < best_bad:
            best_bad, best_y = bad, Fraction(t, grid)
            if best_bad == 0:
                break
    return best_y, best_bad, grid, len(word)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), periodic=st.booleans(),
       budget=st.integers(0, 3), data=st.data())
def test_verify_encoding_matches_reference_scan(seed, periodic, budget, data):
    rng = random.Random(seed)
    if periodic:
        per = ",".join(str(rng.randint(1, 9)) for _ in range(rng.randint(1, 4)))
        theta = parse_theta_spec(f"cfper:[{rng.randint(3, 9)}][{per}]")
    else:
        theta = sample_theta(rng, bits=160, lower_half=True, min_quotients=40)
    lv = levels(theta, 12)
    n = data.draw(st.sampled_from([v for v in range(1, 13) if lv.lengths[v][0] <= 400] or [1]))
    y, bad, grid, word_length = _reference_scan(lv, n, budget)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orbit, "ENCODING_MISMATCH_MAX", budget)
            match = verify_encoding(theta, n)
    except EncodingSearchError:
        assert y is None
        return
    assert (match.y, match.mismatches, match.grid_points, match.word_length) == (
        y, bad, grid, word_length)


def test_verify_encoding_error_message(monkeypatch):
    theta = parse_theta_spec("cfper:[][2]")
    _, _, grid, word_length = _reference_scan(levels(theta, 3), 3, -1)
    monkeypatch.setattr(orbit, "ENCODING_MISMATCH_MAX", -1)
    with pytest.raises(EncodingSearchError) as err:
        verify_encoding(theta, 3)
    assert str(err.value) == (f"no grid point within -1 mismatches at level 3 "
                              f"(grid {grid}, word length {word_length})")


def _letter_counts(orbits, word):
    """Per-row mismatches read off the letter kernel, one row at a time."""
    return np.array([np.count_nonzero(orbits.letters(r, 0, len(word)) != word)
                     for r in range(orbits.grid)])


@st.composite
def _grid_case(draw, theta):
    """(x0, grid, word): a start point of any kind, or one planting an
    endpoint hit: (x0 + r)/grid + k*theta lands on 0, 1/2 or 1 - theta for
    the row r = floor(grid * frac(target - k*theta)).  The word is a row's
    own letters with a few changed, so a wrongly decided step shows."""
    grid = draw(st.integers(1, 40))
    length = draw(st.integers(0, 1500))
    kind = draw(st.sampled_from(["0", "fraction", "hit"]))
    row = draw(st.integers(0, grid - 1))
    if kind == "0":
        x0 = Fraction(0)
    elif kind == "fraction":
        q = draw(st.integers(1, 1 << 80))
        x0 = Fraction(draw(st.integers(0, q - 1)), q)
    else:
        target = draw(st.sampled_from([Fraction(0), Fraction(1, 2), 1 - theta]))
        spot = grid * _frac(target - draw(st.integers(0, max(length - 1, 0))) * theta)
        x0, row = _frac(spot), exact_floor(spot)
    word = _Orbits(x0, theta, grid).letters(row, 0, length).copy()
    for j in draw(st.lists(st.integers(0, max(length - 1, 0)), max_size=5)):
        if length:
            word[j] = ord(draw(st.sampled_from([A, B, C])))
    return x0, grid, word


@settings(max_examples=150, deadline=None)
@given(data=st.data(), theta=THETAS)
def test_mismatches_count_every_row(data, theta):
    # THETAS: small rationals, rationals of 64 bits and more, surds
    x0, grid, word = data.draw(_grid_case(theta))
    orbits = _Orbits(x0, theta, grid)
    assert orbits.mismatches(word).tolist() == _letter_counts(orbits, word).tolist()


@pytest.mark.parametrize("theta", [SILVER, Fraction(0x3C6EF372FE94F82B, 1 << 64),
                                   Fraction(5, 16)], ids=["surd", "wide", "lattice"])
@pytest.mark.parametrize("target", ["0", "1/2", "1-theta"])
def test_mismatches_count_planted_hits(theta, target):
    # a row of a 7-point grid hits the target exactly at step 700; in fixed
    # point that step is ambiguous, and the count must take its exact letter
    grid, k, length = 7, 700, 1000
    point = {"0": Fraction(0), "1/2": Fraction(1, 2), "1-theta": 1 - theta}[target]
    spot = grid * _frac(point - k * theta)
    orbits = _Orbits(_frac(spot), theta, grid)
    hits = []
    word = orbits.letters(exact_floor(spot), 0, length, hits)
    assert (k, target) in hits
    counts = orbits.mismatches(word)
    assert counts[exact_floor(spot)] == 0
    assert counts.tolist() == _letter_counts(orbits, word).tolist()


@pytest.mark.parametrize("theta", [
    Fraction(3, 1 << 64), Fraction((1 << 63) - 3, 1 << 64),
    Fraction(1, 2) - Fraction(1, 1 << 70),
], ids=["near-0", "near-half", "below-half"])
@pytest.mark.parametrize("grid", [1, 2, 5])
def test_mismatches_with_boundaries_closer_than_a_step(theta, grid):
    # two boundaries a few units of 2^-64 apart: one row lies in both of
    # their windows at once, and each of its ambiguous steps counts once
    for point in (Fraction(0), Fraction(1, 2), 1 - 40 * theta,
                  Fraction(1, 2) - 40 * theta):
        spot = grid * _frac(point)
        orbits = _Orbits(_frac(spot), theta, grid)
        word = orbits.letters(exact_floor(spot), 0, 300)
        assert orbits.mismatches(word).tolist() == _letter_counts(orbits, word).tolist()


def test_grid_budget_is_checked_before_the_search(monkeypatch):
    theta = parse_theta_spec("cfper:[][2]")
    match = verify_encoding(theta, 3)
    monkeypatch.setattr(orbit, "GRID_MAX", match.grid_points - 1)
    monkeypatch.setattr(orbit, "_Orbits", None)  # nothing is allocated
    with pytest.raises(EncodingSearchError) as err:
        verify_encoding(theta, 3)
    assert str(err.value) == (
        f"grid of {match.grid_points} points at level 3 exceeds the search "
        f"budget of {match.grid_points - 1} points")


def test_orbit_budget_is_checked_before_a_symbol(monkeypatch):
    # read the budget first: without it the calls below would try to
    # allocate gigabytes
    assert orbit.ORBIT_LENGTH_MAX == 10**7
    monkeypatch.setattr(orbit, "_Orbits", None)  # no symbol is decided
    with pytest.raises(ValueError) as err:
        encode_orbit(Fraction(0), SILVER, orbit.ORBIT_LENGTH_MAX + 1)
    assert str(err.value) == "orbit length 10000001 exceeds the budget of 10000000"
    # the sandwich sweep asks for 2 * max return length symbols at level 12
    theta = parse_theta_spec("cfper:[][2]")
    need = 2 * max(levels(theta, 12).lengths[12])
    assert need > 3 * 10**9
    with pytest.raises(ValueError) as err:
        sandwich_sweep(Fraction(1, 7), theta, 12)
    assert str(err.value) == f"orbit length {need} exceeds the budget of 10000000"
