import contextlib
import functools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaprenorm import cf, measure
from gaprenorm.cf import (
    PartitionCell,
    gap_map_value,
    gap_trajectory,
    leading_quotients,
    rational_to_cf,
    sample_theta,
)
from gaprenorm.exact import mobius
from gaprenorm.measure import (
    THRESHOLD_FAMILIES,
    build_ulam,
    correlation_decay,
    integral_log_norm,
    khinchin_experiment,
    khinchin_experiments,
    series_bound,
    stationary_density,
)


# ---------------------------------------------------------------------------
# branches

# cell endpoints written out by hand, an oracle independent of the branch table
def odd_endpoints(k):
    return Fraction(1, 2 * k + 2), Fraction(1, 2 * k + 1)


def even_endpoints(n, m):
    return Fraction(m, 2 * n * m + 1), Fraction(m + 1, 2 * n * (m + 1) + 1)


def test_endpoints_match_hand_formulas():
    assert PartitionCell(1).endpoints == (Fraction(1, 2), Fraction(1))
    for k in range(1, 61):
        assert PartitionCell(2 * k + 1).endpoints == odd_endpoints(k)
    for n in range(1, 26):
        for m in range(1, 26):
            assert PartitionCell(2 * n, m).endpoints == even_endpoints(n, m)


def test_branch_round_trip():
    cells = [PartitionCell(1), PartitionCell(5), PartitionCell(2, 3), PartitionCell(8, 2)]
    rng = random.Random(40)
    for cell in cells:
        lo, hi = cell.endpoints
        for _ in range(50):
            t = Fraction(rng.randint(1, 999), 1000)
            x = lo + (hi - lo) * t
            y = gap_map_value(x, rational_to_cf(x))
            assert 0 < y < 1
            assert mobius(*cell.matrix, y) == x


# ---------------------------------------------------------------------------
# the discretized operator


def test_build_ulam_validation():
    with pytest.raises(ValueError):
        build_ulam(3)
    with pytest.raises(ValueError):
        build_ulam(0)


def _even_fit_m_by_search(bins, n):
    """Oracle: the smallest M whose cell Even(n, M + 1) starts in bin i_star."""
    i_star = (bins - 1) // (2 * n)
    M = 0
    while True:
        _, b, _, d = cf.branch_matrix(2 * n, M + 1)  # Even(n, M+1) starts at b/d
        if b * bins // d == i_star:
            return M, i_star
        M += 1


def test_even_fit_m_matches_search():
    # every n that build_ulam enumerates, n <= max(bins, 256)
    for bins in [*range(2, 513, 2), 1024, 2048, 4096, 8192]:
        for n in range(1, max(bins, 256) + 1):
            assert measure._even_fit_m(bins, n) == _even_fit_m_by_search(bins, n)


def test_two_bin_operator():
    op = build_ulam(2)
    # the upper half maps onto the lower half by the isometry 1 - x
    assert op.matrix[1].tolist() == [1.0, 0.0]
    assert np.allclose(op.matrix.sum(axis=1), 1.0, atol=1e-12)
    assert op.row_defect < 1e-6


def test_operator_rows_are_stochastic():
    op = build_ulam(64)
    assert np.allclose(op.matrix.sum(axis=1), 1.0, atol=1e-12)
    assert op.matrix.min() >= 0.0
    assert op.row_defect < 1e-6


def test_stationary_density_properties():
    op = build_ulam(256)
    dens = stationary_density(op, tol=1e-10)
    assert dens.residual <= 1e-10
    assert dens.min_density > 0.5
    assert dens.max_density < 1.6
    assert math.isclose(dens.mass(0, 1), 1.0, abs_tol=1e-12)
    parts = dens.mass(0, Fraction(1, 3)) + dens.mass(Fraction(1, 3), 1)
    assert math.isclose(parts, 1.0, abs_tol=1e-12)
    # overlap weights are exact even when the cut is inside a bin
    third = dens.mass(0, Fraction(1, 3))
    assert 0 < third < 1


def _fraction_mass(values, lo, hi):
    """DensityEstimate.mass walked with Fraction overlaps: the oracle."""
    lo = Fraction(lo) if not isinstance(lo, Fraction) else lo
    hi = Fraction(hi) if not isinstance(hi, Fraction) else hi
    lo = max(lo, Fraction(0))
    hi = min(hi, Fraction(1))
    if hi <= lo:
        return 0.0
    B = len(values)
    first = int(lo * B)
    last = min(int(hi * B), B - 1)
    total = 0.0
    for i in range(first, last + 1):
        left = max(lo, Fraction(i, B))
        right = min(hi, Fraction(i + 1, B))
        if right > left:
            total += float(values[i]) * float(right - left)
    return total


@st.composite
def _mass_cases(draw):
    bins = draw(st.sampled_from([2, 6, 64]))
    values = draw(st.lists(st.floats(0, 4), min_size=bins, max_size=bins))
    point = st.one_of(
        st.integers(-2, 3),  # ints, 0 and 1 among them
        # bin edges and the points between them, some outside [0, 1]
        st.builds(Fraction, st.integers(-bins, 2 * bins),
                  st.sampled_from([bins, 2 * bins, 3 * bins, 7 * bins])),
        st.fractions(min_value=-1, max_value=2, max_denominator=10**6),
        st.sampled_from([Fraction(0), Fraction(1)]),
    )
    lo = draw(point)
    if draw(st.booleans()):
        return bins, values, lo, draw(point)
    # a short interval, most often inside one bin
    width = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(10**6, 10**12)))
    return bins, values, lo, lo + width


@settings(max_examples=400, deadline=None)
@given(_mass_cases())
def test_mass_matches_fraction_oracle(case):
    bins, values, lo, hi = case
    dens = measure.DensityEstimate(bins=bins, values=np.array(values), residual=0.0)
    got = dens.mass(lo, hi)
    assert type(got) is float
    assert got == _fraction_mass(values, lo, hi)
    # reversed, the interval is empty
    assert dens.mass(hi, lo) == _fraction_mass(values, hi, lo)


def test_l1_needs_nested_grids():
    a = stationary_density(build_ulam(32), tol=1e-10)
    b = stationary_density(build_ulam(64), tol=1e-10)
    assert a.l1_distance(a) == 0.0
    assert a.l1_distance(b) < 0.05
    c = stationary_density(build_ulam(48), tol=1e-10)
    with pytest.raises(ValueError):
        a.l1_distance(c)


def test_refinement_converges():
    d256 = stationary_density(build_ulam(256), tol=1e-10)
    d512 = stationary_density(build_ulam(512), tol=1e-10)
    assert d256.l1_distance(d512) < 5e-2
    assert abs(d256.mass_upper_half - d512.mass_upper_half) < 1e-2


# ---------------------------------------------------------------------------
# the integrability estimate


def test_series_bound_stability():
    s = series_bound()
    assert math.isfinite(s) and 1.0 < s < 1.4
    s2 = series_bound(n_cut=2500, m_cut=5000, k_cut=250_000)
    assert abs(s - s2) < 1e-8


def test_integral_below_cap():
    dens = stationary_density(build_ulam(128), tol=1e-10)
    integral = integral_log_norm(dens)
    assert 0 < integral <= dens.max_density * series_bound()


@functools.lru_cache(maxsize=None)
def _density(bins):
    return stationary_density(build_ulam(bins), tol=1e-10)


def _fraction_integral(density):
    """integral_log_norm over hand-written endpoints and Fraction masses."""
    K = 4 * density.bins
    total = 0.0
    for k in range(1, K + 1):
        lam = k + math.sqrt(k * k + 1.0)
        lo, hi = odd_endpoints(k)
        total += math.log(lam) * _fraction_mass(density.values, lo, hi)
    for n in range(1, K // 2 + 1):
        M = max(1, K // (2 * n))
        for m in range(1, M + 1):
            T = 2 * n * m + 2
            lam = 0.5 * (T + math.sqrt(T * T - 4.0))
            lo, hi = even_endpoints(n, m)
            total += math.log(lam) * _fraction_mass(density.values, lo, hi)
    tail = measure._odd_tail(K)
    ns = np.arange(1, K // 2 + 1)
    tail += float(measure._even_m_tail(ns, np.maximum(1, K // (2 * ns))).sum())
    tail += measure._even_n_tail(K // 2)
    return total + density.max_density * tail


@pytest.mark.parametrize("bins", [2, 6, 64, 128])
def test_integral_log_norm_matches_fraction_loop(bins):
    dens = _density(bins)
    assert integral_log_norm(dens).hex() == _fraction_integral(dens).hex()


def test_integral_log_norm_builds_no_fraction(monkeypatch):
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    dens = _density(64)
    for module in (measure, cf):
        monkeypatch.setattr(module, "Fraction", CountingFraction)
    integral_log_norm(dens)
    assert built == []
    dens.mass(0, Fraction(1, 3))  # the counter does see the Fraction path
    assert built


def test_correlation_decay():
    op = build_ulam(128)
    dens = stationary_density(op, tol=1e-10)
    f = np.arange(128) >= 64  # indicator of the upper half
    cov = correlation_decay(f, f, op, 40, density=dens)
    mu = dens.mass_upper_half
    assert math.isclose(cov[0], mu * (1 - mu), abs_tol=1e-9)
    assert cov[40] < 1e-8
    assert cov[40] < cov[10] < cov[0]
    # a constant observable is uncorrelated with everything
    const = np.ones(128, dtype=bool)
    cov_c = correlation_decay(const, f, op, 5, density=dens)
    assert np.all(cov_c < 10 * dens.residual + 1e-12)


# ---------------------------------------------------------------------------
# quotient statistics


def test_leading_quotients_match_trajectory():
    # the walk khinchin_experiment consumes agrees with the exact trajectory
    rng = random.Random(41)
    for _ in range(30):
        theta = sample_theta(rng, bits=128, min_quotients=40)
        stream = list(leading_quotients(theta.preperiod))
        traj = gap_trajectory(theta, min(len(stream) - 1, 12))
        heads = [s.a1 for s in traj.steps]
        assert stream[: len(heads)] == heads


def test_threshold_families():
    assert set(THRESHOLD_FAMILIES) == {"linear", "iterated_log_squared", "none"}
    assert THRESHOLD_FAMILIES["linear"](7) == 7.0
    assert THRESHOLD_FAMILIES["none"](10**9) == math.inf
    assert THRESHOLD_FAMILIES["iterated_log_squared"](100) > 100


def test_khinchin_reproducible():
    a = khinchin_experiment("linear", samples=10, n_max=300, rng_seed=5)
    b = khinchin_experiment("linear", samples=10, n_max=300, rng_seed=5)
    assert a.counts == b.counts
    assert a.window == (100, 300)
    assert all(r.sample_id == i for i, r in enumerate(a.records))


def test_khinchin_none_family_never_exceeds():
    res = khinchin_experiment("none", samples=8, n_max=200, rng_seed=6)
    assert res.total_count == 0
    assert all(r.last_index == -1 for r in res.records)
    assert res.median_count == 0


def test_khinchin_validation():
    with pytest.raises(ValueError):
        khinchin_experiment("cubic", samples=4, n_max=100, rng_seed=0)
    with pytest.raises(ValueError):
        khinchin_experiments(("linear", "cubic"), samples=4, n_max=100, rng_seed=0)
    with pytest.raises(ValueError):
        khinchin_experiments((), samples=4, n_max=100, rng_seed=0)
    with pytest.raises(ValueError):
        khinchin_experiment("linear", samples=4, n_max=100, rng_seed=0,
                            window=(90, 200))


def test_khinchin_refuses_n_max_over_budget():
    # refused before the thresholds or the first draw exist; without the
    # check this call would walk a 210,000-bit rational
    with pytest.raises(ValueError, match="budget"):
        khinchin_experiment("linear", samples=1, n_max=measure.MAX_KHINCHIN_N + 1,
                            rng_seed=0)


def _reference_khinchin(family, samples, n_max, rng_seed, window, bits):
    # one family per walk, sample by sample: the loop the shared walk replaced
    b = THRESHOLD_FAMILIES[family]
    w0, w1 = window if window is not None else (100, n_max)
    half = (w0 + w1) // 2
    thresholds = [b(n) for n in range(w0, w1 + 1)]
    records, half_counts, resamples = [], [], 0
    for sample_id in range(samples):
        rng = random.Random(rng_seed ^ sample_id)
        while True:
            p = rng.getrandbits(bits)
            if p == 0:
                continue
            theta = Fraction(p, 1 << bits)
            if theta >= 1:
                continue
            quotients = rational_to_cf(theta).preperiod
            count = count_half = 0
            last = reached = -1
            for n, a1 in enumerate(leading_quotients(quotients)):
                reached = n
                if n > w1:
                    break
                if n >= w0 and a1 > thresholds[n - w0]:
                    count += 1
                    last = n
                    if n <= half:
                        count_half += 1
            if reached >= w1:
                break
            resamples += 1
        records.append(measure.ExceedanceRecord(sample_id, count, last))
        half_counts.append(count_half)
    return (w0, w1), records, half_counts, resamples


@st.composite
def _khinchin_runs(draw):
    families = draw(st.lists(st.sampled_from(sorted(THRESHOLD_FAMILIES)),
                             min_size=1, max_size=3, unique=True))
    # 40-bit draws often walk fewer than 21 levels, so short runs with them
    # go through the resample rule
    short = draw(st.booleans())
    n_max = draw(st.integers(16, 20) if short else st.integers(0, 400))
    if n_max >= 100 and draw(st.booleans()):
        window = None
    else:
        hi = draw(st.integers(16 if short else 0, n_max))
        window = (draw(st.integers(0, hi)), hi)
    samples, seed = draw(st.integers(1, 4)), draw(st.integers(0, 2**32))
    return families, samples, n_max, seed, window, short


@settings(max_examples=100, deadline=None)
@given(_khinchin_runs())
def test_khinchin_experiments_match_reference(run):
    families, samples, n_max, seed, window, short = run
    if short:
        bits = 40
        draws = mock.patch.object(measure, "_denominator_bits", lambda _: bits)
    else:
        bits = max(256, int((1.2 * n_max + 500) * 1.75))
        draws = contextlib.nullcontext()
    with draws:
        results = khinchin_experiments(families, samples, n_max, seed, window)
    assert [r.family for r in results] == families
    for res in results:
        expected = _reference_khinchin(res.family, samples, n_max, seed, window, bits)
        assert (res.window, res.records, res.half_counts, res.resamples) == expected
        assert (res.samples, res.n_max, res.seed) == (samples, n_max, seed)


def test_check_exceedances_walks_each_theta_once(exceedance_run):
    # the shared run of check 10 counts every rational_to_cf call in measure
    passed, details = exceedance_run.verdict.passed, exceedance_run.verdict.details
    expansions, results = exceedance_run.expansions, exceedance_run.results
    assert passed
    assert details == "summable median 0, linear median 4, window growth 711 -> 859"
    assert expansions == 200 + results[0].resamples
    assert [r.family for r in results] == ["iterated_log_squared", "linear"]
