import contextlib
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaprenorm import measure, verify
from gaprenorm.cf import (
    PartitionCell,
    gap_map_value,
    gap_trajectory,
    leading_quotients,
    rational_to_cf,
    sample_theta,
)
from gaprenorm.measure import (
    THRESHOLD_FAMILIES,
    build_ulam,
    correlation_decay,
    integral_log_norm,
    inverse_branch,
    khinchin_experiment,
    khinchin_experiments,
    series_bound,
    stationary_density,
)


# ---------------------------------------------------------------------------
# branches


def test_branch_round_trip():
    cells = [PartitionCell("half"), PartitionCell("odd", k=2),
             PartitionCell("even", n=1, m=3), PartitionCell("even", n=4, m=2)]
    rng = random.Random(40)
    for cell in cells:
        lo, hi = cell.endpoints
        for _ in range(50):
            t = Fraction(rng.randint(1, 999), 1000)
            x = lo + (hi - lo) * t
            y = gap_map_value(x, rational_to_cf(x))
            assert 0 < y < 1
            assert inverse_branch(y, cell) == x


# ---------------------------------------------------------------------------
# the discretized operator


def test_build_ulam_validation():
    with pytest.raises(ValueError):
        build_ulam(3)
    with pytest.raises(ValueError):
        build_ulam(0)


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


def test_check_exceedances_walks_each_theta_once(monkeypatch):
    expansions = 0
    results = []

    def counting_rational_to_cf(value):
        nonlocal expansions
        expansions += 1
        return rational_to_cf(value)

    def keeping_experiments(*args, **kwargs):
        got = khinchin_experiments(*args, **kwargs)
        results.extend(got)
        return got

    monkeypatch.setattr(measure, "rational_to_cf", counting_rational_to_cf)
    monkeypatch.setattr(verify, "khinchin_experiments", keeping_experiments)
    passed, details = verify.check_exceedances()
    assert passed
    assert details == "summable median 0, linear median 4, window growth 711 -> 859"
    assert expansions == 200 + results[0].resamples
    assert [r.family for r in results] == ["iterated_log_squared", "linear"]
