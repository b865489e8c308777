import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gaprenorm.cf import PartitionCell, gap_trajectory, leading_quotients, sample_theta
from gaprenorm.measure import (
    THRESHOLD_FAMILIES,
    DensityEstimate,
    branch_forward,
    build_ulam,
    correlation_decay,
    integral_log_norm,
    inverse_branch,
    inverse_branches,
    khinchin_experiment,
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
            y = branch_forward(x, cell)
            assert 0 < y < 1
            assert inverse_branch(y, cell) == x


def test_inverse_branches_cover():
    pre = inverse_branches(Fraction(1, 3), min_cell_width=1e-7)
    kinds = {cell.kind for _, cell in pre}
    assert kinds == {"half", "even"}  # odd branches only reach (1/2, 1)
    for x, cell in pre:
        assert cell.contains(x)
        assert branch_forward(x, cell) == Fraction(1, 3)
    pre_hi = inverse_branches(Fraction(2, 3), min_cell_width=1e-7)
    assert {cell.kind for _, cell in pre_hi} == {"odd", "even"}


def test_inverse_branches_boundary():
    with pytest.raises(ValueError):
        inverse_branches(Fraction(1, 2))
    with pytest.raises(ValueError):
        inverse_branches(Fraction(3, 2))


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
    doc = op.to_json()
    assert doc["bins"] == 64 and len(doc["matrix"]) == 64


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


def test_density_json_round_trip():
    dens = stationary_density(build_ulam(32), tol=1e-10)
    doc = dens.to_json()
    back = DensityEstimate.from_json(doc)
    assert back.bins == dens.bins
    assert np.allclose(back.values, dens.values)


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
        khinchin_experiment("linear", samples=4, n_max=100, rng_seed=0,
                            window=(90, 200))
