import contextlib
import dataclasses
import functools
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaprenorm import cf, experiments, measure
from gaprenorm.cf import (
    PartitionCell,
    gap_map_value,
    gap_trajectory,
    leading_quotients,
    rational_to_cf,
    sample_theta,
)
from gaprenorm.exact import mobius
from gaprenorm.experiments import (
    THRESHOLD_FAMILIES,
    khinchin_experiment,
    khinchin_experiments,
)
from gaprenorm.measure import (
    build_ulam,
    correlation_decay,
    integral_log_norm,
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


# the invariant density without its constant 1/ln 6, and the transfer
# identity sum over the branches psi onto y of h(psi(y)) |psi'(y)| = h(y),
# exact at rational y: the odd sum telescopes over k, the even sum over n,
# then over m
def h(x):
    return 2 / (1 - x * x) if x < Fraction(1, 2) else 1 / x


def transfer_term(y, a1, a2=0):
    a, b, c, d = cf.branch_matrix(a1, a2)
    x = (a * y + b) / (c * y + d)
    lo, hi = PartitionCell(a1, a2).endpoints
    assert lo < x < hi
    return h(x) / (c * y + d) ** 2


@pytest.mark.parametrize("y", [Fraction(1, 7), Fraction(2, 5), Fraction(3, 5),
                               Fraction(7, 9)], ids=str)
def test_transfer_identity_is_exact(y):
    for size in (1, 2, 9):
        if y < Fraction(1, 2):  # a Half preimage, no Odd one
            assert transfer_term(y, 1) == 1 / (1 - y)
            assert 1 / (1 - y) + 1 / (1 + y) == h(y)
        else:  # an Odd preimage for each k, no Half one
            odd = sum(transfer_term(y, 2 * k + 1) for k in range(1, size + 1))
            assert odd == (1 / y) * (1 / (1 + y) - 1 / ((2 * size + 1) * y + 1))
            assert 1 / (y * (1 + y)) + 1 / (1 + y) == h(y)
        us = [m + y for m in range(1, size + 1)]
        even = sum(transfer_term(y, 2 * n, m) for n in range(1, size + 1)
                   for m in range(1, size + 1))
        assert even == sum((1 / u) * (1 / (u + 1) - 1 / ((2 * size + 1) * u + 1))
                           for u in us)
        # as N grows, the even sum tends to this, and as M grows, to 1/(1 + y)
        assert sum(1 / (u * (u + 1)) for u in us) == 1 / (1 + y) - 1 / (size + 1 + y)


# the mass of (lo, hi) under h is ln r(hi) - ln r(lo) below 1/2, with
# r(x) = (1 + x)/(1 - x) since (ln r)' = 2/(1 - x^2), and ln(hi/lo) above it;
# each kind's mass is the log of a product of these ratios, exact in Fractions
def r(x):
    return (1 + x) / (1 - x)


@pytest.mark.parametrize("size", [1, 2, 9, 40])
def test_kind_masses_are_exact(size):
    half_lo, half_hi = PartitionCell(1).endpoints
    assert (half_lo, half_hi) == (Fraction(1, 2), 1)
    # Odd(k) = (1/(2k + 2), 1/(2k + 1)) and the even strip
    # (1/(2n + 1), 1/(2n)), the union of Even(n, m) over m, tile (0, 1/2)
    odd = [PartitionCell(2 * k + 1).endpoints for k in range(1, size + 1)]
    strips = [(PartitionCell(2 * n, 1).endpoints[0], Fraction(1, 2 * n))
              for n in range(1, size + 1)]
    assert strips[0][1] == half_lo
    for k in range(size):
        assert odd[k][1] == strips[k][0]
        if k + 1 < size:
            assert odd[k][0] == strips[k + 1][1]
    for n in range(1, size + 1):  # Even(n, m) climbs the strip as m grows
        cells = [PartitionCell(2 * n, m).endpoints for m in range(1, size + 1)]
        assert all(a[1] == b[0] for a, b in zip(cells, cells[1:]))
        assert strips[n - 1][0] == cells[0][0] and cells[-1][1] < strips[n - 1][1]
    even = math.prod(r(hi) / r(lo) for lo, hi in strips)
    assert even == Fraction(2 * size + 1, size + 1)  # tends to 2
    odds = math.prod(r(hi) / r(lo) for lo, hi in odd)
    assert odds == Fraction(3 * (size + 1), 2 * size + 3)  # tends to 3/2
    assert half_hi / half_lo == 2
    # so the masses are ln 2, ln(3/2) and ln 2 over ln 6, and they add to 1


def exact_bin_means(bins):
    """Mean of h over each of `bins` uniform bins, from the masses above:
    C ln(r(b)/r(a)) below 1/2 and C ln(b/a) above, C = 1/ln 6."""
    edges = [Fraction(i, bins) for i in range(bins + 1)]
    ratios = [r(b) / r(a) if b <= Fraction(1, 2) else b / a
              for a, b in zip(edges, edges[1:])]
    return np.array([bins * math.log1p(q - 1) for q in ratios]) / math.log(6)


@pytest.mark.parametrize("bins", [64, 128, 256, 512, 1024, 2048])
def test_ulam_density_matches_the_closed_form(bins):
    # the Ulam density converges to h at first order: at these sizes its L1
    # error reads 0.036-0.038/B, and no bin strays more than 0.17/B from
    # h's mean over it
    C = 1 / math.log(6)
    values = stationary_density(build_ulam(bins)).values
    exact = exact_bin_means(bins)
    assert C <= exact.min() and exact.max() <= 8 * C / 3  # ess inf and sup of h
    assert C <= values.min() and values.max() <= 8 * C / 3
    error = np.abs(values - exact)
    assert error.sum() <= 0.05  # the L1 error, error.sum() / B, is at most 0.05/B
    assert error.max() <= 0.25 / bins


def head_tail(t):
    """mu_g(a1 > t) = C ln((1 + x)/(1 - x)), x = 1/(floor(t) + 1): a level's
    head exceeds t exactly when theta < x, and h = 2C/(1 - y^2) below 1/2."""
    x = 1 / (math.floor(t) + 1)
    return math.log((1 + x) / (1 - x)) / math.log(6)


@pytest.mark.parametrize("bins", [512, 2048])
def test_ulam_head_tail_matches_the_closed_form(bins):
    # measured: within 0.0022/B at 512 bins and 0.0009/B at 2048
    density = stationary_density(build_ulam(bins))
    for t in range(1, 200):
        assert abs(density.mass(0, Fraction(1, t + 1)) - head_tail(t)) <= 0.01 / bins


def test_walk_head_tail_matches_the_closed_form():
    # the heads of levels 50 on of 40 uniform 20,000-bit rationals (400,894
    # levels) exceed t at the rate mu_g(a1 > t); measured |z| <= 1.47
    rng = random.Random(1)
    heads = []
    for _ in range(40):
        theta = Fraction(rng.getrandbits(20_000), 1 << 20_000)
        quotients = rational_to_cf(theta).preperiod
        heads += leading_quotients(quotients, len(quotients))[50:]
    assert len(heads) > 390_000
    for t in (1, 2, 3, 5, 10, 30):
        p = head_tail(t)
        share = sum(a1 > t for a1 in heads) / len(heads)
        assert abs(share - p) <= 4 * math.sqrt(p * (1 - p) / len(heads)), t


def half_after_one_step() -> float:
    """P(theta_1 in Half) for a uniform theta_0, in closed form.

    Half = (1/2, 1) maps into (0, 1/2) and each Odd cell onto (1/2, 1), so the
    Odd cells give their mass ln 2 - 1/2.  Even(n, m)'s branch
    psi(y) = (y + m)/(2n(y + m) + 1) sends (1/2, 1) onto an interval of length
    1/(2 (2nm + 2n + 1)(2nm + n + 1)); summed over m >= 1 by digamma,
    P = ln 2 - 1/2 + S/2 with S = sum_n (digamma(2 + 1/(2n)) -
    digamma(3/2 + 1/(2n)))/(2n^2).  S is summed to N = 10^6, and the tail in
    1/(2n) to first order, c0/(2n^2) + c1/(4n^3), in Hurwitz zetas.
    """
    from scipy.special import digamma, polygamma, zeta

    N = 10**6
    n = np.arange(1, N + 1, dtype=float)
    head = np.sum((digamma(2 + 1 / (2 * n)) - digamma(1.5 + 1 / (2 * n))) / (2 * n * n))
    c0 = digamma(2) - digamma(1.5)
    c1 = polygamma(1, 2) - polygamma(1, 1.5)
    S = head + c0 / 2 * zeta(2, N + 1) + c1 / 4 * zeta(3, N + 1)
    P = math.log(2) - 0.5 + S / 2
    # S and d_1 = P - ln 2/ln 6 from a 30-digit mpmath sum
    assert abs(S - 0.2519939781468662) <= 1e-16
    assert abs(P - math.log(2) / math.log(6) + 0.0677086376011632) <= 1e-16
    return P


@pytest.mark.parametrize("bins", [64, 256, 2048])
def test_one_ulam_step_from_uniform_matches_d1(bins):
    # one Ulam step from the uniform vector is exact up to the tails and the
    # row renormalization: its mass on Half is within 1.8e-15 of the closed
    # form at 64-2048 bins
    pushed = np.full(bins, 1 / bins) @ build_ulam(bins).matrix
    assert abs(pushed[bins // 2:].sum() - half_after_one_step()) <= 1e-12


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


def _scatter_by_masks(P, bins, j, branch):
    """Oracle: `_scatter_increasing` as three masked np.add.at calls."""
    a, b, c, d = branch
    num, den, cols = a * j + b * bins, c * j + d * bins, j[:-1]
    x = num / den
    ib = (num * bins) // den
    i0, i1 = ib[:-1], ib[1:]
    left, right = x[:-1], x[1:]
    same = i1 == i0
    np.add.at(P, (i0[same], cols[same]), (right[same] - left[same]) * bins)
    split = ~same
    edge = i1[split] / bins
    np.add.at(P, (i0[split], cols[split]), (edge - left[split]) * bins)
    np.add.at(P, (i1[split], cols[split]), (right[split] - edge) * bins)


def _build_ulam_by_branch(bins):
    """Oracle: the Ulam matrix assembled one branch and one strip tail at a time.

    Branches go through `_scatter_by_masks`, not `measure._scatter_increasing`,
    so a fault in the run slices shows here too.
    """
    from scipy.special import digamma, polygamma, zeta

    B = bins
    L = max(B, 256)
    P = np.zeros((B, B))
    P[np.arange(B - 1, B // 2 - 1, -1), np.arange(B // 2)] += 1.0
    j_half = np.arange(B // 2, B + 1, dtype=np.int64)
    for k in range(1, L + 1):
        _scatter_by_masks(P, B, j_half, cf.branch_matrix(2 * k + 1))
    j_full = np.arange(B + 1, dtype=np.int64)
    edges = j_full / B
    for n in range(1, L + 1):
        M, i_star = measure._even_fit_m(B, n)
        for m in range(1, M + 1):
            _scatter_by_masks(P, B, j_full, cf.branch_matrix(2 * n, m))
        eps = 1.0 / (2 * n)
        psi = digamma(M + 1 + eps + edges)
        P[i_star, :] += (psi[1:] - psi[:-1]) * (B / (4.0 * n * n))
    psi = digamma(L + 1 + B / (2.0 * j_half))
    P[0, B // 2 :] += 0.5 * (psi[:-1] - psi[1:]) * B
    zs = [zeta(s, L + 1) for s in (2, 3, 4, 5)]
    vals = (
        digamma(1 + edges) * zs[0] / 4.0
        + polygamma(1, 1 + edges) * zs[1] / 8.0
        + polygamma(2, 1 + edges) * zs[2] / 32.0
        + polygamma(3, 1 + edges) * zs[3] / 192.0
    )
    P[0, :] += (vals[1:] - vals[:-1]) * B
    rowsums = P.sum(axis=1)
    P /= rowsums[:, None]
    return P


@pytest.mark.parametrize("bins", [2, 6, 64, 128, 512, 1024, 2048])
def test_build_ulam_matches_branch_by_branch(bins):
    assert build_ulam(bins).matrix.tobytes() == _build_ulam_by_branch(bins).tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 128).map(lambda half: 2 * half))
def test_build_ulam_matches_branch_by_branch_sweep(bins):
    assert build_ulam(bins).matrix.tobytes() == _build_ulam_by_branch(bins).tobytes()


@pytest.mark.parametrize("bins", [2, 6, 64, 512, 2048])
def test_scatter_increasing_matches_masked_add_at(bins):
    # every branch that build_ulam enumerates, scattered into a matrix of
    # random values so that each addition shows in the bits
    L = max(bins, 256)
    j_half = np.arange(bins // 2, bins + 1, dtype=np.int64)
    j_full = np.arange(bins + 1, dtype=np.int64)
    branches = [(j_half, cf.branch_matrix(2 * k + 1)) for k in range(1, L + 1)]
    for n in range(1, L + 1):
        M, _ = measure._even_fit_m(bins, n)
        branches += [(j_full, cf.branch_matrix(2 * n, m)) for m in range(1, M + 1)]
    P = np.random.default_rng(bins).random((bins, bins))
    Q = P.copy()
    for j, branch in branches:
        measure._scatter_increasing(P, bins, j, branch)
        _scatter_by_masks(Q, bins, j, branch)
    assert P.tobytes() == Q.tobytes()


def test_g_constants_match_their_sums():
    # the float64 sums that the literals G_0 and G_1 record; np.log may round
    # differently on another CPU, so allow 2 ulp
    m = np.arange(1, 2_000_001, dtype=np.float64)
    g0 = float((np.log(m) / (m * (m + 1))).sum())
    g0 += float(measure._log_uu1_tail(2e6 + 0.5))
    g1 = float(
        (2.0 / (m * m * (m + 1)) - np.log(m) * (2 * m + 1) / (m * (m + 1)) ** 2).sum()
    )
    assert abs(measure.G_0 - g0) <= 2 * math.ulp(g0)
    assert abs(measure.G_1 - g1) <= 2 * math.ulp(g1)


@pytest.mark.parametrize("N", [512, 1024, 2000, 2048, 4000, 4096])
def test_even_n_tail_matches_per_n_form(N):
    from scipy.special import zeta

    n = np.arange(N + 1, N + 1_000_001, dtype=np.float64)
    t1 = float((np.log(2 * n) / (2 * n * (2 * n + 1))).sum())
    t1 += 0.5 * float(measure._log_uu1_tail(2.0 * (N + 1_000_000) + 1.0))
    want = t1 + measure.G_0 * zeta(2, N + 1) / 4.0 + measure.G_1 * zeta(3, N + 1) / 8.0
    assert measure._even_n_tail(N).hex() == want.hex()


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


def test_tol_below_the_gap_floor_stops_after_the_stall_window():
    # at 512 bins the L1 gap bottoms out near 5e-18 within a few hundred steps
    with pytest.raises(measure.ConvergenceError) as info:
        stationary_density(build_ulam(512), tol=1e-300)
    found = re.search(r"from step (\d+) to step (\d+)", str(info.value))
    floor_step, stop = map(int, found.groups())
    assert floor_step < measure.STALL_STEPS
    assert stop == floor_step + measure.STALL_STEPS


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


# the two estimates as they were written before vectorizing, unchanged apart
# from module prefixes: whole-array numpy sums and a per-cell scalar loop.
# series_bound and integral_log_norm must reproduce them bit for bit.
def _series_bound_whole_array(n_cut=2000, m_cut=4096, k_cut=200_000):
    k = np.arange(1, k_cut + 1, dtype=np.float64)
    total = float((np.log(2 * k + 1) / ((2 * k + 1) * (2 * k + 2))).sum())
    total += measure._odd_tail(k_cut)
    m = np.arange(1, m_cut + 1, dtype=np.float64)
    for n in range(1, n_cut + 1):
        a = 2.0 * n * m + 2.0
        total += float((np.log(a) / ((a - 1.0) * (a + 2.0 * n - 1.0))).sum())
    total += float(
        measure._even_m_tail(np.arange(1, n_cut + 1), np.full(n_cut, m_cut)).sum()
    )
    total += measure._even_n_tail(n_cut)
    return total


def _integral_log_norm_scalar_loop(density):
    B = density.bins
    K = 4 * B
    v = density.values.tolist()
    total = 0.0
    # an odd cell is psi(1/2, 1), an even cell psi(0, 1) (see PartitionCell)
    for k in range(1, K + 1):
        a, b, c, d = cf.branch_matrix(2 * k + 1)
        lam = k + math.sqrt(k * k + 1.0)
        total += math.log(lam) * measure._cell_mass(
            v, B, a + 2 * b, c + 2 * d, a + b, c + d
        )
    for n in range(1, K // 2 + 1):
        M = max(1, K // (2 * n))
        for m in range(1, M + 1):
            a, b, c, d = cf.branch_matrix(2 * n, m)
            T = a + d
            lam = 0.5 * (T + math.sqrt(T * T - 4.0))
            total += math.log(lam) * measure._cell_mass(v, B, b, d, a + b, c + d)
    tail = measure._odd_tail(K)
    ns = np.arange(1, K // 2 + 1)
    tail += float(measure._even_m_tail(ns, np.maximum(1, K // (2 * ns))).sum())
    tail += measure._even_n_tail(K // 2)
    return total + density.max_density * tail


@pytest.mark.parametrize(
    "cutoffs",
    [(10, 16, 100), (2000, 4096, 200_000), (2500, 5000, 250_000), (4000, 8192, 400_000)],
)
def test_series_bound_matches_whole_array_sums(cutoffs):
    assert series_bound(*cutoffs).hex() == _series_bound_whole_array(*cutoffs).hex()


DEFAULT_CUTS, BETWEEN_CUTS = (2000, 4096, 200_000), (2500, 5000, 250_000)
DOUBLED_CUTS = (4000, 8192, 400_000)


@functools.lru_cache(maxsize=None)
def _whole_array_hex(cutoffs):
    return _series_bound_whole_array(*cutoffs).hex()


@pytest.mark.parametrize(
    "calls",
    [
        (DEFAULT_CUTS, DOUBLED_CUTS),
        (DOUBLED_CUTS, DEFAULT_CUTS),
        (DEFAULT_CUTS, BETWEEN_CUTS, DOUBLED_CUTS),
        (DEFAULT_CUTS, "cache_clear", DOUBLED_CUTS),
    ],
    ids=["default-doubled", "doubled-default", "between", "cleared"],
)
def test_series_bound_bits_do_not_depend_on_call_order(calls):
    # the strip-sum memo lives as long as the process; each call must still
    # give the whole-array bits whatever the memo holds
    measure._strip_sums.cache_clear()
    for cutoffs in calls:
        if cutoffs == "cache_clear":
            measure._strip_sums.cache_clear()
        else:
            assert series_bound(*cutoffs).hex() == _whole_array_hex(cutoffs)


def test_doubled_series_bound_sums_only_the_upper_strip_halves(monkeypatch):
    # after the default call, the doubled cutoffs take strips 1-2000 from the
    # memo at m_cut 4096 and sum only their terms m = 4097..8192; strips
    # 2001-4000 are summed whole.  A repeat call sums nothing
    measure._strip_sums.cache_clear()
    series_bound(*DEFAULT_CUTS)
    blocks = []
    block_sums = measure._strip_block_sums

    def counting(n_lo, n_hi, m_lo, m_cut):
        blocks.append((n_lo, n_hi, m_lo, m_cut))
        return block_sums(n_lo, n_hi, m_lo, m_cut)

    monkeypatch.setattr(measure, "_strip_block_sums", counting)
    first = series_bound(*DOUBLED_CUTS)
    assert blocks == [(1, 2000, 4096, 8192), (2001, 4000, 0, 8192)]
    blocks.clear()
    assert series_bound(*DOUBLED_CUTS).hex() == first.hex()
    assert blocks == []


@pytest.mark.parametrize("bins", [6, 256, 512, 2048])
def test_integral_log_norm_matches_scalar_loop(bins):
    dens = _density(bins)
    assert integral_log_norm(dens).hex() == _integral_log_norm_scalar_loop(dens).hex()


@functools.lru_cache(maxsize=None)
def _wide_floats():
    # mixed signs over 26 decades, so that any change of summation order
    # shows in the last bits
    rng = np.random.default_rng(26)
    return rng.standard_normal(10**6 + 64) * np.exp(rng.uniform(-30, 30, 10**6 + 64))


@pytest.mark.parametrize(
    "length", [1, 7, 8, 127, 128, 129, 2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 5, 10**6]
)
@settings(max_examples=6, deadline=None)
@given(st.integers(0, 63))
def test_pairwise_sum_matches_whole_array_sum(length, offset):
    data = _wide_floats()
    blocks = []

    def terms(lo, hi):
        blocks.append(hi - lo)
        return data[lo:hi]

    got = measure._pairwise_sum(terms, offset, offset + length)
    assert got.hex() == float(data[offset : offset + length].sum()).hex()
    assert max(blocks) <= measure.SUM_BLOCK and sum(blocks) == length


def test_log_norm_cell_products_are_exact_in_float():
    # integral_log_norm divides r*q - p*s by q*s in int64; the quotient
    # rounds like Python's int / int when both are below 2**53.  The products
    # grow with the bin count, so check them at the largest one
    p, q, r, s, _ = measure._log_norm_cells(4 * measure.MAX_BINS)
    # no int64 product can wrap around
    assert max(int(p.max()), int(r.max())) * max(int(q.max()), int(s.max())) < 2**63
    for product in (q * s, r * q, p * s):
        assert int(product.max()) < 2**53


def test_integrability_figures_are_builtin_floats():
    assert type(series_bound(10, 16, 100)) is float
    assert type(integral_log_norm(_density(6))) is float
    assert type(measure._even_n_tail(512)) is float


def test_correlation_decay():
    op = build_ulam(128)
    dens = stationary_density(op, tol=1e-10)
    f = np.arange(128) >= 64  # indicator of the upper half
    cov = correlation_decay(f, f, op, 40, density=dens)
    # an index array, as the benchmark passes its bin sets, reads as the mask
    idx = np.arange(64, 128)
    assert correlation_decay(idx, idx, op, 40, density=dens).tobytes() == cov.tobytes()
    # and a bin listed twice counts once, as in the indicator
    twice = np.concatenate([idx, idx[::-1]])
    assert correlation_decay(twice, twice, op, 40, density=dens).tobytes() == cov.tobytes()
    mu = dens.mass_upper_half
    assert math.isclose(cov[0], mu * (1 - mu), abs_tol=1e-9)
    assert cov[40] < 1e-8
    assert cov[40] < cov[10] < cov[0]
    # a constant observable is uncorrelated with everything
    const = np.ones(128, dtype=bool)
    cov_c = correlation_decay(const, f, op, 5, density=dens)
    assert np.all(cov_c < 10 * dens.residual + 1e-12)


class CountingMatrix(np.ndarray):
    """A matrix view that counts the products it takes part in."""

    products = 0

    def __matmul__(self, other):
        CountingMatrix.products += 1
        return np.asarray(self) @ other

    def __rmatmul__(self, other):
        CountingMatrix.products += 1
        return other @ np.asarray(self)


def test_correlation_decay_runs_one_product_per_step():
    # n_max steps take n_max matrix-vector products, none after the last
    op = build_ulam(16)
    dens = stationary_density(op, tol=1e-10)
    counted = dataclasses.replace(op, matrix=op.matrix.view(CountingMatrix))
    f = np.arange(16) >= 8
    for n_max in (0, 1, 7):
        CountingMatrix.products = 0
        cov = correlation_decay(f, f, counted, n_max, density=dens)
        assert CountingMatrix.products == n_max
        assert cov.tobytes() == correlation_decay(f, f, op, n_max, density=dens).tobytes()


# ---------------------------------------------------------------------------
# the Half rows of the power iteration's products

@pytest.mark.parametrize("bins", [2, 6, 64, 510, 1022, 2048])
def test_half_rows_hold_one_exact_one(bins):
    # row i >= B/2 is the Half branch alone: 1.0 at column B-1-i, zeros
    # elsewhere.  `push` reads those rows as that copy and never looks at
    # them, so a branch written there must fail here
    half = build_ulam(bins).matrix[bins // 2 :]
    rows = np.arange(bins // 2)
    assert (half[rows, bins // 2 - 1 - rows] == 1.0).all()
    assert np.count_nonzero(half) == bins // 2


def test_push_is_the_dense_product():
    # bit for bit, on vectors of every sign and scale, at every even bin
    # count to 300 and around 512, 1024, 2048 and 4096: on both sides of
    # the multiples of 8 that `push` splits at
    rng = np.random.default_rng(35)
    for bins in [*range(2, 301, 2), 510, 512, 514, 1022, 1024, 1026,
                 2046, 2048, 2050, 4094, 4096]:
        op = build_ulam(bins)
        for p in (rng.random(bins),
                  rng.standard_normal(bins) * 10.0 ** rng.integers(-8, 8, bins)):
            assert op.push(p).tobytes() == (p @ op.matrix).tobytes(), bins


# OpenBLAS threads a matrix-vector product only above a size threshold
# (about B * B >= 460,800 on the build measured), so from about 682 to 958
# bins it threads `p @ matrix` but not push's half-size product.  There push
# has the bits of the dense product under one BLAS thread, which differ from
# those under two at bin counts that are not multiples of 8
THREADING_BAND_BINS = (682, 700, 702, 958)

ONE_THREAD_PRODUCTS = """
import numpy as np
from gaprenorm.measure import build_ulam
for bins in %r:
    p = np.random.default_rng(bins).random(bins)
    print((p @ build_ulam(bins).matrix).tobytes().hex())
""" % (THREADING_BAND_BINS,)


def test_push_in_the_threading_band_is_a_dense_product():
    # push equals the dense product at this process's BLAS thread count, or
    # at one thread where only the dense product would run threaded
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(measure.__file__).parents[1])}
    one_thread = subprocess.run([sys.executable, "-c", ONE_THREAD_PRODUCTS], env=env,
                                check=True, capture_output=True, text=True).stdout.split()
    assert len(one_thread) == len(THREADING_BAND_BINS)
    for bins, reference in zip(THREADING_BAND_BINS, one_thread):
        op = build_ulam(bins)
        p = np.random.default_rng(bins).random(bins)
        here = (p @ op.matrix).tobytes().hex()
        assert op.push(p).tobytes().hex() in (here, reference), bins


def _dense_power_iteration(op, tol):
    # `stationary_density` with dense products: the reference for its bits
    M = op.matrix
    p = np.full(op.bins, 1.0 / op.bins)
    for step in range(1, measure.MAX_POWER_STEPS + 1):
        q = p @ M
        gap = float(np.abs(q - p).sum())
        p = q
        if gap <= tol:
            break
    p /= p.sum()
    residual = float(np.abs(p @ M - p).sum())
    return p * op.bins, residual, step


def _dense_correlation(f, g, op, n_max, density):
    # the Koopman form: g pulled back by dense products, cov_n =
    # <pi, f * P^n g> - E f E g.  The mathematical oracle of
    # `correlation_decay`, which pushes the measure forward instead
    pi = density.values / op.bins
    pi = pi / pi.sum()
    ef, eg = float(pi @ f), float(pi @ g)
    out, gv = [], g.astype(np.float64)
    for n in range(n_max + 1):
        if n:
            gv = op.matrix @ gv
        out.append(abs(float(pi @ (f * gv)) - ef * eg))
    return np.array(out)


def _dense_push_correlation(f, g, op, n_max, density):
    # `correlation_decay` with dense products: the reference for its bits
    pi = density.values / op.bins
    pi = pi / pi.sum()
    q = np.where(f, pi, 0.0)
    ef_eg = q.sum() * pi[g].sum()
    out = []
    for n in range(n_max + 1):
        if n:
            q = q @ op.matrix
        out.append(abs(q[g].sum() - ef_eg))
    return np.array(out)


def _quarter_sets(bins):
    # the middle half and the upper half of the bins, as masks
    f = (np.arange(bins) >= bins // 4) & (np.arange(bins) < 3 * bins // 4)
    return f, np.arange(bins) >= bins // 2


# 1022, 1026 and 2046 bins are off the multiples of 8, where the Koopman
# form's bits moved with the BLAS thread count; the push form's must not
@pytest.mark.parametrize("bins", [64, 512, 1022, 1026, 2046, 2048])
def test_power_iteration_matches_the_dense_loop(bins):
    op = build_ulam(bins)
    dens = stationary_density(op, tol=1e-10)
    values, residual, _ = _dense_power_iteration(op, 1e-10)
    assert dens.values.tobytes() == values.tobytes()
    assert dens.residual.hex() == residual.hex()
    f, g = _quarter_sets(bins)
    cov = correlation_decay(f, g, op, 30, density=dens)
    assert cov.tobytes() == _dense_push_correlation(f, g, op, 30, dens).tobytes()


@pytest.mark.parametrize("bins", [64, 512, 1022, 2048])
def test_correlation_decay_is_the_koopman_covariance(bins):
    # <(pi 1_f) P^n, 1_g> = <pi, 1_f P^n 1_g>: the two forms differ by
    # rounding only (measured <= 8.4e-17, on covariances up to 0.0163)
    op = build_ulam(bins)
    dens = stationary_density(op, tol=1e-10)
    f, g = _quarter_sets(bins)
    cov = correlation_decay(f, g, op, 30, density=dens)
    koopman = _dense_correlation(f, g, op, 30, dens)
    assert np.abs(cov - koopman).max() <= 1e-15


@pytest.mark.parametrize("bins", [10, 64, 510, 1022, 2048])
def test_no_product_reads_the_half_rows(bins):
    # NaN in every row `push` hands to its own copy (from k on) must reach
    # neither the density, nor its residual, nor the correlations; at 10
    # bins, the smallest count with k < B, that is rows 8 and 9
    op = build_ulam(bins)
    k = -(-bins // 16) * 8
    planted = op.matrix.copy()
    planted[k:] = np.nan
    nan_op = dataclasses.replace(op, matrix=planted)
    dens, nan_dens = (stationary_density(o, tol=1e-10) for o in (op, nan_op))
    assert nan_dens.values.tobytes() == dens.values.tobytes()
    assert nan_dens.residual.hex() == dens.residual.hex()
    f, g = _quarter_sets(bins)
    cov = correlation_decay(f, g, nan_op, 30, density=nan_dens)
    assert cov.tobytes() == correlation_decay(f, g, op, 30, density=dens).tobytes()


def test_stationary_density_runs_one_product_per_step():
    # each step takes one product, and the residual one more
    for bins in (16, 64, 130):
        op = build_ulam(bins)
        counted = dataclasses.replace(op, matrix=op.matrix.view(CountingMatrix))
        CountingMatrix.products = 0
        dens = stationary_density(counted, tol=1e-10)
        assert CountingMatrix.products == _dense_power_iteration(op, 1e-10)[2] + 1
        assert dens.values.tobytes() == stationary_density(op, tol=1e-10).values.tobytes()


# ---------------------------------------------------------------------------
# quotient statistics


def test_leading_quotients_match_trajectory():
    # the walk khinchin_experiment consumes agrees with the exact trajectory
    rng = random.Random(41)
    for _ in range(30):
        theta = sample_theta(rng, bits=128, min_quotients=40)
        stream = leading_quotients(theta.preperiod, 2 * len(theta.preperiod))
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
        khinchin_experiment("linear", samples=1, n_max=experiments.MAX_KHINCHIN_N + 1,
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
            # to the end of the expansion: two levels consume at least one quotient
            for n, a1 in enumerate(leading_quotients(quotients, 2 * len(quotients))):
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
        records.append(experiments.ExceedanceRecord(sample_id, count, last))
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
        draws = mock.patch.object(experiments, "_denominator_bits", lambda _: bits)
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
    # the shared run of check 10 counts every rational_to_cf call in experiments
    passed, details = exceedance_run.verdict.passed, exceedance_run.verdict.details
    expansions, results = exceedance_run.expansions, exceedance_run.results
    assert passed
    assert details == "summable median 0, linear median 4, window growth 711 -> 859"
    assert expansions == 200 + results[0].resamples
    assert [r.family for r in results] == ["iterated_log_squared", "linear"]
