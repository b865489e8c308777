"""Transfer operator of the gap map and its invariant density.

The inverse branches of the map are Mobius transformations with integer
coefficients, read from the one table `cf.branch_matrix` (derived in
`cf.PartitionCell`), so every bin-overlap length in the Ulam matrix is an
exact rational before the final float conversion.  Branch families are
enumerated explicitly up to a cutoff and the remainder is summed in closed
form (digamma and Hurwitz-zeta tails), which keeps each row's mass defect
near machine epsilon instead of at the truncation scale.

Also here: the stationary-density power iteration, the log-norm
integrability estimate with its Lebesgue-measure series bound, an empirical
correlation-decay probe, and the quotient-exceedance Monte Carlo.

Masses of rational intervals under the step density (`DensityEstimate.mass`
and the cells of `integral_log_norm`) are computed in integers: each bin
overlap is a cross-multiplied numerator over denominator, divided once.
Python's int / int is correctly rounded, as is float(Fraction), so with the
sum order kept every result has the bits of the exact Fraction computation.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Callable, Sequence

import numpy as np

from . import GaprenormError
from .cf import PartitionCell, branch_matrix, leading_quotients, rational_to_cf

__all__ = [
    "UlamAssemblyError",
    "ConvergenceError",
    "UlamOperator",
    "DensityEstimate",
    "build_ulam",
    "stationary_density",
    "integral_log_norm",
    "series_bound",
    "correlation_decay",
    "THRESHOLD_FAMILIES",
    "ExceedanceRecord",
    "KhinchinResult",
    "khinchin_experiments",
    "khinchin_experiment",
]


class UlamAssemblyError(GaprenormError):
    """Raised when the assembled rows miss too much mass before renormalizing."""


class ConvergenceError(GaprenormError):
    """Power iteration failed to reach the requested residual."""


# ---------------------------------------------------------------------------
# Ulam matrix assembly

# P[i, j] = bins * Leb(I_i intersect g^{-1} I_j).  Each enumerated branch is
# increasing with derivative < 1, so the preimage of one target bin meets at
# most two adjacent source bins; bin indices are exact integer floors.


def _scatter_increasing(P: np.ndarray, bins: int, j: np.ndarray, branch) -> None:
    # the branch (a, b, c, d) sends the target bin edge j/bins to
    # (a*j + b*bins) / (c*j + d*bins); the bin from edge j up is column j
    a, b, c, d = branch
    num, den, cols = a * j + b * bins, c * j + d * bins, j[:-1]
    x = num / den
    ib = (num * bins) // den
    i0, i1 = ib[:-1], ib[1:]
    left, right = x[:-1], x[1:]
    step = i1 - i0
    if step.size and int(step.max()) > 1:
        raise AssertionError("branch image wider than one bin")
    same = step == 0
    if same.any():
        np.add.at(P, (i0[same], cols[same]), (right[same] - left[same]) * bins)
    split = ~same
    if split.any():
        edge = i1[split] / bins
        np.add.at(P, (i0[split], cols[split]), (edge - left[split]) * bins)
        np.add.at(P, (i1[split], cols[split]), (right[split] - edge) * bins)


def _even_fit_m(bins: int, n: int) -> tuple[int, int]:
    # Smallest M such that the whole m > M remainder of the a1 = 2n strip,
    # the interval ((M+1)/(2n(M+1)+1), 1/(2n)), sits inside one source bin,
    # i_star = i, the last bin that starts below 1/(2n).  With bins = 2n*i + r,
    # 1 <= r <= 2n, Even(n, M+1) starts below i + r/(2n) <= i + 1 bins, and at
    # i bins or more exactly when (M+1)*bins >= i*(2n(M+1) + 1), that is when
    # (M+1)*r >= i; so M = max(0, ceil(i/r) - 1)
    i_star = (bins - 1) // (2 * n)
    r = bins - 2 * n * i_star
    return max(0, -(-i_star // r) - 1), i_star


@dataclass(frozen=True)
class UlamOperator:
    """Row-stochastic discretization of the transfer operator on uniform bins."""

    bins: int
    matrix: np.ndarray
    row_defect: float
    branch_limit: int


ROW_DEFECT_LIMIT = 1e-6  # largest row mass defect accepted before renormalizing
MAX_BINS = 8192  # the dense matrix takes 8 * bins**2 bytes: 512 MiB here


def build_ulam(bins: int) -> UlamOperator:
    """Assemble the bin-transition matrix from exact inverse branches.

    Odd branches k <= L and even branches up to a per-n fit are enumerated
    with integer endpoint arithmetic; everything beyond is added analytically
    (the tail cells all land in a single known source bin).  Rows are checked
    against ROW_DEFECT_LIMIT before the final renormalization.
    """
    if bins < 2 or bins % 2:
        raise ValueError("bins must be even and at least 2")
    if bins > MAX_BINS:
        raise ValueError(f"bins {bins} exceeds the budget of {MAX_BINS}")
    from scipy.special import digamma, polygamma, zeta

    B = bins
    L = max(B, 256)
    P = np.zeros((B, B))

    # half branch: bin edges map to bin edges, one full bin per column
    P[np.arange(B - 1, B // 2 - 1, -1), np.arange(B // 2)] += 1.0

    # odd branches have target (1/2, 1), even branches (0, 1)
    j_half = np.arange(B // 2, B + 1, dtype=np.int64)
    for k in range(1, L + 1):
        _scatter_increasing(P, B, j_half, branch_matrix(2 * k + 1))

    j_full = np.arange(B + 1, dtype=np.int64)
    edges = j_full / B
    for n in range(1, L + 1):
        M, i_star = _even_fit_m(B, n)
        for m in range(1, M + 1):
            _scatter_increasing(P, B, j_full, branch_matrix(2 * n, m))
        # m > M remainder: per-column mass (1/4n^2)[psi(M+1+d+e) - psi(M+1+c+e)]
        eps = 1.0 / (2 * n)
        psi = digamma(M + 1 + eps + edges)
        P[i_star, :] += (psi[1:] - psi[:-1]) * (B / (4.0 * n * n))

    # odd k > L: cells sit inside (0, 1/(2L+3)), i.e. in bin 0 since L >= B
    arg = L + 1 + B / (2.0 * j_half)
    psi = digamma(arg)
    P[0, B // 2 :] += 0.5 * (psi[:-1] - psi[1:]) * B

    # even n > L: expand psi(1 + y + 1/(2n)) around 1/(2n) = 0 and sum the
    # 1/(2n)^s weights into Hurwitz zetas; s <= 3 leaves an O(zeta(6, L)) rest
    zs = [zeta(s, L + 1) for s in (2, 3, 4, 5)]
    vals = (
        digamma(1 + edges) * zs[0] / 4.0
        + polygamma(1, 1 + edges) * zs[1] / 8.0
        + polygamma(2, 1 + edges) * zs[2] / 32.0
        + polygamma(3, 1 + edges) * zs[3] / 192.0
    )
    P[0, :] += (vals[1:] - vals[:-1]) * B

    rowsums = P.sum(axis=1)
    defect = float(np.abs(rowsums - 1.0).max())
    if defect > ROW_DEFECT_LIMIT:
        raise UlamAssemblyError(
            f"row mass defect {defect:.3e} exceeds {ROW_DEFECT_LIMIT:.3e}"
        )
    P /= rowsums[:, None]
    return UlamOperator(bins=B, matrix=P, row_defect=defect, branch_limit=L)


# ---------------------------------------------------------------------------
# stationary density


def _cell_mass(values, B: int, a: int, b: int, c: int, d: int) -> float:
    """Mass of (a/b, c/d), 0 <= a/b < c/d <= 1, under the step density."""
    first = a * B // b
    last = min(c * B // d, B - 1)
    if first == last:
        return values[first] * ((c * b - a * d) / (b * d))
    total = values[first] * (((first + 1) * b - a * B) / (B * b))
    for i in range(first + 1, last):
        total += values[i] * (1 / B)
    num = c * B - last * d  # zero when c/d sits on the edge last/B
    if num:
        total += values[last] * (num / (d * B))
    return total


@dataclass(frozen=True)
class DensityEstimate:
    """Piecewise-constant density (mean one) with its fixed-point residual."""

    bins: int
    values: np.ndarray
    residual: float

    @property
    def min_density(self) -> float:
        return float(self.values.min())

    @property
    def max_density(self) -> float:
        return float(self.values.max())

    def mass(self, lo, hi) -> float:
        """Measure of (lo, hi) clamped to [0, 1] under the estimate.

        Each bin overlap is an integer ratio divided once, so the result has
        the bits of the sum of float(Fraction overlap) terms.
        """
        lo = max(Fraction(lo), Fraction(0))
        hi = min(Fraction(hi), Fraction(1))
        if hi <= lo:
            return 0.0
        return _cell_mass(
            self.values.tolist(),
            self.bins,
            lo.numerator,
            lo.denominator,
            hi.numerator,
            hi.denominator,
        )

    @property
    def mass_upper_half(self) -> float:
        return self.mass(*PartitionCell(1).endpoints)

    def l1_distance(self, other: "DensityEstimate") -> float:
        """L1 distance between the two step densities; grids must nest."""
        coarse, fine = (self, other) if self.bins <= other.bins else (other, self)
        if fine.bins % coarse.bins:
            raise ValueError("bin counts must nest for an exact L1 distance")
        r = fine.bins // coarse.bins
        diff = np.abs(np.repeat(coarse.values, r) - fine.values)
        return float(diff.sum() / fine.bins)

    def to_json(self) -> dict:
        return {
            "bins": self.bins,
            "residual": self.residual,
            "values": [float(v) for v in self.values],
        }


MAX_POWER_STEPS = 100_000  # power-iteration steps before ConvergenceError


def stationary_density(op: UlamOperator, tol: float = 1e-10) -> DensityEstimate:
    """Left fixed vector of the operator by power iteration.

    The residual is the L1 distance between the returned density and its
    image, which equals the l1 gap of the underlying probability vectors.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    M = op.matrix
    p = np.full(op.bins, 1.0 / op.bins)
    for _ in range(MAX_POWER_STEPS):
        q = p @ M
        gap = float(np.abs(q - p).sum())
        p = q
        if gap <= tol:
            break
    else:
        raise ConvergenceError(
            f"no fixed point to {tol:.1e} in {MAX_POWER_STEPS} steps"
        )
    p /= p.sum()
    residual = float(np.abs(p @ M - p).sum())
    return DensityEstimate(bins=op.bins, values=p * op.bins, residual=residual)


# ---------------------------------------------------------------------------
# the log-norm series and integrability estimate

# Series terms: odd cells contribute log(2k+1)/((2k+1)(2k+2)) and even cells
# log(2nm+2)/((2nm+1)(2n(m+1)+1)); both are (cell sup of log-eigenvalue
# bound) times (cell length).


def _dilog(z):
    from scipy.special import spence

    return spence(1.0 - np.asarray(z, dtype=np.float64))


def _log_uu1_tail(U):
    # integral over (U, inf) of log(u)/(u(u+1)) du, in closed form
    U = np.asarray(U, dtype=np.float64)
    return np.log(U) * np.log1p(1.0 / U) - _dilog(-1.0 / U)


def _odd_tail(K: int) -> float:
    # midpoint rule: the summand is convex-decreasing, correction O(K^-3 log K);
    # substituting u = 2x+1 gives the log(u)/(u(u+1)) tail exactly
    return 0.5 * float(_log_uu1_tail(2.0 * K + 2.0))


def _even_m_tail(n, M):
    """Sum over m > M of the even series term at fixed n (vectorizes in n).

    Midpoint integral with the exact antiderivative: substituting u = 2nx+2
    turns the integral into dilogarithms, so no quadrature in the inner loop.
    """
    n = np.asarray(n, dtype=np.float64)
    M = np.asarray(M, dtype=np.float64)
    U = 2.0 * n * (M + 0.5) + 2.0
    c = 2.0 * n - 1.0
    bracket = (
        _dilog(1.0 / U)
        - _dilog(-c / U)
        + np.log(U) * (np.log1p(c / U) - np.log1p(-1.0 / U))
    )
    return bracket / (4.0 * n * n)


@lru_cache(maxsize=None)
def _g_constants() -> tuple[float, float]:
    # G(e) = sum_m log(m+2e)/((m+e)(m+1+e)); values G(0) and G'(0).
    # The G'(0) tail past the cutoff is ~1e-12 and enters weighted by a
    # zeta(3) factor, so it is dropped.
    m = np.arange(1, 2_000_001, dtype=np.float64)
    g0 = float((np.log(m) / (m * (m + 1))).sum())
    g0 += float(_log_uu1_tail(2e6 + 0.5))
    g1 = float(
        (2.0 / (m * m * (m + 1)) - np.log(m) * (2 * m + 1) / (m * (m + 1)) ** 2).sum()
    )
    return g0, g1


def _even_n_tail(N: int) -> float:
    # sum over n > N of the full a1 = 2n strip: the log(2n) part telescopes
    # to log(2n)/(2n(2n+1)) exactly; the rest is G(1/(2n))/(4n^2) with G
    # expanded to first order (the N^-3 remainder is far below tolerance)
    n = np.arange(N + 1, N + 1_000_001, dtype=np.float64)
    t1 = float((np.log(2 * n) / (2 * n * (2 * n + 1))).sum())
    t1 += 0.5 * float(_log_uu1_tail(2.0 * (N + 1_000_000) + 1.0))
    g0, g1 = _g_constants()
    from scipy.special import zeta

    return t1 + g0 * zeta(2, N + 1) / 4.0 + g1 * zeta(3, N + 1) / 8.0


def series_bound(n_cut: int = 2000, m_cut: int = 4096, k_cut: int = 200_000) -> float:
    """The Lebesgue-weighted log-eigenvalue-bound series, summed to ~1e-9.

    Direct summation alone converges like log(T)/T and cannot reach 1e-6;
    the tails here are closed forms (dilogarithm for each m-tail, digamma
    telescopes and a two-term expansion for the n-tail), so the default
    cutoffs land many digits below the advertised tolerance.
    """
    k = np.arange(1, k_cut + 1, dtype=np.float64)
    total = float((np.log(2 * k + 1) / ((2 * k + 1) * (2 * k + 2))).sum())
    total += _odd_tail(k_cut)
    m = np.arange(1, m_cut + 1, dtype=np.float64)
    for n in range(1, n_cut + 1):
        a = 2.0 * n * m + 2.0
        total += float((np.log(a) / ((a - 1.0) * (a + 2.0 * n - 1.0))).sum())
    total += float(_even_m_tail(np.arange(1, n_cut + 1), np.full(n_cut, m_cut)).sum())
    total += _even_n_tail(n_cut)
    return total


def integral_log_norm(density: DensityEstimate) -> float:
    """Estimate of the integral of the log top eigenvalue against the density.

    Cells are enumerated with closed-form eigenvalues (odd: k + sqrt(k^2+1),
    even: half of 2nm+2 plus sqrt of its square minus 4) and weighted by
    exact bin-overlap masses; the unenumerated remainder is bounded by the
    max density times the Lebesgue series tail, which keeps the estimate on
    the conservative side.  Cells are enumerated to K = 4 * bins.  Half cells
    contribute nothing.  Cell endpoints enter `_cell_mass` as integers, so no
    Fraction is built, and the terms are added one by one in enumeration
    order, so the result has the bits of the exact-Fraction masses.
    """
    B = density.bins
    K = 4 * B
    v = density.values.tolist()
    total = 0.0
    # an odd cell is psi(1/2, 1), an even cell psi(0, 1) (see PartitionCell)
    for k in range(1, K + 1):
        a, b, c, d = branch_matrix(2 * k + 1)
        lam = k + math.sqrt(k * k + 1.0)
        total += math.log(lam) * _cell_mass(v, B, a + 2 * b, c + 2 * d, a + b, c + d)
    for n in range(1, K // 2 + 1):
        M = max(1, K // (2 * n))
        for m in range(1, M + 1):
            a, b, c, d = branch_matrix(2 * n, m)
            T = a + d
            lam = 0.5 * (T + math.sqrt(T * T - 4.0))
            total += math.log(lam) * _cell_mass(v, B, b, d, a + b, c + d)
    tail = _odd_tail(K)
    ns = np.arange(1, K // 2 + 1)
    tail += float(_even_m_tail(ns, np.maximum(1, K // (2 * ns))).sum())
    tail += _even_n_tail(K // 2)
    return total + density.max_density * tail


# ---------------------------------------------------------------------------
# correlation decay under the discretized dynamics


def _observable(bins: int, spec) -> np.ndarray:
    arr = np.zeros(bins)
    idx = np.asarray(spec)
    if idx.dtype == bool:
        arr[idx] = 1.0
    else:
        arr[idx.astype(np.intp)] = 1.0
    return arr


def correlation_decay(
    f_bins,
    g_bins,
    op: UlamOperator,
    n_max: int,
    density: DensityEstimate,
) -> np.ndarray:
    """|cov(f, g after n steps)| for indicator observables on bin sets."""
    f = _observable(op.bins, f_bins)
    g = _observable(op.bins, g_bins)
    pi = density.values / op.bins
    pi = pi / pi.sum()
    ef = float(pi @ f)
    eg = float(pi @ g)
    out = np.empty(n_max + 1)
    gv = g.astype(np.float64)
    for n in range(n_max + 1):
        out[n] = abs(float(pi @ (f * gv)) - ef * eg)
        gv = op.matrix @ gv
    return out


# ---------------------------------------------------------------------------
# quotient exceedance Monte Carlo

THRESHOLD_FAMILIES: dict[str, Callable[[int], float]] = {
    "linear": lambda n: float(n),
    "iterated_log_squared": lambda n: n * math.log(n + 2) ** 2,
    "none": lambda n: math.inf,
}


@dataclass(frozen=True)
class ExceedanceRecord:
    sample_id: int
    count: int
    last_index: int


@dataclass(frozen=True)
class KhinchinResult:
    family: str
    samples: int
    n_max: int
    seed: int
    window: tuple[int, int]
    records: list[ExceedanceRecord]
    half_counts: list[int]
    resamples: int

    @property
    def counts(self) -> list[int]:
        return [r.count for r in self.records]

    @property
    def median_count(self) -> float:
        return float(np.median(self.counts))

    @property
    def total_count(self) -> int:
        return int(sum(self.counts))

    @property
    def total_half_count(self) -> int:
        return int(sum(self.half_counts))


# one float threshold per window index and family, and a draw of about
# 2.1 n_max bits per sample whose expansion costs time quadratic in n_max
MAX_KHINCHIN_N = 100_000


def _denominator_bits(n_max: int) -> int:
    # each step consumes at most two quotients and a random b-bit rational
    # carries about 0.58 b of them; the 1.75 factor leaves slack so that
    # resampling stays rare
    return max(256, int((1.2 * n_max + 500) * 1.75))


def khinchin_experiments(
    families: Sequence[str],
    samples: int,
    n_max: int,
    rng_seed: int,
    window: tuple[int, int] | None = None,
) -> list[KhinchinResult]:
    """Count window exceedances of the leading quotient over random starts.

    Each sample draws a uniform big-denominator rational and walks its
    quotient list once.  Every family then counts the indices n in the window
    with leading quotient above its threshold b_n; one result per family
    comes back, in the order given.  Per-sample generators are seeded with
    seed xor index, so results are independent of any batching.  half_counts
    restrict the same counts to the lower half of the window.
    """
    if not families or any(f not in THRESHOLD_FAMILIES for f in families):
        raise ValueError(
            f"need families from {sorted(THRESHOLD_FAMILIES)}, got {list(families)}"
        )
    if samples < 1:
        raise ValueError("need samples >= 1")
    if n_max > MAX_KHINCHIN_N:
        raise ValueError(f"n_max {n_max} exceeds the budget of {MAX_KHINCHIN_N}")
    w0, w1 = window if window is not None else (100, n_max)
    if not 0 <= w0 <= w1 <= n_max:
        raise ValueError("window must satisfy 0 <= lo <= hi <= n_max")
    half = (w0 + w1) // 2
    bits = _denominator_bits(n_max)
    # per family: its thresholds over the window, records and half counts
    tallies = [
        ([THRESHOLD_FAMILIES[family](n) for n in range(w0, w1 + 1)], [], [])
        for family in families
    ]
    # a quotient at or below every family's smallest threshold counts for none
    floor = min(min(thresholds) for thresholds, _, _ in tallies)
    resamples = 0
    for sample_id in range(samples):
        rng = random.Random(rng_seed ^ sample_id)
        while True:
            p = rng.getrandbits(bits)  # below 2**bits, so theta < 1
            if p == 0:
                continue
            quotients = rational_to_cf(Fraction(p, 1 << bits)).preperiod
            walk = list(islice(leading_quotients(quotients), w1 + 1))
            # a draw is kept once its walk reaches the end of the window
            if len(walk) > w1:
                break
            resamples += 1
        candidates = [(n, a1) for n, a1 in enumerate(walk[w0:], w0) if a1 > floor]
        for thresholds, records, half_counts in tallies:
            hits = [n for n, a1 in candidates if a1 > thresholds[n - w0]]
            last = hits[-1] if hits else -1
            records.append(ExceedanceRecord(sample_id, len(hits), last))
            half_counts.append(bisect_right(hits, half))
    return [
        KhinchinResult(
            family=family,
            samples=samples,
            n_max=n_max,
            seed=rng_seed,
            window=(w0, w1),
            records=records,
            half_counts=half_counts,
            resamples=resamples,
        )
        for family, (_, records, half_counts) in zip(families, tallies)
    ]


def khinchin_experiment(
    threshold_family: str,
    samples: int,
    n_max: int,
    rng_seed: int,
    window: tuple[int, int] | None = None,
) -> KhinchinResult:
    """`khinchin_experiments` for a single threshold family."""
    return khinchin_experiments((threshold_family,), samples, n_max, rng_seed, window)[0]
