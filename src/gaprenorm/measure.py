"""Transfer operator of the gap map and its invariant density.

The inverse branches of the map are Mobius transformations with integer
coefficients, read from the one table `cf.branch_matrix` (derived in
`cf.PartitionCell`), so every bin-overlap length in the Ulam matrix is an
exact rational before the final float conversion.  Branch families are
enumerated explicitly up to a cutoff and the remainder is summed in closed
form (digamma and Hurwitz-zeta tails), which keeps each row's mass defect
near machine epsilon instead of at the truncation scale.

Also here: the stationary-density power iteration, the log-norm
integrability estimate with its Lebesgue-measure series bound, and an
empirical correlation-decay probe.  The quotient-exceedance Monte Carlo,
a seeded driver on the continued-fraction walk, lives in `experiments`.

Masses of rational intervals under the step density (`DensityEstimate.mass`
and the cells of `integral_log_norm`) are computed in integers: each bin
overlap is a cross-multiplied numerator over denominator, divided once.
Python's int / int is correctly rounded, as is float(Fraction), so with the
sum order kept every result has the bits of the exact Fraction computation.
`integral_log_norm` computes the masses of all cells inside one bin at once
as int64 quotients, whose operands stay below 2**53 and so round the same
way; a cell that reaches into a second bin takes the scalar path.  Its
terms are added left to right with `np.add.accumulate`.  The long sums of
`series_bound` (up to 10^6 terms) follow numpy's pairwise order, block by
block (`_pairwise_sum`), so they have the bits of one whole-array `.sum()`.
Its even strips follow the same order: a strip's sum is the sum of its
lower half, which is the whole strip at half the cutoff, plus the sum of
its upper half, so a per-process memo of strip sums lets the doubled-cutoff
bound reuse the default's strips bit for bit.

The Half branch g(x) = 1 - x alone fills rows B/2 .. B-1 of the Ulam
matrix, one exact 1.0 per row, so `build_ulam`'s row sums and
`UlamOperator.push` skip those rows with the bits kept.  Both the power
iteration and the correlation probe take their products through `push`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

import numpy as np

from . import GaprenormError
from .cf import PartitionCell, branch_matrix
# the benchmark traces the exceedance Monte Carlo under this module's name
from .experiments import khinchin_experiment  # noqa: F401


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
    # x_j = (a*j + b*bins) / (c*j + d*bins); the bin from edge j up is
    # column j (edges j are consecutive).  Column j adds its image length to
    # row i0, the bin of x_j, up to the next bin edge when the image crosses
    # one (a split column), and the rest of a split column to row i0 + 1.
    # The branch is increasing, so the columns of one row i0 are a run,
    # ended by its split column, and each run is added as one slice of its
    # row.  No cell gets two additions from one branch
    a, b, c, d = branch
    num, den = a * j + b * bins, c * j + d * bins
    x = num / den
    ib = (num * bins) // den
    step = ib[1:] - ib[:-1]
    if step.size and int(step.max()) > 1:
        raise AssertionError("branch image wider than one bin")
    split = np.flatnonzero(step)
    i1 = ib[1:][split]
    edge = i1 / bins
    right = x[1:].copy()
    right[split] = edge
    w = (right - x[:-1]) * bins
    c0 = int(j[0])
    ends = [*(split + 1).tolist(), w.size]
    s = 0
    for e in ends:
        if e > s:
            P[ib[s], c0 + s : c0 + e] += w[s:e]
        s = e
    if split.size:
        np.add.at(P, (i1, c0 + split), (x[1:][split] - edge) * bins)


# branches per block: blocks of 64 or 256 were no faster, and they raised
# the peak memory of a 512-bin build by 0.9 or 3 MB
RUN_MAX = 16


def _scatter_branches(P: np.ndarray, bins: int, j: np.ndarray, mats: np.ndarray) -> None:
    # `_scatter_increasing` for each branch (a row a, b, c, d of `mats`) in
    # order.  A branch is increasing, so its edges' rows lie between the
    # exact floors r0 at j[0] and r1 at j[-1]; when r0 == r1 each column j
    # adds (x[j+1] - x[j]) * bins to row r0 and nothing else.  Consecutive
    # such branches of one row are computed as a block with the same int64
    # numerators, denominators and float division, then added row by row, so
    # each cell gets the same float additions in the same order.
    a, b, c, d = (mats[:, i : i + 1] for i in range(4))
    ends = j[[0, -1]]
    r0, r1 = ((a * ends + b * bins) * bins // (c * ends + d * bins)).T.tolist()
    cols = slice(int(j[0]), int(j[-1]))
    s = 0
    while s < len(mats):
        if r0[s] != r1[s]:
            _scatter_increasing(P, bins, j, mats[s].tolist())
            s += 1
            continue
        e = s + 1
        while e < len(mats) and e - s < RUN_MAX and r0[e] == r1[e] == r0[s]:
            e += 1
        x = (a[s:e] * j + b[s:e] * bins) / (c[s:e] * j + d[s:e] * bins)
        row = P[r0[s], cols]
        # one addition per cell per block row, in row order; np.add.reduce
        # would regroup the sum (pairwise) and change the bits
        for v in (x[:, 1:] - x[:, :-1]) * bins:
            row += v
        s = e


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
    """Row-stochastic discretization of the transfer operator on uniform bins.

    Row i >= B/2 holds one exact 1.0, at column B-1-i.  `push` runs BLAS
    on the top k rows only, k the smallest multiple of 8 at or above B/2,
    and adds the rest's terms itself.  OpenBLAS's gemv sums the rows in
    order, in blocks of up to 8, so the top k rows are summed as in the
    dense product, and each later row adds zeros and one exact term: the
    same bits (a split at B/2 itself cuts a block and does not keep them).
    Every output stays in the one call, so the threads share them out as
    in the dense product, except where OpenBLAS threads only the larger
    product (682 to 958 bins on the build measured): there push has the
    one-thread bits.
    """

    bins: int
    matrix: np.ndarray
    row_defect: float
    branch_limit: int

    def push(self, p: np.ndarray) -> np.ndarray:
        """`p @ matrix`, bit for bit: the image of a density (a row vector)."""
        B = self.bins
        k = min(B, -(-B // 16) * 8)
        q = p[:k] @ self.matrix[:k]
        q[: B - k] += p[k:][::-1]
        return q


ROW_DEFECT_LIMIT = 1e-6  # largest row mass defect accepted before renormalizing
MAX_BINS = 8192  # the dense matrix takes 8 * bins**2 bytes: 512 MiB here


def build_ulam(bins: int) -> UlamOperator:
    """Assemble the bin-transition matrix from exact inverse branches.

    Odd branches k <= L and even branches up to a per-n fit are enumerated
    with integer endpoint arithmetic; everything beyond is added analytically
    (the tail cells all land in a single known source bin).  Rows are checked
    against ROW_DEFECT_LIMIT before the final renormalization.

    Most branches land in a single source row, and consecutive ones of one
    row are added as a block of at most RUN_MAX rows (`_scatter_branches`).
    The block holds the same elementwise values as the per-branch calls, and
    its rows are added into the matrix row one at a time in enumeration
    order, so every cell receives the same float additions in the same order
    and the matrix has the bits of branch-by-branch assembly.  Only branches
    whose image crosses a bin edge go through `_scatter_increasing` one by
    one; it adds each run of columns that land in one row as one slice of
    that row, and the parts of the split columns past the row edge by
    index.  No cell gets two additions from one branch, so this too keeps
    the bits.  Each strip's m > M remainder is added right after its
    strip's branches.
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
    odd = [branch_matrix(2 * k + 1) for k in range(1, L + 1)]
    _scatter_branches(P, B, j_half, np.array(odd, dtype=np.int64))

    j_full = np.arange(B + 1, dtype=np.int64)
    edges = j_full / B
    for n in range(1, L + 1):
        M, i_star = _even_fit_m(B, n)
        if M:
            even = [branch_matrix(2 * n, m) for m in range(1, M + 1)]
            _scatter_branches(P, B, j_full, np.array(even, dtype=np.int64))
        # the m > M remainder: (1/4n^2)[psi(M+1+e+d) - psi(M+1+e+c)] per
        # column (c, d), e = 1/(2n), all in source row i_star
        psi = digamma(M + 1 + 1.0 / (2 * n) + edges)
        P[i_star] += (psi[1:] - psi[:-1]) * (B / (4.0 * n * n))

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

    # the Half rows sum to exactly 1.0, so their defect is 0 and their
    # division by 1.0 a no-op: only the rows above them are summed
    top = P[: B // 2]
    rowsums = top.sum(axis=1)
    defect = float(np.abs(rowsums - 1.0).max())
    if defect > ROW_DEFECT_LIMIT:
        raise UlamAssemblyError(
            f"row mass defect {defect:.3e} exceeds {ROW_DEFECT_LIMIT:.3e}"
        )
    top /= rowsums[:, None]
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
STALL_STEPS = 1_000  # steps without a new smallest gap before ConvergenceError


def stationary_density(op: UlamOperator, tol: float = 1e-10) -> DensityEstimate:
    """Left fixed vector of the operator by power iteration.

    The residual is the L1 distance between the returned density and its
    image, which equals the l1 gap of the underlying probability vectors.
    The gap falls geometrically to a rounding floor (within a few hundred
    steps); a tol below that floor raises ConvergenceError once the gap has
    set no new minimum for STALL_STEPS steps.
    """
    if not 0 < tol < math.inf:
        need = "finite" if tol > 0 else "positive"
        raise ValueError(f"tol must be {need}, got {tol!r}")
    p = np.full(op.bins, 1.0 / op.bins)
    floor, floor_step = math.inf, 0
    for step in range(1, MAX_POWER_STEPS + 1):
        q = op.push(p)
        gap = float(np.abs(q - p).sum())
        p = q
        if gap <= tol:
            break
        if gap < floor:
            floor, floor_step = gap, step
        elif step - floor_step >= STALL_STEPS:
            raise ConvergenceError(
                f"no fixed point to {tol:.1e}: the L1 gap stalled at its floor"
                f" {floor:.1e} from step {floor_step} to step {step}"
            )
    else:
        raise ConvergenceError(
            f"no fixed point to {tol:.1e} in {MAX_POWER_STEPS} steps"
        )
    p /= p.sum()
    residual = float(np.abs(op.push(p) - p).sum())
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


SUM_BLOCK = 1 << 15  # terms per block of `_pairwise_sum`: 256 KiB of float64


def _pairwise_sum(terms: Callable[[int, int], np.ndarray], lo: int, hi: int) -> float:
    """`terms(lo, hi).sum()`, built in blocks of at most SUM_BLOCK terms.

    terms(i, j) is the float64 array of terms i..j-1.  numpy sums a
    contiguous float64 array pairwise: above 128 terms it splits at n // 2
    rounded down to a multiple of 8 and adds the sums of the two parts.
    Taking the same splits down to blocks and summing each block with
    `.sum()` adds every term in the same order, so the result has the bits
    of the whole-array sum while only one block is held at a time.
    """
    n = hi - lo
    if n <= SUM_BLOCK:
        return float(terms(lo, hi).sum())
    split = lo + n // 2 - n // 2 % 8
    return _pairwise_sum(terms, lo, split) + _pairwise_sum(terms, split, hi)


def _log_ratio_sum(u0: int, count: int) -> float:
    # sum of log(u)/(u(u+1)) over u = u0, u0 + 2, ..., count terms, with the
    # bits of numpy's sum over the whole array: u and u + 1 are integers
    # below 2**53, exact in float64, so each term has the bits it would have
    # in one whole array.  Every block is written into the same two buffers
    # (`_pairwise_sum` sums a block before it asks for the next)
    size = min(count, SUM_BLOCK)
    evens = np.arange(0, 2 * size, 2, dtype=np.float64)
    u, t = np.empty(size), np.empty(size)

    def terms(lo: int, hi: int) -> np.ndarray:
        x, den = u[: hi - lo], t[: hi - lo]
        np.add(evens[: hi - lo], u0 + 2 * lo, out=x)
        np.add(x, 1.0, out=den)
        den *= x
        np.log(x, out=x)
        x /= den
        return x

    return _pairwise_sum(terms, 0, count)


# G(e) = sum_{m >= 1} log(m+2e)/((m+e)(m+1+e)); G_0 = G(0) and G_1 = G'(0).
# Each is the float64 numpy sum (one array, pairwise order) of its terms for
# m <= 2*10^6: log(m)/(m(m+1)) for G_0, plus the closed-form rest
# _log_uu1_tail(2e6 + 0.5); 2/(m^2(m+1)) - log(m)(2m+1)/(m(m+1))^2 for G_1,
# whose tail past the cutoff is ~1e-12 and enters weighted by a zeta(3)
# factor, so it is dropped.  tests/test_measure.py recomputes both sums.
G_0 = 0.7885305659115088
G_1 = 1.0271437628028277


def _even_n_tail(N: int) -> float:
    # sum over n > N of the full a1 = 2n strip: the log(2n) part telescopes
    # to log(2n)/(2n(2n+1)) exactly; the rest is G(1/(2n))/(4n^2) with G
    # expanded to first order (the N^-3 remainder is far below tolerance).
    # The log(2n) part is summed directly for 10^6 values of n (u = 2n).
    t1 = _log_ratio_sum(2 * N + 2, 1_000_000)
    t1 += 0.5 * float(_log_uu1_tail(2.0 * (N + 1_000_000) + 1.0))
    from scipy.special import zeta

    return float(t1 + G_0 * zeta(2, N + 1) / 4.0 + G_1 * zeta(3, N + 1) / 8.0)


@cache
def _strip_sums(m_cut: int) -> list[float]:
    # the whole-strip sums of the even family at cutoff m_cut, for n = 1, 2,
    # ..., as far as any call has needed them; `series_bound` extends it
    return []


def _strip_block_sums(n_lo: int, n_hi: int, m_lo: int, m_cut: int) -> list[float]:
    # numpy's sum of the terms m = m_lo + 1 .. m_cut of the even strip n, for
    # n = n_lo .. n_hi.  The term of Even(n, m) is log(a_m) / (b_m * b_{m+1})
    # with b_m = 2nm + 1 and a_m = b_m + 1; both advance by 2m from one n to
    # the next, exactly, as integers below 2**53
    step = np.arange(2 * m_lo + 2, 2 * m_cut + 3, 2, dtype=np.float64)  # 2m
    b = step * (n_lo - 1) + 1.0
    a = b[:-1] + 1.0
    den, t = np.empty(a.size), np.empty(a.size)
    sums = []
    for _ in range(n_lo, n_hi + 1):
        b += step
        a += step[:-1]
        np.multiply(b[:-1], b[1:], out=den)
        np.log(a, out=t)
        t /= den
        sums.append(float(t.sum()))
    return sums


def series_bound(n_cut: int = 2000, m_cut: int = 4096, k_cut: int = 200_000) -> float:
    """The Lebesgue-weighted log-eigenvalue-bound series, summed to ~1e-9.

    Direct summation alone converges like log(T)/T and cannot reach 1e-6;
    the tails here are closed forms (dilogarithm for each m-tail, digamma
    telescopes and a two-term expansion for the n-tail), so the default
    cutoffs land many digits below the advertised tolerance.

    The odd terms k <= k_cut and the 10^6 directly summed terms of the
    n-tail are added in numpy's pairwise order, block by block
    (`_pairwise_sum`).  Each even strip n <= n_cut is one array of m_cut
    terms, written into buffers allocated once and summed by numpy.  Every
    factor of a term is an integer below 2**53, exact in float64, so the
    result has the bits of summing each family as one whole numpy array.

    Above 128 terms numpy splits a strip at h = m_cut//2 - (m_cut//2) % 8
    and adds the sums of its two parts, and the first h terms at cutoff
    m_cut are the whole strip at cutoff h.  Whole-strip sums are kept per
    cutoff for the life of the process (`_strip_sums`, a functools cache),
    so a strip already summed at cutoff h costs only its upper m_cut - h
    terms: the doubled cutoffs (m_cut 8192) reuse the default's 4096-term
    strips.  A strip already summed at m_cut itself costs nothing.  Every
    call order gives the same bits.
    """
    total = _log_ratio_sum(3, k_cut)  # u = 2k + 1
    total += _odd_tail(k_cut)
    strips = _strip_sums(m_cut)
    h = m_cut // 2 - m_cut // 2 % 8
    lower = _strip_sums(h)[len(strips) : n_cut] if m_cut > 128 else []
    if lower:
        upper = _strip_block_sums(len(strips) + 1, len(strips) + len(lower), h, m_cut)
        strips += [lo + up for lo, up in zip(lower, upper)]
    if len(strips) < n_cut:
        strips += _strip_block_sums(len(strips) + 1, n_cut, 0, m_cut)
    for s in strips[:n_cut]:
        total += s
    total += float(_even_m_tail(np.arange(1, n_cut + 1), np.full(n_cut, m_cut)).sum())
    total += _even_n_tail(n_cut)
    return total


def _log_norm_cells(K: int):
    # the cells of `integral_log_norm` in its enumeration order, as int64
    # endpoints p/q < r/s and float eigenvalues: Odd(k) = (1/(2k+2), 1/(2k+1))
    # for k = 1..K, then Even(n, m) = (m/b, (m+1)/(b+2n)) with b = 2nm+1 for
    # n = 1..K/2 and m = 1..max(1, K // 2n) (the endpoints of `PartitionCell`)
    k = np.arange(1, K + 1, dtype=np.int64)
    ns = np.arange(1, K // 2 + 1, dtype=np.int64)
    Ms = np.maximum(1, K // (2 * ns))
    n = np.repeat(ns, Ms)
    m = np.arange(1, n.size + 1, dtype=np.int64) - np.repeat(np.cumsum(Ms) - Ms, Ms)
    b = 2 * n * m + 1
    ones = np.ones_like(k)
    p = np.concatenate([ones, m])
    q = np.concatenate([2 * k + 2, b])
    r = np.concatenate([ones, m + 1])
    s = np.concatenate([2 * k + 1, b + 2 * n])
    # odd: k + sqrt(k^2 + 1); even: half of T = 2nm+2 plus sqrt(T^2 - 4).
    # Each square is an integer below 2**53 and np.sqrt is correctly rounded,
    # so these are the bits of the same expressions in Python floats
    T = b + 1
    lam = np.concatenate([k + np.sqrt(k * k + 1.0), 0.5 * (T + np.sqrt(T * T - 4.0))])
    return p, q, r, s, lam


def integral_log_norm(density: DensityEstimate) -> float:
    """Estimate of the integral of the log top eigenvalue against the density.

    Cells are enumerated with closed-form eigenvalues (odd: k + sqrt(k^2+1),
    even: half of 2nm+2 plus sqrt of its square minus 4) and weighted by
    exact bin-overlap masses; the unenumerated remainder is bounded by the
    max density times the Lebesgue series tail, which keeps the estimate on
    the conservative side.  Cells are enumerated to K = 4 * bins.  Half cells
    contribute nothing.

    Cell endpoints are int64 arrays, so no Fraction is built.  A cell whose
    exact bin floors put both ends in one bin (nearly all of them) has mass
    value * (r*q - p*s) / (q*s), computed for all such cells at once: every
    product is below 2**53, so the int64 quotient rounds like Python's
    int / int.  A cell that reaches into a second bin, even only up to its
    edge, goes through the scalar `_cell_mass`.  Each log is `math.log`, and
    the terms are added left to right in enumeration order
    (`np.add.accumulate`), so the result has the bits of the
    exact-Fraction masses summed one by one.
    """
    B = density.bins
    K = 4 * B
    v = density.values
    p, q, r, s, lam = _log_norm_cells(K)
    first = p * B // q
    one = first == np.minimum(r * B // s, B - 1)
    mass = np.empty(lam.size)
    mass[one] = v[first[one]] * ((r * q - p * s)[one] / (q * s)[one])
    rest = np.flatnonzero(~one)
    values = v.tolist()
    cells = zip(*(e[rest].tolist() for e in (p, q, r, s)))
    mass[rest] = [_cell_mass(values, B, *cell) for cell in cells]
    # not np.log: its vectorized log need not round like the C library's
    logs = np.fromiter(map(math.log, lam.tolist()), np.float64, lam.size)
    total = np.add.accumulate(logs * mass)[-1]
    tail = _odd_tail(K)
    ns = np.arange(1, K // 2 + 1)
    tail += float(_even_m_tail(ns, np.maximum(1, K // (2 * ns))).sum())
    tail += _even_n_tail(K // 2)
    return float(total + density.max_density * tail)


# ---------------------------------------------------------------------------
# correlation decay under the discretized dynamics


def correlation_decay(
    f_bins,
    g_bins,
    op: UlamOperator,
    n_max: int,
    density: DensityEstimate,
) -> np.ndarray:
    """|cov(f, g after n steps)| for indicator observables on bin sets.

    The measure is pushed forward rather than g pulled back:
    cov_n = <(pi 1_f) P^n, 1_g> - E f E g, with pi the stationary
    probability vector, so each step is one `push` from pi on f's bins.
    """
    pi = density.values / op.bins
    pi = pi / pi.sum()
    q = np.zeros(op.bins)
    q[f_bins] = pi[f_bins]
    g = np.zeros(op.bins, dtype=bool)
    g[g_bins] = True  # a bin listed twice is still one bin of the set
    ef_eg = q.sum() * pi[g].sum()
    out = np.empty(n_max + 1)
    for n in range(n_max + 1):
        if n:
            q = op.push(q)
        out[n] = abs(q[g].sum() - ef_eg)
    return out
