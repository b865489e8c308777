"""Cross-module acceptance checks with pinned seeds and tolerances.

Each check returns a Verdict and never raises: exceptions become failed
verdicts with the error in the details.  The CLI `verify` verb and the
acceptance test suite both run exactly these functions, so a green CI and a
green command line mean the same thing.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .cf import CFExpansion, cf_normalize, gap_trajectory, sample_theta
from .exact import exact_log
from .measure import (
    build_ulam,
    integral_log_norm,
    khinchin_experiment,
    series_bound,
    stationary_density,
)
from .orbit import (
    SANDWICH_SLACK,
    EncodingSearchError,
    sandwich_levels_sweep,
    verify_levels_encoding,
)
from .substitution import (
    A,
    B,
    C,
    WordStats,
    check_length_growth,
    expand_word,
    levels,
    lyapunov_estimate,
)

__all__ = ["Verdict", "CHECKS", "run_all", "all_passed"]


@dataclass(frozen=True)
class Verdict:
    criterion: int
    name: str
    passed: bool
    details: str
    seconds: float


def _sample_thetas(
    seed: int, count: int, bits: int, min_quotients: int, lower_half: bool = False
) -> list[CFExpansion]:
    rng = random.Random(seed)
    return [
        sample_theta(rng, bits=bits, lower_half=lower_half, min_quotients=min_quotients)
        for _ in range(count)
    ]


def check_spread_identity() -> tuple[bool, str]:
    """1: level spread equals the half-sum up to |xi| <= 5, exactly, n <= 20."""
    thetas = _sample_thetas(101, 100, bits=128, min_quotients=48)
    worst = 0
    for theta in thetas:
        lv = levels(theta, 20)
        for n in range(1, 21):
            xi = lv.stats[n][A].rho - lv.halfsums[n]
            worst = max(worst, abs(xi))
            if abs(xi) > 5:
                return False, f"|xi| = {abs(xi)} at level {n}"
    return True, f"100 thetas, n <= 20, max |xi| = {worst}"


def check_length_cocycle() -> tuple[bool, str]:
    """2: composed-stats lengths match the matrix cocycle exactly, n <= 30."""
    thetas = _sample_thetas(202, 50, bits=256, min_quotients=65)
    for theta in thetas:
        lv = levels(theta, 30)
        for n in range(31):
            stats = lv.stats[n]
            if stats[A].length != lv.lengths[n][0]:
                return False, f"A-length mismatch at level {n}"
            if stats[C].length != lv.lengths[n][1]:
                return False, f"C-length mismatch at level {n}"
            if stats[A].length != stats[B].length:
                return False, f"|A-word| != |B-word| at level {n}"
    return True, "50 thetas, n <= 30, lengths exact; |A-word| = |B-word|"


def check_stats_oracle() -> tuple[bool, str]:
    """3: monoid stats equal brute-force stats of the expanded word."""
    thetas = _sample_thetas(303, 25, bits=256, min_quotients=65)
    checked = 0
    largest = 0
    for theta in thetas:
        lv = levels(theta, 30)
        n = max((v for v in range(31) if lv.lengths[v][0] <= 100_000), default=0)
        if n == 0:
            continue
        word = expand_word(lv.rules[:n], A, max_len=100_000)
        if WordStats.of_word(word) != lv.stats[n][A]:
            return False, f"stats mismatch at level {n} (length {len(word)})"
        checked += 1
        largest = max(largest, len(word))
    return True, f"{checked} words checked, longest {largest} letters"


def check_encoding() -> tuple[bool, str]:
    """4: a grid point reproduces the level word with at most 2 mismatches."""
    thetas = _sample_thetas(404, 20, bits=256, min_quotients=65, lower_half=True)
    worst = 0
    for theta in thetas:
        lv = levels(theta, 30)
        n = max(v for v in range(1, 31) if lv.lengths[v][0] <= 10_000)
        try:
            match = verify_levels_encoding(lv, n)
        except EncodingSearchError as exc:
            return False, f"no grid match at level {n}: {exc}"
        worst = max(worst, match.mismatches)
    return True, f"20 thetas, worst mismatch count {worst}"


def check_sandwich() -> tuple[bool, str]:
    """5: orbit spreads are pinched between adjacent level spreads (slack 10)."""
    thetas = _sample_thetas(505, 10, bits=256, min_quotients=65, lower_half=True)
    rng = random.Random(515)
    total = 0
    for theta in thetas:
        lv = levels(theta, 30)
        n_max = max(v for v in range(1, 31) if 2 * max(lv.lengths[v]) <= 6000)
        for _ in range(50):
            y = Fraction(rng.getrandbits(48), 1 << 48)
            for chk in sandwich_levels_sweep(y, lv, n_max):
                total += 1
                if not chk.ok:
                    return False, (
                        f"level {chk.level}: spread {chk.spread_lower_window}"
                        f"/{chk.spread_upper_window} outside"
                        f" [{chk.rho_prev} - {SANDWICH_SLACK},"
                        f" 2*{chk.rho_level} + {SANDWICH_SLACK}]"
                    )
    return True, f"{total} (y, level) sandwich checks across 10 thetas"


def check_growth() -> tuple[bool, str]:
    """6: three-step length growth and the log-rate band at level 30."""
    thetas = _sample_thetas(606, 50, bits=256, min_quotients=65)
    for theta in thetas:
        rep = check_length_growth(theta, 30)
        if not rep.all_steps_ok:
            return False, "min length failed to dominate max three levels down"
        if not rep.rate_in_band:
            return False, (
                f"log-rate {rep.log_rate:.4f} vs estimate {rep.lyap_estimate:.4f}"
            )
    return True, "50 thetas: exact three-step growth, rate within 0.2"


def check_lyapunov_floor() -> tuple[bool, str]:
    """7: depth-50 Lyapunov estimates stay above log sqrt(2) - 0.05."""
    thetas = _sample_thetas(707, 30, bits=256, min_quotients=105)
    floor = math.log(math.sqrt(2.0)) - 0.05
    low = math.inf
    for theta in thetas:
        est = lyapunov_estimate(theta, 50)
        low = min(low, est)
        if est < floor:
            return False, f"estimate {est:.4f} below floor {floor:.4f}"
    return True, f"30 estimates, smallest {low:.4f} vs floor {floor:.4f}"


def check_density() -> tuple[bool, str]:
    """8: stationary density residual, positivity, upper-half mass, stability."""
    start = time.monotonic()
    op512 = build_ulam(512)
    d512 = stationary_density(op512, tol=1e-10)
    d1024 = stationary_density(build_ulam(1024), tol=1e-10)
    elapsed = time.monotonic() - start
    bound = 0.5 + 2.0 / 512
    l1 = d512.l1_distance(d1024)
    ok = (
        d512.residual <= 1e-10
        and d512.min_density >= 1e-3
        and d512.mass_upper_half <= bound
        and l1 <= 5e-2
        and elapsed < 60.0
    )
    return ok, (
        f"residual {d512.residual:.2e}, min density {d512.min_density:.3f}, "
        f"upper-half mass {d512.mass_upper_half:.4f} <= {bound:.4f}, "
        f"L1(512, 1024) = {l1:.2e}, {elapsed:.1f}s"
    )


def check_integrability() -> tuple[bool, str]:
    """9: series bound stable to 1e-6 and dominates the density integral."""
    s1 = series_bound()
    s2 = series_bound(n_cut=4000, m_cut=8192, k_cut=400_000)
    if not (math.isfinite(s1) and abs(s1 - s2) <= 1e-6 * s1):
        return False, f"series bound unstable: {s1!r} vs {s2!r}"
    density = stationary_density(build_ulam(512), tol=1e-10)
    integral = integral_log_norm(density)
    cap = density.max_density * s1
    if not integral <= cap:
        return False, f"integral {integral:.6f} above cap {cap:.6f}"
    return True, (
        f"series {s1:.9f} (doubled cutoffs move it {abs(s1 - s2):.1e}), "
        f"integral {integral:.6f} <= {cap:.6f}"
    )


def check_exceedances() -> tuple[bool, str]:
    """10: summable thresholds yield median 0; linear ones keep accruing."""
    summable = khinchin_experiment(
        "iterated_log_squared", samples=200, n_max=5000, rng_seed=1040,
        window=(100, 5000),
    )
    linear = khinchin_experiment(
        "linear", samples=200, n_max=5000, rng_seed=1040, window=(100, 5000)
    )
    ok = (
        summable.median_count == 0
        and linear.median_count >= 3
        and linear.total_count > linear.total_half_count
    )
    return ok, (
        f"summable median {summable.median_count:g}, linear median "
        f"{linear.median_count:g}, window growth {linear.total_half_count} -> "
        f"{linear.total_count}"
    )


def check_delta_decay() -> tuple[bool, str]:
    """11: the exact delta product contracts at rate at least sqrt(2) per step."""
    thetas = _sample_thetas(1111, 40, bits=200, min_quotients=65)
    rng = random.Random(1112)
    for _ in range(10):
        period = [rng.randint(1, 6) for _ in range(rng.randint(2, 4))]
        if set(period) == {1}:
            period[0] = 2
        thetas.append(cf_normalize([], period))
    half_log2 = math.log(2.0) / 2.0
    log2 = math.log(2.0)
    for theta in thetas:
        traj = gap_trajectory(theta, 30)
        for n in range(2, 31):
            rate = -exact_log(traj.delta_product(n)) / n
            if rate < half_log2 - log2 / n - 1e-12:
                return False, f"rate {rate:.6f} too small at n = {n}"
    return True, "50 trajectories (40 rational, 10 periodic), n in [2, 30]"


CHECKS: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "spread-identity", check_spread_identity),
    (2, "length-cocycle", check_length_cocycle),
    (3, "stats-oracle", check_stats_oracle),
    (4, "orbit-encoding", check_encoding),
    (5, "spread-sandwich", check_sandwich),
    (6, "length-growth", check_growth),
    (7, "lyapunov-floor", check_lyapunov_floor),
    (8, "stationary-density", check_density),
    (9, "integrability", check_integrability),
    (10, "exceedance-counts", check_exceedances),
    (11, "delta-decay", check_delta_decay),
]


def run_one(number: int, name: str, fn: Callable[[], tuple[bool, str]]) -> Verdict:
    start = time.monotonic()
    try:
        passed, details = fn()
    except Exception as exc:  # a crashed check is a failed check
        passed, details = False, f"{type(exc).__name__}: {exc}"
    return Verdict(
        criterion=number,
        name=name,
        passed=passed,
        details=details,
        seconds=time.monotonic() - start,
    )


def run_all(numbers: Sequence[int] | None = None) -> list[Verdict]:
    wanted = set(numbers) if numbers is not None else None
    if wanted is not None:
        stray = wanted - {num for num, _, _ in CHECKS}
        if stray:
            raise ValueError(
                "no such criterion: " + ", ".join(str(n) for n in sorted(stray))
            )
    return [
        run_one(num, name, fn)
        for num, name, fn in CHECKS
        if wanted is None or num in wanted
    ]


def all_passed(verdicts: Sequence[Verdict]) -> bool:
    return all(v.passed for v in verdicts)
