"""Scaling sweeps of the traced run: trajectory depth and periodic cf_value.

Both sweeps call the package directly and time each call on its own.  The
cf_value sweep caps every call with SIGALRM; a capped call reports the time
it had run when the alarm fired, and counts as capped, so a hang shows up as
a measured cap instead of a stalled benchmark.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
import time

from gaprenorm import cf

# depth sweep: trajectory depths, and timed calls per depth (median taken)
DEPTHS = (250, 500, 1000, 2000, 4000)
REPEATS = 3
# period sweep: period lengths, the largest quotient, and the per-call cap
PERIODS = (4, 8, 12, 16)
QMAX = 1000
CAP_S = 10.0


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def depth_sweep(seed: int) -> dict:
    """Median gap_trajectory time per depth on random rationals, and the slope."""
    rng = random.Random(f"depth-sweep:{seed}")
    times = {}
    for depth in DEPTHS:
        need = 2 * depth + 8
        # the bit count the experiment drivers use for this many quotients
        theta = cf.sample_theta(rng, bits=max(192, int(need * 1.72) + 64),
                                min_quotients=need)
        runs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            cf.gap_trajectory(theta, depth)
            runs.append(time.perf_counter() - t0)
        times[depth] = statistics.median(runs)
    return {"seconds": times,
            "slope": loglog_slope(list(times), list(times.values()))}


class _Capped(Exception):
    pass


def _alarm(signum, frame):
    raise _Capped()


def period_sweep(seed: int) -> dict:
    """cf_value time on purely periodic expansions of random quotients <= QMAX."""
    rng = random.Random(f"period-sweep:{seed}")
    out = {}
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for length in PERIODS:
            theta = cf.cf_normalize([], [rng.randint(1, QMAX) for _ in range(length)])
            t0 = time.perf_counter()
            capped = False
            signal.setitimer(signal.ITIMER_REAL, CAP_S)
            try:
                cf.cf_value(theta)
            except _Capped:
                capped = True
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            out[length] = {"seconds": time.perf_counter() - t0, "capped": capped,
                           "spec": cf.format_theta_spec(theta)}
    finally:
        signal.signal(signal.SIGALRM, previous)
    return out
