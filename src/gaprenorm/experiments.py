"""Seeded experiment drivers and file emission.

The growth, trimmed, bounded-quotient and limsup drivers probe level spreads,
and the exceedance Monte Carlo counts large quotients on the continued-fraction
walk.  Every driver is a pure function of (config, seed): per-sample RNG
streams are seed xor sample index, so batching or parallel fan-out cannot
change the output.  The growth and limsup drivers are qualitative by design;
the asymptotic statements they probe are about almost-every theta and desk
scale can only show majority-of-samples behavior.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import statistics
import subprocess
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction
from itertools import accumulate
from operator import sub
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import GaprenormError, __version__
from .cf import (
    cf_value,
    format_theta_spec,
    gap_trajectory,
    leading_quotients,
    parse_theta_spec,
    rational_to_cf,
    sample_theta,
)
from .substitution import A, Levels, lengths_by_level, stats_by_level


class EmitError(GaprenormError):
    """Refusing to write an output file (empty table, bad format, I/O)."""


@cache
def tool_version() -> str:
    """Package version, with the git revision appended when available.

    Asks git once per process.
    """
    root = Path(__file__).resolve().parents[2]
    try:
        described = subprocess.run(
            ["git", "-C", str(root), "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if described.returncode == 0 and described.stdout.strip():
            return f"{__version__}+g{described.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return __version__


_FIELD_KINDS = {"theta_spec": (str, type(None)), "epsilon": (int, float)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of the experiment drivers.  Each driver reads some fields, and
    its CLI verb sets only those; `to_meta` echoes them all (`emit` stamps
    the version)."""

    theta_spec: str | None = None
    depth: int = 30
    orbit_length: int = 1_000_000
    samples: int = 30
    seed: int = 0
    k: int = 2
    epsilon: float = 0.0

    def __post_init__(self):
        # a library caller can pass any type; refuse a wrong one here
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kinds = _FIELD_KINDS.get(f.name, int)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ValueError(f"config field {f.name} must be {f.type}, got {value!r}")

    def to_meta(self) -> dict:
        meta = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {k: v for k, v in meta.items() if v is not None}


def _levels_for(cfg: ExperimentConfig, sid: int) -> Levels:
    """Levels 0 .. depth of cfg.theta_spec, or of a theta of 2 depth + 8
    quotients drawn from Random(cfg.seed ^ sid).  This walk and the drivers'
    stats_by_level and lengths_by_level calls go through this module's
    bindings, where the benchmark captures them; lv.stats would bypass them."""
    if cfg.theta_spec is not None:
        theta = parse_theta_spec(cfg.theta_spec)
    else:
        min_quotients = 2 * cfg.depth + 8
        bits = max(192, int(min_quotients * 1.72) + 64)
        theta = sample_theta(random.Random(cfg.seed ^ sid), bits=bits,
                             min_quotients=min_quotients)
    return Levels(gap_trajectory(theta, cfg.depth))


# ---------------------------------------------------------------------------
# the iterated-logarithm threshold family


@dataclass(frozen=True)
class IteratedLogFamily:
    """f(x) = x log x ... log^(k-1) x, the last factor raised to 1 + epsilon.

    epsilon = 0 makes the reciprocal series divergent, epsilon > 0 summable.
    The cutoff is the smallest argument at which every iterated log exceeds
    one; f refuses arguments at or below it.
    """

    k: int
    epsilon: float = 0.0
    cutoff: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need k >= 1")
        if not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon!r}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.k == 1 and self.epsilon:
            raise ValueError("k = 1 has no log factor to raise; use k >= 2")
        c = 1.0
        for j in range(1, self.k):
            try:
                c = math.exp(c)
            except OverflowError:
                raise ValueError(
                    f"k = {self.k}: the cutoff overflows a float at exp({c:.6g}); "
                    f"use k <= {j}"
                ) from None
        object.__setattr__(self, "cutoff", c)

    def f(self, x: float) -> float:
        if x <= self.cutoff:
            raise ValueError(f"f undefined at {x} (cutoff {self.cutoff:.6g})")
        return _integrand(self.k, self.epsilon)(x)

    def F(self, t: float) -> float:
        """Cumulative integral of f from the cutoff, adaptive to 1e-8.

        quad integrates `_integrand(k, epsilon)`, built once per (k, epsilon):
        f without the cutoff test, with no loop and no power at k <= 2,
        epsilon = 0, so it makes f's float operations in f's order.
        Values are cached per process by (family, t), so a repeated t costs a
        lookup; each value keeps the bits of its one quad call.
        """
        if t <= self.cutoff:
            return 0.0
        return _integral(self, t)


@cache
def _integrand(k: int, epsilon: float) -> Callable[[float], float]:
    """f without its cutoff test, built once per (k, epsilon) (see F)."""
    log, p = math.log, 1.0 + epsilon
    if k == 1:
        return lambda x: x
    if k == 2 and not epsilon:
        return lambda x: x * log(x)

    def integrand(x: float) -> float:
        val = t = x
        for _ in range(k - 2):
            t = log(t)
            val *= t
        return val * log(t) ** p

    return integrand


@cache
def _integral(family: IteratedLogFamily, t: float) -> float:
    """Adaptive quad of the family's integrand from just above its cutoff to t."""
    from scipy.integrate import quad

    integrand = _integrand(family.k, family.epsilon)
    val, _ = quad(integrand, family.cutoff * (1 + 1e-12), t, epsrel=1e-8, limit=200)
    return val


# ---------------------------------------------------------------------------
# growth experiment (per-level rho against the threshold family)


class GrowthRecord(NamedTuple):
    n: int
    rho_omega: int
    halfsum: int
    f_of_n: float
    F_of_n: float
    len_omega: int
    log_len: float


def run_growth_experiment(
    cfg: ExperimentConfig, family: IteratedLogFamily
) -> list[GrowthRecord]:
    """Per-level spread, half-sum, lengths, and the family values at n.

    Levels below the family cutoff report nan for f and F.  The theta comes
    from cfg.theta_spec, or is sampled from cfg.seed when absent.
    """
    if cfg.depth < 1:
        raise ValueError("need depth >= 1")
    if cfg.depth > GROWTH_DEPTH_MAX:
        raise ValueError(f"depth {cfg.depth} exceeds the budget of "
                         f"GROWTH_DEPTH_MAX = {GROWTH_DEPTH_MAX}")
    lv = _levels_for(cfg, 0)
    levels = stats_by_level(lv.rules)
    lens = lengths_by_level(lv.rules)
    records = []
    for n in range(1, cfg.depth + 1):
        try:
            f_n = family.f(float(n))
            big_f_n = family.F(float(n))
        except ValueError:
            f_n, big_f_n = math.nan, math.nan
        length = lens[n][0]
        records.append(GrowthRecord(n, levels[n][A].rho, lv.halfsums[n], f_n, big_f_n,
                                    length, math.log(length)))
    return records


# ---------------------------------------------------------------------------
# trimmed sums


class TrimmedRecord(NamedTuple):
    sample_id: int
    n: int
    halfsum: int
    halfmax: int
    ratio: float


def run_trimmed_sums(
    cfg: ExperimentConfig, checkpoints: Sequence[int] = (25, 50, 100, 200)
) -> tuple[list[TrimmedRecord], dict]:
    """Half-sums with the single largest term removed, scaled by n log n."""
    if cfg.theta_spec is None and cfg.samples < 30:
        raise ValueError("need at least 30 samples")
    if cfg.samples < 1:  # a fixed theta gives identical samples: one will do
        raise ValueError("need at least one sample")
    if cfg.depth < 200:
        raise ValueError("need depth >= 200")
    if any(c < 2 for c in checkpoints):
        raise ValueError("checkpoints must be >= 2: n log n is 0 at n = 1")
    if any(c > cfg.depth for c in checkpoints):
        raise ValueError(f"checkpoints must be <= depth ({cfg.depth})")
    marks = sorted(set(checkpoints))
    records = []
    for sid in range(cfg.samples):
        halfsums = _levels_for(cfg, sid).halfsums
        # halfmaxes[i - 1]: the largest term E/2 over levels 0 .. i-1
        halfmaxes = list(accumulate(map(sub, halfsums[1:], halfsums), max))
        for i in marks:
            half, halfmax = halfsums[i], halfmaxes[i - 1]
            records.append(TrimmedRecord(sid, i, half, halfmax,
                                         (half - halfmax) / (i * math.log(i))))
    medians = {
        n: statistics.median([r.ratio for r in records if r.n == n]) for n in marks
    }
    return records, {"median_ratio": medians}


# ---------------------------------------------------------------------------
# bounded-partial-quotient log growth


class BoundedPQRecord(NamedTuple):
    N: int
    rho: int
    log_N: float
    ratio: float


# deepest growth run: its len_omega column holds about 0.6 n digits at level
# n, so the file grows with depth^2 (31 MB at 10,000 levels, 122 MB at 20,000)
GROWTH_DEPTH_MAX = 10_000
# deepest limsup run: it keeps every level's stats, whose integers grow with
# the level, so memory grows with depth^2 (220 MB at 30,000, 2.2 GB at 100,000)
LIMSUP_DEPTH_MAX = 30_000


def run_bounded_pq_check(
    cfg: ExperimentConfig, x0: Fraction = Fraction(0)
) -> tuple[list[BoundedPQRecord], dict]:
    """Direct-orbit spread over log N for a bounded-quotient rotation.

    Defaults to the all-twos expansion when cfg carries no theta.  Checkpoints
    run through the decades up to cfg.orbit_length.
    """
    from .orbit import discrepancy_profile, encode_orbit

    spec = cfg.theta_spec if cfg.theta_spec is not None else "cfper:[][2]"
    theta = parse_theta_spec(spec)
    if theta.is_finite:
        raise ValueError("needs an eventually periodic expansion")
    value = cf_value(theta)
    if not value < Fraction(1, 2):
        raise ValueError("orbit driver needs theta < 1/2")
    # 10**3, 10**4, ... up to the largest power of ten <= max(1000, length)
    marks = [10**e for e in range(3, len(str(max(1000, cfg.orbit_length))))]
    enc = encode_orbit(x0, value, marks[-1])
    prof = discrepancy_profile(enc.symbols)
    records = [
        BoundedPQRecord(
            N=N,
            rho=prof.rho_at(N),
            log_N=math.log(N),
            ratio=prof.rho_at(N) / math.log(N),
        )
        for N in marks
    ]
    ratios = [r.ratio for r in records]
    return records, {
        "theta_spec": format_theta_spec(theta),
        "ratio_band": (min(ratios), max(ratios)),
        "monotone": all(a.rho <= b.rho for a, b in zip(records, records[1:])),
    }


# ---------------------------------------------------------------------------
# limsup probe


class LimsupRecord(NamedTuple):
    sample_id: int
    best_n: int
    best_ratio: float
    increased_final_third: bool


def run_limsup_probe(cfg: ExperimentConfig) -> tuple[list[LimsupRecord], dict]:
    """Running max of rho over n log n per sample; does it still climb late?

    The level index stands in for log of the orbit length (they are
    comparable by the length cocycle), so the scaled spread is
    rho(level n) / (n log n).
    """
    if cfg.samples < 1:
        raise ValueError("need samples >= 1")
    if cfg.depth > LIMSUP_DEPTH_MAX:
        raise ValueError(f"depth {cfg.depth} exceeds the budget of "
                         f"LIMSUP_DEPTH_MAX = {LIMSUP_DEPTH_MAX}")
    records = []
    for sid in range(cfg.samples):
        levels = stats_by_level(_levels_for(cfg, sid).rules)
        best = -math.inf
        best_n = 0
        for n in range(2, cfg.depth + 1):
            ratio = levels[n][A].rho / (n * math.log(n))
            if ratio > best:
                best, best_n = ratio, n
        records.append(
            LimsupRecord(
                sample_id=sid,
                best_n=best_n,
                best_ratio=best,
                increased_final_third=best_n > (2 * cfg.depth) // 3,
            )
        )
    frac = sum(r.increased_final_third for r in records) / len(records)
    return records, {"fraction_still_climbing": frac}


# ---------------------------------------------------------------------------
# quotient exceedance Monte Carlo

THRESHOLD_FAMILIES: dict[str, Callable[[int], float]] = {
    "linear": lambda n: float(n),
    "iterated_log_squared": lambda n: n * math.log(n + 2) ** 2,
    "none": lambda n: math.inf,
}


class ExceedanceRecord(NamedTuple):
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
        return float(statistics.median(self.counts))

    @property
    def total_count(self) -> int:
        return int(sum(self.counts))

    @property
    def total_half_count(self) -> int:
        return int(sum(self.half_counts))


# one float threshold per window index and family, and a draw of about
# 2.1 n_max bits per sample whose expansion costs time quadratic in n_max:
# at the budget, 210,875 bits take 0.2-0.4 s with Lehmer's algorithm
# (`rational_to_cf`) and 2.2-2.8 s with plain divmod Euclid on a 2-core host
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
    restrict the same counts to the lower half of the window, which defaults
    to (100, n_max).
    """
    if not families or any(f not in THRESHOLD_FAMILIES for f in families):
        raise ValueError(
            f"need families from {sorted(THRESHOLD_FAMILIES)}, got {list(families)}"
        )
    if samples < 1:
        raise ValueError("need samples >= 1")
    if n_max > MAX_KHINCHIN_N:
        raise ValueError(f"n_max {n_max} exceeds the budget of {MAX_KHINCHIN_N}")
    if window is None and n_max < 100:
        raise ValueError(f"the default window (100, {n_max}) needs n_max >= 100; "
                         "pass --window")
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
            walk = leading_quotients(quotients, w1)
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


# ---------------------------------------------------------------------------
# emission

_FORMATS = ("csv", "json", "plot")


def _cell(value) -> str:
    # str of a float is its repr, nan, inf and -0.0 included
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_value(value):
    # big integers do not survive 64-bit consumers; ship them as strings
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    return value


def emit(
    records: Sequence,
    fmt: str,
    path: str | Path,
    meta: dict | None = None,
    plot_fields: tuple[str, str] | None = None,
) -> Path:
    """Write records to path as csv, json, or two-column plot data.

    Records are `NamedTuple`s of one type: the first one's `_fields` name
    the columns, and each row is joined straight from its tuple.  CSV puts
    the echoed meta in '#'-prefixed comment lines, then a header naming the
    record fields.  Identical (records, meta) yield identical bytes.  An
    empty table or a plot field that is not a record field is an error and
    writes nothing.
    """
    if fmt not in _FORMATS:
        raise EmitError(f"unknown format {fmt!r}; choose from {_FORMATS}")
    if not records:
        raise EmitError("refusing to write an empty table")
    path = Path(path)
    names = list(records[0]._fields)
    for name in plot_fields or ():
        if name not in names:
            raise EmitError(f"unknown plot field {name!r}; choose from {names}")
    meta = dict(meta or {})
    if "version" not in meta:
        meta["version"] = tool_version()
    try:
        if fmt == "csv":
            lines = [f"# {k}: {_cell(meta[k])}" for k in sorted(meta)]
            lines.append(",".join(names))
            lines += [",".join(map(_cell, rec)) for rec in records]
            path.write_text("\n".join(lines) + "\n")
        elif fmt == "json":
            payload = {
                "meta": {k: _cell(meta[k]) for k in sorted(meta)},
                "records": [dict(zip(names, map(_json_value, rec))) for rec in records],
            }
            path.write_text(json.dumps(payload, indent=2) + "\n")
        else:
            pair = plot_fields if plot_fields is not None else names[:2]
            xf, yf = map(names.index, pair)
            lines = [f"{_cell(rec[xf])} {_cell(rec[yf])}" for rec in records]
            path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise EmitError(f"cannot write {path}: {exc}") from exc
    return path
