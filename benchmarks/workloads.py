"""Seeded workloads of the gaprenorm benchmark: inputs, item runners, checks.

A workload is a fixed list of items generated from the workload seed.  One
item is one closed-loop call sequence into the package: the next item starts
only after the previous one returned.  Running an item and checking it are
separate steps, so the checks stay outside the timed region:
`run_item` makes the package calls, `check_item` verifies the exact outputs
and returns the bytes that go into the workload digest.

The digest covers exact outputs only (integers, words, emitted CSV bytes)
and the emitted meta carries a pinned version, so two commits that compute
the same results print the same digest.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import hostspeed
from gaprenorm import cf, exact, experiments, measure, orbit, substitution

WORKLOADS = ("deep-rational", "periodic-orbit", "transfer-operator")

# Replaces the `git describe` stamp in emitted meta, so CSV bytes do not
# depend on the commit that produced them.
PINNED_VERSION = "0.1.0+bench"



class CheckFailed(AssertionError):
    """An item's output contradicts an exact property it must satisfy."""


@dataclass(frozen=True)
class Item:
    """One closed-loop call sequence: a runner name and its parameters."""

    kind: str
    p: dict


def _item(kind: str, **params) -> Item:
    return Item(kind, params)


# Bounds of the output checks: |xi| at every level, the row defect of an
# Ulam matrix, and the relative change of the series bound when its
# cutoffs double.
XI_MAX = 5
ROW_DEFECT_MAX = 1e-6
SERIES_REL = 1e-6


@dataclass(frozen=True)
class Expect:
    """Check bounds that a test may set to a wrong value."""

    max_mismatches: int = 2
    residual_max: float = 1e-10


@dataclass
class Context:
    """What items of one process share: the emit directory, captured calls
    and the transfer-operator results one stage hands to the next."""

    scratch: Path
    expect: Expect = field(default_factory=Expect)
    captured: dict = field(default_factory=dict)
    state: dict = field(default_factory=dict)


# --- input generation --------------------------------------------------------


def _log_grid(count: int, lo: int, hi: int) -> list[int]:
    """Log-uniform values: the midpoints of `count` equal-width strata of
    [log lo, log hi].

    The grid is the same for every seed, so the mix of sizes, and with it
    the total work and its percentiles, does not move with the seed; the
    seed draws each item's own seed and the order of the items.
    """
    span = math.log(hi / lo)
    return [round(lo * math.exp(span * (i + 0.5) / count)) for i in range(count)]


def deep_rational_items(seed: int, count: int = 100, depths=(32, 1024),
                        n_max=(500, 5000)) -> list[Item]:
    """Single-sample limsup and growth probes, with khinchin calls between."""
    rng = random.Random(f"deep-rational:{seed}")
    n_khin = max(1, count // 5)
    n_limsup = (count - n_khin) // 2
    n_growth = count - n_khin - n_limsup
    items = [
        _item("limsup", depth=d, seed=rng.getrandbits(32))
        for d in _log_grid(n_limsup, *depths)
    ]
    items += [
        _item("growth", depth=d, seed=rng.getrandbits(32))
        for d in _log_grid(n_growth, *depths)
    ]
    families = ("linear", "iterated_log_squared")
    items += [
        _item("khinchin", family=families[i % 2], n_max=n, seed=rng.getrandbits(32))
        for i, n in enumerate(_log_grid(n_khin, *n_max))
    ]
    rng.shuffle(items)
    return items


def _heavy_quotient(rng: random.Random, cap: int) -> int:
    # P(a >= k) = 1/k, the tail of the Gauss measure, cut at `cap`
    return min(cap, int(1.0 / (1.0 - rng.random())))


# Periodic-orbit quotients: period lengths cycle through 1..MAX_PERIOD and
# quotients are capped at QUOTIENT_CAP.
MAX_PERIOD = 10
QUOTIENT_CAP = 30


def periodic_orbit_items(seed: int, count: int = 100,
                         symbols: int = 20_000) -> list[Item]:
    """Quadratic irrationals below 1/2 as cfper specs.

    The quotients are one fixed pool, the same for every seed.  The seed
    rotates each period, picks each sandwich base point and orders the
    items.  A rotation conjugates the period's matrix product, so the
    discriminant, whose factorization is the costliest step of cf_value,
    is the same for every seed, and so is the mix of item costs.
    """
    pool = random.Random("periodic-orbit:pool")
    rng = random.Random(f"periodic-orbit:{seed}")
    items = []
    for i in range(count):
        pre = max(2, _heavy_quotient(pool, QUOTIENT_CAP))
        period = [_heavy_quotient(pool, QUOTIENT_CAP) for _ in range(1 + i % MAX_PERIOD)]
        r = rng.randrange(len(period))
        period = period[r:] + period[:r]
        spec = f"cfper:[{pre}][{','.join(map(str, period))}]"
        items.append(_item("periodic", spec=spec, y=rng.getrandbits(48),
                           symbols=symbols))
    rng.shuffle(items)
    return items


def transfer_operator_items(seed: int, bins=(256, 512, 1024, 2048),
                            steps: int = 30) -> list[Item]:
    """The Ulam sweep, stage by stage, then the series bound twice."""
    rng = random.Random(f"transfer-operator:{seed}")
    # bin sets are intervals in units of 1/64, so they nest across bin counts
    f_set = (rng.randrange(0, 56), rng.randint(2, 8))
    g_set = (rng.randrange(0, 56), rng.randint(2, 8))
    items = []
    for b in bins:
        items += [
            _item("ulam_build", bins=b),
            _item("ulam_density", bins=b),
            _item("ulam_integral", bins=b),
            _item("ulam_correlation", bins=b, f=f_set, g=g_set, steps=steps),
        ]
    items.append(_item("series_bound", n_cut=2000, m_cut=4096, k_cut=200_000))
    items.append(_item("series_bound", n_cut=4000, m_cut=8192, k_cut=400_000))
    return items


def make_items(workload: str, seed: int) -> list[Item]:
    if workload == "deep-rational":
        return deep_rational_items(seed)
    if workload == "periodic-orbit":
        return periodic_orbit_items(seed)
    if workload == "transfer-operator":
        return transfer_operator_items(seed)
    raise ValueError(f"unknown workload {workload!r}")


def warmup_items(workload: str) -> list[Item]:
    """Small items that load lazy imports before timing."""
    if workload == "deep-rational":
        return [_item("limsup", depth=24, seed=1), _item("growth", depth=24, seed=2),
                _item("khinchin", family="linear", n_max=300, seed=3)]
    if workload == "periodic-orbit":
        return [_item("periodic", spec="cfper:[3][2,5]", y=12345, symbols=10_000)]
    return transfer_operator_items(0, bins=(64,), steps=2)[:4] + [
        _item("series_bound", n_cut=10, m_cut=16, k_cut=100)]


# --- running items ------------------------------------------------------------


def _pinned_meta(cfg, **extra) -> dict:
    # the CLI's meta: config echo plus driver summary; version pinned
    meta = cfg.to_meta()
    meta.update(extra)
    meta["version"] = PINNED_VERSION
    return meta


def _run_limsup(p: dict, ctx: Context):
    cfg = experiments.ExperimentConfig(samples=1, depth=p["depth"], seed=p["seed"])
    records, summary = experiments.run_limsup_probe(cfg)
    path = experiments.emit(records, "csv", ctx.scratch / "limsup.csv",
                            meta=_pinned_meta(cfg, **summary))
    return records, path


def _run_growth(p: dict, ctx: Context):
    cfg = experiments.ExperimentConfig(samples=1, depth=p["depth"], seed=p["seed"])
    records = experiments.run_growth_experiment(
        cfg, experiments.IteratedLogFamily(cfg.k, cfg.epsilon))
    path = experiments.emit(records, "csv", ctx.scratch / "growth.csv",
                            meta=_pinned_meta(cfg))
    return records, path


def _run_khinchin(p: dict, ctx: Context):
    cfg = experiments.ExperimentConfig(samples=1, seed=p["seed"])
    result = measure.khinchin_experiment(
        p["family"], samples=1, n_max=p["n_max"], rng_seed=p["seed"])
    meta = _pinned_meta(
        cfg, family=result.family, n_max=result.n_max,
        window_lo=result.window[0], window_hi=result.window[1],
        median_count=result.median_count, resamples=result.resamples)
    path = experiments.emit(result.records, "csv", ctx.scratch / "khinchin.csv",
                            meta=meta)
    return result, path


# Periodic-orbit item settings: the trajectory depth, the renormalization
# identity level, the word budget of the encoding search and the orbit
# window of the sandwich sweep.
TRAJ_DEPTH = 40
IDENTITY_LEVEL = 20
ENCODING_WORD_MAX = 4_000
SANDWICH_WINDOW_MAX = 10_000
CONVERGENT_DEPTH = 12


def _run_periodic(p: dict, ctx: Context) -> dict:
    theta = cf.parse_theta_spec(p["spec"])
    value = cf.cf_value(theta)
    traj = cf.gap_trajectory(theta, TRAJ_DEPTH)
    ident = substitution.renorm_identity(theta, IDENTITY_LEVEL)
    delta = traj.delta_product(TRAJ_DEPTH)
    rate = -exact.exact_log(delta) / TRAJ_DEPTH
    rules = [substitution.build_rule(s.cf) for s in traj.steps[:TRAJ_DEPTH]]
    lens = substitution.lengths_by_level(rules)
    levels = range(1, TRAJ_DEPTH + 1)
    n_enc = max((v for v in levels if lens[v][0] <= ENCODING_WORD_MAX), default=0)
    n_sw = max((v for v in levels if 2 * max(lens[v]) <= SANDWICH_WINDOW_MAX),
               default=0)
    if not (n_enc and n_sw):
        raise CheckFailed(f"{p['spec']}: level-1 words exceed the budgets")
    match = orbit.verify_encoding(theta, n_enc)
    y = Fraction(p["y"], 1 << 48)
    sandwich = orbit.sandwich_sweep(y, theta, n_sw)
    enc_surd = orbit.encode_orbit(Fraction(0), value, p["symbols"])
    convergent = cf.cf_value(theta, CONVERGENT_DEPTH)
    enc_rat = orbit.encode_orbit(Fraction(0), convergent, p["symbols"])
    return dict(value=value, traj=traj, ident=ident, delta=delta, rate=rate,
                match=match, sandwich=sandwich, enc_surd=enc_surd,
                convergent=convergent, enc_rat=enc_rat)


def _ulam_state(ctx: Context, bins: int) -> dict:
    return ctx.state.setdefault(bins, {})


def _run_ulam_build(p, ctx):
    op = measure.build_ulam(p["bins"])
    _ulam_state(ctx, p["bins"])["op"] = op
    return op


def _run_ulam_density(p, ctx):
    st = _ulam_state(ctx, p["bins"])
    st["density"] = measure.stationary_density(st["op"])
    return st["density"]


def _run_ulam_integral(p, ctx):
    st = _ulam_state(ctx, p["bins"])
    st["integral"] = measure.integral_log_norm(st["density"])
    return st["integral"]


def _bin_set(bins: int, interval: tuple[int, int]) -> np.ndarray:
    a, w = interval
    return np.arange(a * bins // 64, (a + w) * bins // 64)


def _run_ulam_correlation(p, ctx):
    st = _ulam_state(ctx, p["bins"])
    # the last stage that needs the matrix: free it before the next bin count
    op = st.pop("op")
    return measure.correlation_decay(
        _bin_set(p["bins"], p["f"]), _bin_set(p["bins"], p["g"]), op,
        p["steps"], density=st["density"])


def _run_series_bound(p, ctx):
    return measure.series_bound(n_cut=p["n_cut"], m_cut=p["m_cut"], k_cut=p["k_cut"])


RUNNERS = {
    "limsup": _run_limsup,
    "growth": _run_growth,
    "khinchin": _run_khinchin,
    "periodic": _run_periodic,
    "ulam_build": _run_ulam_build,
    "ulam_density": _run_ulam_density,
    "ulam_integral": _run_ulam_integral,
    "ulam_correlation": _run_ulam_correlation,
    "series_bound": _run_series_bound,
}


def capture_driver_calls(ctx: Context) -> list[tuple[object, str, object]]:
    """Keep the results of the experiment drivers' own level computations.

    The deep-rational checks reuse them instead of recomputing them.  The
    binding in `gaprenorm.experiments` is swapped for a shim; the returned
    list restores it (see `spans.unpatch`).
    """
    undo = []
    for name in ("gap_trajectory", "stats_by_level", "lengths_by_level"):
        fn = getattr(experiments, name)

        def shim(*args, _fn=fn, _name=name, **kwargs):
            result = _fn(*args, **kwargs)
            ctx.captured.setdefault(_name, []).append(result)
            return result

        undo.append((experiments, name, fn))
        setattr(experiments, name, shim)
    return undo


def run_item(item: Item, ctx: Context):
    ctx.captured.clear()
    return RUNNERS[item.kind](item.p, ctx)


# --- checks -------------------------------------------------------------------


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _one_captured(ctx: Context, name: str):
    values = ctx.captured.get(name, [])
    _require(len(values) == 1, f"expected one {name} call, saw {len(values)}")
    return values[0]


def _check_xi(traj, stats, depth: int) -> None:
    # |xi| = |rho(level n) - sum of E/2 over levels below n| <= XI_MAX
    half = 0
    for n in range(1, depth + 1):
        half += traj.steps[n - 1].e // 2
        xi = stats[n][substitution.A].rho - half
        _require(abs(xi) <= XI_MAX, f"|xi| = {abs(xi)} at level {n}")


def _check_limsup(p, raw, ctx):
    records, path = raw
    traj = _one_captured(ctx, "gap_trajectory")
    stats = _one_captured(ctx, "stats_by_level")
    _check_xi(traj, stats, p["depth"])
    best, best_n = -math.inf, 0
    for n in range(2, p["depth"] + 1):
        ratio = stats[n][substitution.A].rho / (n * math.log(n))
        if ratio > best:
            best, best_n = ratio, n
    rec = records[0]
    _require((rec.best_n, rec.best_ratio) == (best_n, best),
             f"limsup record ({rec.best_n}, {rec.best_ratio}) disagrees with stats")
    return Path(path).read_bytes()


def _check_growth(p, raw, ctx):
    records, path = raw
    stats = _one_captured(ctx, "stats_by_level")
    lens = _one_captured(ctx, "lengths_by_level")
    _require(len(records) == p["depth"], "growth record count")
    for rec in records:
        xi = rec.rho_omega - rec.halfsum
        _require(abs(xi) <= XI_MAX, f"|xi| = {abs(xi)} at level {rec.n}")
        a_stats = stats[rec.n][substitution.A]
        c_stats = stats[rec.n][substitution.C]
        _require(a_stats.rho == rec.rho_omega, f"rho mismatch at level {rec.n}")
        _require((a_stats.length, c_stats.length) == tuple(lens[rec.n]),
                 f"stats lengths differ from the cocycle at level {rec.n}")
        _require(rec.len_omega == lens[rec.n][0], f"len mismatch at level {rec.n}")
    return Path(path).read_bytes()


def _check_khinchin(p, raw, ctx):
    result, path = raw
    _require(result.samples == 1 and len(result.records) == 1, "sample count")
    rec = result.records[0]
    w0, w1 = result.window
    _require(rec.count >= result.half_counts[0] >= 0, "half count exceeds count")
    _require((rec.count == 0) == (rec.last_index == -1), "count/last index")
    _require(rec.last_index == -1 or w0 <= rec.last_index <= w1, "last index")
    return Path(path).read_bytes()


def _check_periodic(p, raw, ctx):
    ident, match = raw["ident"], raw["match"]
    _require(abs(ident.xi) <= XI_MAX, f"|xi| = {abs(ident.xi)}")
    _require(match.mismatches <= ctx.expect.max_mismatches,
             f"{match.mismatches} encoding mismatches")
    failed = [c.level for c in raw["sandwich"] if not c.ok]
    _require(not failed, f"sandwich fails at levels {failed}")
    floor = math.log(math.sqrt(2.0)) - math.log(2.0) / TRAJ_DEPTH - 1e-12
    _require(raw["rate"] >= floor, f"delta-decay rate {raw['rate']} < {floor}")
    for enc in (raw["enc_surd"], raw["enc_rat"]):
        _require(len(enc.symbols) == p["symbols"], "orbit length")
    steps = raw["traj"].steps
    parts = [
        p["spec"], exact.exact_str(raw["value"]),
        ",".join(f"{s.a1}:{s.e}" for s in steps),
        exact.exact_str(raw["delta"]),
        f"{ident.rho},{ident.halfsum},{ident.xi}",
        f"{match.y},{match.mismatches},{match.grid_points},{match.word_length},"
        f"{match.level}",
        ";".join(f"{c.level},{c.rho_prev},{c.rho_level},{c.spread_lower_window},"
                 f"{c.spread_upper_window}" for c in raw["sandwich"]),
        exact.exact_str(raw["convergent"]),
    ]
    for enc in (raw["enc_surd"], raw["enc_rat"]):
        parts.append(hashlib.sha256(enc.symbols.encode()).hexdigest())
        parts.append(repr(enc.endpoint_hits) + repr(enc.period_wrapped))
    return "\n".join(parts).encode()


def _check_ulam_build(p, raw, ctx):
    _require(raw.row_defect <= ROW_DEFECT_MAX,
             f"row defect {raw.row_defect:.3e} at {p['bins']} bins")
    _require(raw.matrix.shape == (p["bins"], p["bins"]), "matrix shape")
    return f"{raw.bins},{raw.branch_limit}".encode()


def _check_ulam_density(p, raw, ctx):
    _require(raw.residual <= ctx.expect.residual_max,
             f"residual {raw.residual:.3e} at {p['bins']} bins")
    _require(raw.min_density > 0, "nonpositive density")
    return f"{raw.bins},{len(raw.values)}".encode()


def _check_ulam_integral(p, raw, ctx):
    _require(math.isfinite(raw) and raw > 0, f"integral {raw}")
    return str(p["bins"]).encode()


def _check_ulam_correlation(p, raw, ctx):
    _require(len(raw) == p["steps"] + 1, "correlation length")
    _require(bool(np.all(np.isfinite(raw))) and float(raw.max()) <= 0.25,
             "covariance of indicators outside [0, 1/4]")
    return f"{p['bins']},{p['f']},{p['g']},{p['steps']}".encode()


def _check_series_bound(p, raw, ctx):
    _require(math.isfinite(raw) and raw > 0, f"series bound {raw}")
    seen = ctx.state.setdefault("series", {})
    seen[p["n_cut"]] = raw
    if len(seen) == 2:
        s1, s2 = (seen[k] for k in sorted(seen))
        _require(abs(s1 - s2) <= SERIES_REL * s1,
                 f"series bound unstable: {s1!r} vs {s2!r}")
        for b, st in ctx.state.items():
            if isinstance(b, int) and "integral" in st and "density" in st:
                cap = st["density"].max_density * s1
                _require(st["integral"] <= cap, f"integral above cap at {b} bins")
    return f"{p['n_cut']},{p['m_cut']},{p['k_cut']}".encode()


CHECKS = {
    "limsup": _check_limsup,
    "growth": _check_growth,
    "khinchin": _check_khinchin,
    "periodic": _check_periodic,
    "ulam_build": _check_ulam_build,
    "ulam_density": _check_ulam_density,
    "ulam_integral": _check_ulam_integral,
    "ulam_correlation": _check_ulam_correlation,
    "series_bound": _check_series_bound,
}


def check_item(item: Item, raw, ctx: Context) -> bytes:
    return CHECKS[item.kind](item.p, raw, ctx)


# --- the closed loop ------------------------------------------------------------


def _cpu() -> float:
    # this process at clock resolution, plus waited-for children (git)
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


@dataclass
class Section:
    """Per-item latencies and outcomes of one timed section, with the
    host-speed samples taken before each item run, in time order, and the
    index of each item run's sample."""

    wall: list[list[float]]
    cpu: list[list[float]]
    item_hashes: list[str | None]
    ref: list[float] = field(default_factory=list)
    ref_index: list[list[int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    passes: int = 0

    def record(self, i: int, item: Item, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"item {i} ({item.kind} {item.p}): {error}")

    @staticmethod
    def median(series: list[list[float]]) -> list[float]:
        """Each item's median run over the passes of the section."""
        return [statistics.median(s) for s in series if s]

    def pass_time(self, p: int) -> float:
        return sum(s[p] for s in self.wall if len(s) > p)

    def scaled_wall(self) -> list[list[float]]:
        """Each item run scaled to the nominal host speed by the samples
        around its own (hostspeed.local_factors)."""
        f = hostspeed.local_factors(self.ref)
        return [[t * f[k] for t, k in zip(runs, ks)]
                for runs, ks in zip(self.wall, self.ref_index)]


def clear_package_caches() -> None:
    """Empty the package's functools caches, as a fresh process has them."""
    for module in (cf, exact, experiments, measure, orbit, substitution):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def run_section(items: list[Item], ctx: Context, seconds: float,
                tracer=None, reference: list[str | None] | None = None) -> Section:
    """Run passes over `items` until `seconds` have elapsed, at least one pass.

    Every pass starts with empty package caches, so each pass pays what one
    fresh process pays.  After the first pass the deadline is checked before
    each item.  A host-speed sample precedes each item run.  Each item's
    output hash is compared with `reference` (or with its first-pass
    hash), so a run that is not deterministic counts as failed.
    """
    sec = Section(wall=[[] for _ in items], cpu=[[] for _ in items],
                  ref_index=[[] for _ in items],
                  item_hashes=list(reference) if reference else [None] * len(items))
    deadline = time.perf_counter() + seconds
    while True:
        clear_package_caches()
        for i, item in enumerate(items):
            if sec.passes and time.perf_counter() >= deadline:
                return sec
            if tracer is not None:
                tracer.item = i
            sec.ref.append(hostspeed.sample())
            c0 = _cpu()
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("bench.item"):
                        raw = run_item(item, ctx)
                else:
                    raw = run_item(item, ctx)
                error = None
            except Exception as exc:  # a raising item is a failed item
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            sec.cpu[i].append(_cpu() - c0)
            sec.wall[i].append(t1 - t0)
            sec.ref_index[i].append(len(sec.ref) - 1)
            if error is None:
                try:
                    digest = hashlib.sha256(check_item(item, raw, ctx)).hexdigest()
                    if sec.item_hashes[i] is None:
                        sec.item_hashes[i] = digest
                    elif sec.item_hashes[i] != digest:
                        error = "output differs from the first run of this item"
                except Exception as exc:  # a failed or crashing check
                    error = f"{type(exc).__name__}: {exc}"
            sec.record(i, item, error)
            raw = None
        sec.passes += 1
        if time.perf_counter() >= deadline:
            return sec


def workload_digest(item_hashes: list[str | None]) -> str:
    h = hashlib.sha256()
    for digest in item_hashes:
        h.update((digest or "missing").encode())
    return h.hexdigest()


# --- the closed-form invariant density ------------------------------------------


def h_bin_masses(bins: int) -> np.ndarray:
    """Exact masses of uniform bins under the candidate invariant density

        h(x) = (1/ln 6) * 2/(1 - x^2) on (0, 1/2),  (1/ln 6)/x on (1/2, 1),

    from its antiderivatives log((1+x)/(1-x)) and log(x).
    """
    if bins % 2:
        raise ValueError("bins must be even, so that 1/2 is a bin edge")
    edges = np.arange(bins + 1, dtype=np.float64) / bins
    low = edges[: bins // 2 + 1]
    high = edges[bins // 2:]
    masses = np.concatenate([
        np.diff(np.log1p(low) - np.log1p(-low)),
        np.diff(np.log(high)),
    ])
    return masses / math.log(6.0)


def density_l1_err(density) -> float:
    """L1 distance between the Ulam bin masses and the exact masses of h."""
    masses = np.asarray(density.values, dtype=np.float64) / density.bins
    return float(np.abs(masses - h_bin_masses(density.bins)).sum())
