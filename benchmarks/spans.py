"""In-memory spans around calls into gaprenorm's modules, and layer metrics.

Tracing works by attribute replacement from the benchmark's own files:
every module attribute that is one of the listed public functions (the
defining module's and each `from ... import` binding in the other modules)
is swapped for a wrapper that records a span, and swapped back afterwards.
Functions look their globals up at call time, so calls made inside the
package go through the wrappers too.  Nothing under `src/` changes.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Wrapped functions, by defining module.
TRACED = {
    "cf": ("gap_trajectory", "rational_to_cf", "sample_theta", "cf_value",
           "parse_theta_spec"),
    "exact": ("squarefree_split", "exact_log"),
    "substitution": ("rules_along", "stats_by_level", "lengths_by_level",
                     "renorm_identity", "expand_word"),
    "orbit": ("encode_orbit", "discrepancy_profile", "sandwich_sweep",
              "verify_encoding"),
    "measure": ("build_ulam", "stationary_density", "integral_log_norm",
                "series_bound", "correlation_decay", "khinchin_experiment"),
    "experiments": ("run_limsup_probe", "run_growth_experiment", "emit",
                    "tool_version"),
}

# Every per-layer metric the traced run reports, with its unit.  Ratios and
# rates read 0 when the function they describe did not run.
LAYER_METRICS = (
    ("cf.gap_trajectory.self_s", "s"),
    ("cf.gap_trajectory.levels", "count"),
    ("cf.gap_trajectory.depth_slope", "1"),
    ("cf.rational_to_cf.self_s", "s"),
    ("cf.rational_to_cf.quotients", "count"),
    ("cf.sample_theta.accept_ratio", "1"),
    ("cf.cf_value.self_s", "s"),
    ("cf.cf_value.calls", "count"),
    ("cf.cf_value.period4_s", "s"),
    ("cf.cf_value.period8_s", "s"),
    ("cf.cf_value.period12_s", "s"),
    ("cf.cf_value.period16_s", "s"),
    ("cf.cf_value.capped", "count"),
    ("exact.squarefree_split.self_s", "s"),
    ("exact.squarefree_split.calls", "count"),
    ("exact.squarefree_split.max_bits", "bits"),
    ("exact.exact_log.self_s", "s"),
    ("proc.import_s", "s"),
    ("substitution.rules_along.self_s", "s"),
    ("substitution.stats_by_level.self_s", "s"),
    ("substitution.stats_by_level.levels", "count"),
    ("substitution.lengths_by_level.self_s", "s"),
    ("substitution.renorm_identity.self_s", "s"),
    ("substitution.expand_word.self_s", "s"),
    ("substitution.expand_word.letters", "count"),
    ("orbit.encode_orbit.self_s", "s"),
    ("orbit.encode_orbit.surd_symbols_per_s", "1/s"),
    ("orbit.encode_orbit.rational_symbols_per_s", "1/s"),
    ("orbit.discrepancy_profile.self_s", "s"),
    ("orbit.sandwich_sweep.self_s", "s"),
    ("orbit.sandwich_sweep.checks", "count"),
    ("orbit.verify_encoding.self_s", "s"),
    ("orbit.verify_encoding.searched_ratio", "1"),
    ("measure.build_ulam.self_s", "s"),
    ("measure.stationary_density.self_s", "s"),
    ("measure.integral_log_norm.self_s", "s"),
    ("measure.series_bound.self_s", "s"),
    ("measure.correlation_decay.self_s", "s"),
    ("measure.khinchin_experiment.self_s", "s"),
    ("measure.khinchin_experiment.accept_ratio", "1"),
    ("experiments.run_limsup_probe.self_s", "s"),
    ("experiments.run_growth_experiment.self_s", "s"),
    ("experiments.emit.self_s", "s"),
    ("experiments.emit.bytes", "bytes"),
    ("experiments.tool_version.calls", "count"),
    ("proc.cpu_s", "s"),
    ("trace.overhead_ratio", "1"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: int | None


class Tracer:
    """Spans and per-call counts of one traced section, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.item: int | None = None
        self.counts: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, time.perf_counter(), math.nan, parent, self.item)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
            tracer.observe(name, span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def observe(self, name: str, span: Span, args: tuple, result) -> None:
        """Count the work one call did, outside its span; keeps no result."""
        c = self.counts
        if name == "cf.gap_trajectory":
            c["cf.gap_trajectory.levels"] += len(result.steps)
        elif name == "cf.rational_to_cf":
            c["cf.rational_to_cf.quotients"] += len(result.preperiod)
        elif name == "exact.squarefree_split":
            key = "exact.squarefree_split.max_bits"
            c[key] = max(c[key], args[0].bit_length())
        elif name == "substitution.stats_by_level":
            c["substitution.stats_by_level.levels"] += len(result)
        elif name == "substitution.expand_word":
            c["substitution.expand_word.letters"] += len(result)
        elif name == "orbit.encode_orbit":
            kind = "rational" if isinstance(result.theta, (int, Fraction)) else "surd"
            c[f"encode.{kind}.symbols"] += len(result.symbols)
            c[f"encode.{kind}.seconds"] += span.end - span.start
        elif name == "orbit.sandwich_sweep":
            c["orbit.sandwich_sweep.checks"] += len(result)
        elif name == "orbit.verify_encoding":
            # the grid scan stops at the first exact match, else runs through
            grid = result.grid_points
            if result.mismatches == 0:
                tried = result.y.numerator * (grid // result.y.denominator) + 1
            else:
                tried = grid
            c["verify.tried"] += tried
            c["verify.grid"] += grid
        elif name == "measure.khinchin_experiment":
            c["khinchin.samples"] += result.samples
            c["khinchin.draws"] += result.samples + result.resamples
        elif name == "experiments.emit":
            c["experiments.emit.bytes"] += Path(result).stat().st_size

    def write(self, path: Path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "item": s.item}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Swap every package binding of each TRACED function for its wrapper.

    Returns what `unpatch` needs to put the originals back.
    """
    wrappers = {}
    for module, names in TRACED.items():
        mod = sys.modules[f"gaprenorm.{module}"]
        for name in names:
            fn = getattr(mod, name)
            wrappers[id(fn)] = tracer.wrap(f"{module}.{name}", fn)
    undo = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == "gaprenorm"
                               or mod_name.startswith("gaprenorm.")):
            continue
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrapper)
    return undo


def unpatch(undo) -> None:
    for mod, attr, value in reversed(undo):
        setattr(mod, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children never drive a self
    time below zero.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children.get(i, ())
        )
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, (s.end - s.start) - covered))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self times and counts of the traced section, by layer metric name."""
    spans = tracer.spans
    c = tracer.counts
    out: dict[str, float] = defaultdict(float)
    out.update((name, 0.0) for name, _ in LAYER_METRICS)
    calls: dict[str, int] = defaultdict(int)
    for s, st in zip(spans, self_times(spans)):
        out[f"{s.name}.self_s"] += st
        calls[s.name] += 1
    attempts = sum(
        1 for s in spans
        if s.name == "cf.rational_to_cf" and s.parent is not None
        and spans[s.parent].name == "cf.sample_theta"
    )
    for key in ("cf.gap_trajectory.levels", "cf.rational_to_cf.quotients",
                "exact.squarefree_split.max_bits",
                "substitution.stats_by_level.levels",
                "substitution.expand_word.letters", "orbit.sandwich_sweep.checks",
                "experiments.emit.bytes"):
        out[key] = c[key]
    out["cf.sample_theta.accept_ratio"] = _ratio(calls["cf.sample_theta"], attempts)
    out["cf.cf_value.calls"] = calls["cf.cf_value"]
    out["exact.squarefree_split.calls"] = calls["exact.squarefree_split"]
    out["experiments.tool_version.calls"] = calls["experiments.tool_version"]
    out["orbit.encode_orbit.surd_symbols_per_s"] = _ratio(
        c["encode.surd.symbols"], c["encode.surd.seconds"])
    out["orbit.encode_orbit.rational_symbols_per_s"] = _ratio(
        c["encode.rational.symbols"], c["encode.rational.seconds"])
    out["orbit.verify_encoding.searched_ratio"] = _ratio(c["verify.tried"],
                                                         c["verify.grid"])
    out["measure.khinchin_experiment.accept_ratio"] = _ratio(c["khinchin.samples"],
                                                             c["khinchin.draws"])
    return dict(out)
