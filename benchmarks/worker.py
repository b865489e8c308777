"""One workload process of the gaprenorm benchmark.

`run.py` starts this file in a fresh interpreter with `src/` on PYTHONPATH
and BLAS pinned to one thread.  It imports the package, generates the
workload's items from the seed, runs the timed section (and, with --trace 1,
one traced pass plus the scaling sweeps) and writes its result as JSON to
the --result file.  With --setup-only it stops after generating the items,
which is what `run.py` times as set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta-weighted average of all order statistics.  Item costs here span
    three decades, so neighbouring order statistics lie far apart and a
    single one jumps whenever noise swaps two items; the weighted average
    does not.
    """
    import numpy as np
    from scipy.special import betainc

    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ xs)


def _section_summary(sec) -> dict:
    """Latency metrics of a section, scaled to the nominal host speed (see
    hostspeed.py); the raw_ and wall_min_s entries are unscaled."""
    raw = sec.median(sec.wall)
    wall = sec.median(sec.scaled_wall())
    return {
        "items": len(sec.wall),
        "samples": sum(len(s) for s in sec.wall),
        "passes": sec.passes,
        "host_factor": sum(wall) / sum(raw),
        "ref_samples": len(sec.ref),
        "wall_s": sum(wall),
        "item_ms_p50": 1e3 * hd_quantile(wall, 0.5),
        "item_ms_p90": 1e3 * hd_quantile(wall, 0.9),
        "raw_wall_s": sum(raw),
        "wall_min_s": sum(min(s) for s in sec.wall if s),
        "cpu_s": sum(sec.median(sec.cpu)),
        "first_pass_s": sec.pass_time(0),
        "item_runs_ms": [[1e3 * t for t in runs] for runs in sec.wall],
        "ref_ms": [1e3 * t for t in sec.ref],
    }


def execute(workload: str, items, seconds: float, trace: bool, out_dir: Path,
            seed: int = 0, expect=None) -> dict:
    """Run one workload in this process and return its result record."""
    import hostspeed
    import spans
    import workloads as wl
    from gaprenorm import measure

    scratch = out_dir / f"emit-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    ctx = wl.Context(scratch=scratch, expect=expect or wl.Expect())
    try:
        hostspeed.warm_up()
        for item in wl.warmup_items(workload):
            wl.run_item(item, ctx)
        ctx.state.clear()
        undo = wl.capture_driver_calls(ctx)
        try:
            sec = wl.run_section(items, ctx, seconds)
        finally:
            spans.unpatch(undo)
        result = {
            "workload": workload,
            "seed": seed,
            **_section_summary(sec),
            "attempted": sec.attempted,
            "failed": sec.failed,
            "errors": list(sec.errors),
            "digest": wl.workload_digest(sec.item_hashes),
        }
        # The closed-form density check: on the transfer-operator workload at
        # its largest bin count, elsewhere on a 512-bin operator built after
        # the timed section.
        sizes = [b for b in ctx.state if isinstance(b, int) and "density" in ctx.state[b]]
        if sizes:
            density = ctx.state[max(sizes)]["density"]
        else:
            density = measure.stationary_density(measure.build_ulam(512))
        result["density_bins"] = density.bins
        result["density_l1_err"] = wl.density_l1_err(density)

        if trace:
            result.update(_traced(workload, items, ctx, sec, seed, out_dir))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def _traced(workload, items, ctx, sec, seed, out_dir) -> dict:
    import workloads as wl
    import spans
    import sweeps

    ctx.state.clear()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        undo_capture = wl.capture_driver_calls(ctx)
        try:
            traced = wl.run_section(items, ctx, 0.0, tracer=tracer,
                                    reference=sec.item_hashes)
        finally:
            spans.unpatch(undo_capture)
    finally:
        spans.unpatch(undo)
    tracer.write(out_dir / f"spans-{workload}-seed{seed}.json")
    layers = spans.layer_metrics(tracer)
    selfs = spans.self_times(tracer.spans)
    depth = sweeps.depth_sweep(seed)
    period = sweeps.period_sweep(seed)
    layers["cf.gap_trajectory.depth_slope"] = depth["slope"]
    for length, rec in period.items():
        layers[f"cf.cf_value.period{length}_s"] = rec["seconds"]
    layers["cf.cf_value.capped"] = sum(rec["capped"] for rec in period.values())
    layers["proc.cpu_s"] = sum(sec.median(sec.cpu))
    # both sides scaled to the nominal host speed
    layers["trace.overhead_ratio"] = (
        sum(runs[0] for runs in traced.scaled_wall() if runs)
        / sum(sec.median(sec.scaled_wall())))
    return {
        "attempted": sec.attempted + traced.attempted,
        "failed": sec.failed + traced.failed,
        "errors": (sec.errors + traced.errors)[:10],
        "layers": layers,
        "spans": len(tracer.spans),
        "min_self_s": min(selfs) if selfs else 0.0,
        "traced_pass_s": traced.pass_time(0),
        "sweeps": {"depth_s": depth["seconds"], "period": period},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import gaprenorm

    import_s = time.perf_counter() - t0
    src = (HERE.parent / "src").resolve()
    if Path(gaprenorm.__file__).resolve().parent.parent != src:
        print(f"error: imported gaprenorm from {gaprenorm.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads as wl

    items = wl.make_items(args.workload, args.seed)
    if args.setup_only:
        return 0
    result = execute(args.workload, items, args.seconds, bool(args.trace),
                     args.out_dir, seed=args.seed)
    result["import_s"] = import_s
    if "layers" in result:
        result["layers"]["proc.import_s"] = import_s
    args.result.write_text(json.dumps(result, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
