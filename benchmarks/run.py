"""Benchmark of gaprenorm: one workload, one seed, one fresh workload process.

    python3 benchmarks/run.py --workload deep-rational --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory.  The run pins itself and its children to one CPU, times set-up (a
fresh interpreter through `import gaprenorm` and input generation) several
times, then starts one workload process that runs the seeded items in a
closed loop for --seconds, checks every output and reports.  Timed metrics
are scaled to a nominal host speed by a reference loop timed on the same CPU
(see hostspeed.py).  With --trace 1 the workload process also runs one
traced pass and the scaling sweeps, and the per-layer metrics are reported.

Prints a table of every metric with its unit and sample count, the run
record and the workload digest, then, as the last line, one JSON object with
the keys correct, attempted, failed and metrics.  Exits 2 without a result
when the package source is missing.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOADS = ("deep-rational", "periodic-orbit", "transfer-operator")
SETUP_RUNS = 5
REF_SAMPLES = 5
BUDGET_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

# name, unit: the end-to-end metrics of an untraced run
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "1"),
    ("density_l1_err", "1"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(BLAS_ENV)
    env["PYTHONHASHSEED"] = "0"
    # keep git (run by the package's version stamp) inside the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def git_revision(env: dict) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (no git checkout)"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def pin_cpu() -> int | None:
    """Pin this process, and so every child, to one CPU.

    The host-speed reference only tells about the CPU it ran on, and the
    vCPUs of a shared VM slow down independently: on a 2-vCPU VM one took
    3.5 ms per reference loop while the other took 5 ms.
    """
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


def run_record(env: dict, cpu: int | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "sympy": _version("sympy"),
        "git": git_revision(env),
        "blas": " ".join(f"{k}={v}" for k, v in BLAS_ENV.items()),
        "load_before": os.getloadavg(),
    }


def worker_cmd(args, *extra) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--out-dir", str(OUT), *extra]


def run_child(cmd: list[str], env: dict, deadline: float, **kwargs) -> None:
    """Run a child to completion, killing it at the deadline.

    The wait blocks in waitpid; `subprocess.run(timeout=...)` would poll
    with sleeps of up to 50 ms instead, which quantizes set-up times.
    """
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, **kwargs)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:  # interrupted: never leave the child running
            proc.kill()
            proc.wait()
    if code:
        raise subprocess.CalledProcessError(code, cmd)


def time_setup(args, env: dict, deadline: float) -> dict:
    """Time SETUP_RUNS set-ups, with REF_SAMPLES host-speed samples before
    each and after the last; each set-up is scaled by the samples on either
    side of it."""
    hostspeed.warm_up()
    times, ref = [], [[hostspeed.sample() for _ in range(REF_SAMPLES)]]
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        run_child(worker_cmd(args, "--setup-only"), env, deadline,
                  stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        ref.append([hostspeed.sample() for _ in range(REF_SAMPLES)])
    factors = [hostspeed.factor(ref[i] + ref[i + 1]) for i in range(SETUP_RUNS)]
    return {"raw_s": times, "ref_ms": [[1e3 * t for t in g] for g in ref],
            "host_factors": factors,
            "setup_s": statistics.median(f * t for f, t in zip(factors, times))}


def end_to_end(res: dict, setup: dict) -> dict:
    ok = (res["attempted"] - res["failed"]) / res["attempted"]
    return {
        "setup_s": setup["setup_s"],
        "wall_s": res["wall_s"],
        "item_ms_p50": res["item_ms_p50"],
        "item_ms_p90": res["item_ms_p90"],
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ratio": ok,
        "density_l1_err": res["density_l1_err"],
    }


def _layer_basis(name: str, res: dict) -> str:
    if name == "cf.gap_trajectory.depth_slope":
        return "depth sweep, median of 3 per depth"
    if name.startswith("cf.cf_value.period") or name == "cf.cf_value.capped":
        return "period sweep, 1 call each"
    if name == "proc.import_s":
        return "workload process"
    if name == "proc.cpu_s":
        return f"untraced, sum of per-item median runs, {res['items']} items"
    if name == "trace.overhead_ratio":
        return "traced pass / untraced wall_s"
    return f"traced pass, {res['spans']} spans"


def print_report(args, record: dict, res: dict, setup: dict) -> list:
    """Print the human-readable report; return (name, value, unit) rows."""
    print(f"gaprenorm benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("record: " + ", ".join(f"{k} {v}" for k, v in record.items()))
    if max(record["load_before"][0], record["load_after"][0]) > record["nproc"]:
        print(f"warning: load average above nproc ({record['nproc']}); "
              "timings are not reliable")
    print(f"items {res['items']}, item runs {res['samples']}, "
          f"complete passes {res['passes']}, first pass {res['first_pass_s']:.3f} s, "
          f"sum of per-item fastest runs {res['wall_min_s']:.3f} s")
    print(f"host-speed scale {res['host_factor']:.4f} (scaled over unscaled wall_s; "
          f"{res['ref_samples']} reference-loop samples, nominal "
          f"{1e3 * hostspeed.NOMINAL_S:g} ms); "
          f"unscaled wall_s {res['raw_wall_s']:.4f} s")
    if setup:
        print(f"set-up: host-speed scales {', '.join(f'{f:.3f}' for f in setup['host_factors'])}; "
              f"unscaled median {statistics.median(setup['raw_s']):.4f} s")
    if args.trace:
        import spans

        print(f"traced pass {res['traced_pass_s']:.3f} s, {res['spans']} spans, "
              f"smallest self time {res['min_self_s']:.3g} s")
        rows = [(name, res["layers"][name], unit, _layer_basis(name, res))
                for name, unit in spans.LAYER_METRICS]
    else:
        metrics = end_to_end(res, setup)
        basis = {
            "setup_s": f"median of {len(setup['raw_s'])} set-ups, scaled",
            "wall_s": f"sum of per-item median runs, {res['items']} items, scaled",
            "item_ms_p50": f"Harrell-Davis, {res['items']} items, scaled",
            "item_ms_p90": f"Harrell-Davis, {res['items']} items, scaled",
            "peak_rss_mb": "1 process",
            "ok_ratio": f"{res['attempted']} item runs",
            "density_l1_err": f"{res['density_bins']} bins",
        }
        rows = [(name, metrics[name], unit, basis[name]) for name, unit in END_TO_END]
    print(f"{'metric':44s} {'value':>14s}  {'unit':6s} samples")
    for name, value, unit, n in rows:
        print(f"{name:44s} {value:14.6g}  {unit:6s} {n}")
    print(f"fail_ratio {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} item runs failed)")
    for err in res["errors"]:
        print(f"failure: {err}")
    print(f"digest {args.workload} seed={args.seed} sha256={res['digest']}")
    return [(name, value, unit) for name, value, unit, _ in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so run_child stops its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "gaprenorm" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'gaprenorm'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    record = run_record(env, pin_cpu())
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    try:
        setup = {} if args.trace else time_setup(args, env, deadline)
        run_child(worker_cmd(args, "--seconds", str(args.seconds), "--trace",
                             str(args.trace), "--result", str(result_path)),
                  env, deadline, stdout=sys.stderr)
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc} (killed when over the {BUDGET_S:.0f} s budget)"
              if time.monotonic() >= deadline else f"error: {exc}", file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text())
    record["load_after"] = os.getloadavg()
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": res, "setup_s": setup}, indent=1) + "\n")
    rows = print_report(args, record, res, setup)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
