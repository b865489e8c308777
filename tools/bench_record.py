"""Record the performance figures of a parent and a change as BENCH_1.json
and BENCH_2.json, in the current directory.

    python3 tools/bench_record.py PARENT CHANGE

Each tree is a git clone of the repository (the benchmark stamps its
version with `git describe`).  Give the trees at paths of equal length.
Every figure is measured on both trees in turn, and the order alternates
from one repetition to the next, so host drift reaches each tree alike.
Like `benchmarks/run.py`, the script pins itself, and so every process it
starts, to one CPU, and runs BLAS on one thread.  Written per tree, with
the same keys in each file:

- `machine`: the machine facts of a benchmark run record (nproc, the
  Python, numpy and scipy versions, `git describe`), the commit, and the
  hash and line count of `src/gaprenorm`;
- `workloads`: `benchmarks/run.py --seconds 8 --trace 0` at seeds 1-3 of
  each workload, every end-to-end metric scaled, the unscaled `wall_s` and
  `setup_s`, and the digest;
- `layers`: the per-layer metrics of one `--trace 1` run per workload at
  seed 1;
- `verify`: `gaprenorm verify --json`, end to end and per check;
- `tests`: the Tier-1 test run, end to end;
- `readme`: each README command line end to end, and interpreter start-up,
  each with its peak RSS (`ru_maxrss` of the child, from `os.wait4`; see
  LAUNCH);
- `sweep`: `build_ulam` and a 30-step `correlation_decay` at 256 to 4096
  bins in one process, with the log-log slope of each.

Each figure is {"value", "unit", "estimator", "runs"}: `value` is the
median of `runs`, one per repetition: RUNS per workload and seed, REPEATS
for every other figure.  A summary of the change against the parent is
printed: the medians, the parent's interquartile range, and how many
alternating pairs the change won.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "src")]
from sweeps import loglog_slope  # noqa: E402

WORKLOADS = ("deep-rational", "periodic-orbit", "transfer-operator")
SEEDS = (1, 2, 3)
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SWEEP_BINS = (256, 512, 1024, 2048, 4096)
RUNS = 10  # benchmark runs per tree, workload and seed
REPEATS = 5  # runs per tree of every other figure
SECONDS = 8.0  # benchmarks/run.py --seconds

SWEEP = """
import json, time
import numpy as np
from gaprenorm.measure import build_ulam, correlation_decay, stationary_density
build_ulam(16)
out = {}
for bins in %r:
    t = time.perf_counter()
    op = build_ulam(bins)
    build = time.perf_counter() - t
    dens = stationary_density(op)
    f, g = np.arange(bins // 8, bins // 4), np.arange(bins // 2, 5 * bins // 8)
    t = time.perf_counter()
    correlation_decay(f, g, op, 30, density=dens)
    out[bins] = [build, time.perf_counter() - t]
print(json.dumps(out))
""" % (SWEEP_BINS,)


# A child's ru_maxrss counts the memory image it was forked from, so a child
# of this script would read no less than this script's own peak (21.8 MB,
# against 13.6 MB for `python -c pass`).  A bare interpreter starts each
# command instead, waits for it with os.wait4 and prints its wall time, exit
# code and peak RSS (KiB) as a line of its own at the end of stderr; the
# floor is then its own, no higher than that of any Python command.
LAUNCH = """
import os, sys, time
t = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
seconds = time.perf_counter() - t
print(f"\\n{seconds} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}", file=sys.stderr)
"""


def env_for(tree: Path) -> dict:
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(tree / "src")}
    env["GIT_CEILING_DIRECTORIES"] = str(tree.parent)
    return env


def run(tree: Path, args: list[str], cwd: Path | None = None) -> tuple[float, str, float]:
    """Run one command in a fresh process; return its wall time, its stdout
    and its peak RSS in MB, all three taken by LAUNCH."""
    done = subprocess.run([sys.executable, "-c", LAUNCH, *args], cwd=cwd or tree,
                          env=env_for(tree), check=True, capture_output=True, text=True)
    err, _, last = done.stderr.rstrip("\n").rpartition("\n")  # see LAUNCH
    seconds, code, kib = last.split()
    if int(code):
        raise subprocess.CalledProcessError(int(code), args, done.stdout, err)
    return float(seconds), done.stdout, int(kib) / 1024


def git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def machine(tree: Path, run_record: dict) -> dict:
    """A benchmark run's record of the machine, with what it lacks: the
    commit and the hash and line count of the package source."""
    src = sorted((tree / "src" / "gaprenorm").glob("*.py"))
    return {
        **run_record,
        "commit": git(tree, "rev-parse", "HEAD"),
        "src_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest(),
        "src_lines": sum(p.read_text().count("\n") for p in src),
    }


def figure(runs: list[float], unit: str, estimator: str) -> dict:
    return {"value": statistics.median(runs), "unit": unit,
            "estimator": f"{estimator}, median of {len(runs)} runs", "runs": runs}


def alternating(trees: list[Path], repeats: int, measure) -> list[list]:
    """measure(tree) for every tree, `repeats` times, the order of the trees
    reversed on every other repetition; one list of results per tree."""
    results = [[] for _ in trees]
    for rep in range(repeats):
        order = list(enumerate(trees))
        for i, tree in order[::-1] if rep % 2 else order:
            results[i].append(measure(tree))
    return results


def bench_run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    _, out, _ = run(tree, [sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS),
                           "--trace", str(trace)])
    last = json.loads(out.splitlines()[-1])
    if last["failed"]:
        raise RuntimeError(f"{tree.name}: {workload} seed {seed}: {last['failed']} failed")
    record = json.loads((tree / "benchmarks" / "out" /
                         f"record-{workload}-seed{seed}-trace{trace}.json").read_text())
    res = record["result"]
    metrics = {k: (v["value"], v["unit"]) for k, v in last["metrics"].items()}
    if not trace:
        metrics["raw_wall_s"] = (res["raw_wall_s"], "s")
        metrics["raw_setup_s"] = (statistics.median(record["setup_s"]["raw_s"]), "s")
    return {"metrics": metrics, "digest": res["digest"], "record": record["record"],
            "attempted": last["attempted"], "failed": last["failed"]}


def workload_figures(runs: list[dict], estimator: str) -> dict:
    digests = {r["digest"] for r in runs}
    if len(digests) != 1:
        raise RuntimeError(f"digest moved between runs: {sorted(digests)}")
    return {
        "digest": digests.pop(),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: figure([r["metrics"][name][0] for r in runs], unit, estimator)
                    for name, (_, unit) in runs[0]["metrics"].items()},
    }


def verify_run(tree: Path) -> dict:
    seconds, out, _ = run(tree, [sys.executable, "-m", "gaprenorm.cli", "verify", "--json"])
    return {"end_to_end": seconds, **{c["name"]: c["seconds"] for c in json.loads(out)}}


def readme_lines(tree: Path) -> list[str]:
    _, out, _ = run(tree, [sys.executable, "-c",
                           "import sys; sys.path[:0] = ['tests']; import test_readme; "
                           "print(*map(' '.join, test_readme.command_lines()), sep='\\n')"])
    return out.splitlines()


def readme_figures(trees: list[Path], estimator: str) -> list[dict]:
    """Each README command line, and interpreter start-up, end to end, and
    its peak RSS under `<name> peak_rss_mb`; the trees alternate line by
    line, so that host drift reaches them alike."""
    cmds = [{"python -c pass": ["-c", "pass"],
             "import gaprenorm": ["-c", "import gaprenorm"],
             "import gaprenorm.measure": ["-c", "import gaprenorm.measure"],
             **{f"gaprenorm {line}": ["-m", "gaprenorm.cli", *line.split()]
                for line in readme_lines(t)}} for t in trees]
    out = [{} for _ in trees]
    with tempfile.TemporaryDirectory() as cwd:
        for name in dict.fromkeys(n for c in cmds for n in c):
            have = [i for i, c in enumerate(cmds) if name in c]
            runs = alternating([trees[i] for i in have], REPEATS, lambda t: run(
                t, [sys.executable, *cmds[trees.index(t)][name]], Path(cwd)))
            for i, r in zip(have, runs):
                out[i][name] = figure([s for s, _, _ in r], "s", estimator)
                out[i][f"{name} peak_rss_mb"] = figure(
                    [m for _, _, m in r], "MB", f"peak RSS from os.wait4, {estimator}")
    return out


def by_key(runs: list[dict], unit: str, estimator: str) -> dict:
    return {k: figure([r[k] for r in runs], unit, estimator) for k in runs[0]}


def sweep_figures(runs: list[dict]) -> dict:
    out = {}
    for col, name in enumerate(("build_ulam", "correlation_decay")):
        per_bins = {b: figure([r[str(b)][col] for r in runs], "s",
                              "one call in a fresh process, one CPU")
                    for b in SWEEP_BINS}
        out[name] = {"bins": per_bins, "loglog_slope": loglog_slope(
            SWEEP_BINS, [f["value"] for f in per_bins.values()])}
    return out


def summary(parent: dict, change: dict) -> None:
    for wl, seeds in parent["workloads"].items():
        for seed, fig in seeds.items():
            for name, a in fig["metrics"].items():
                b = change["workloads"][wl][seed]["metrics"][name]
                q = statistics.quantiles(a["runs"], n=4)
                wins = sum(y < x for x, y in zip(a["runs"], b["runs"]))
                print(f"{wl} seed {seed} {name}: {a['value']:.6g} -> "
                      f"{b['value']:.6g} ({b['value'] / a['value'] - 1:+.1%}), "
                      f"parent IQR {q[2] - q[0]:.3g}, lower {wins}/{len(a['runs'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    if len(str(trees[0])) != len(str(trees[1])):
        parser.error("the trees' paths differ in length")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    one_cpu = "one CPU, one BLAS thread"

    records = [{"load_before": os.getloadavg(), "workloads": {}, "layers": {}}
               for _ in trees]
    for wl in WORKLOADS:
        for seed in SEEDS:
            runs = alternating(trees, RUNS, lambda t: bench_run(t, wl, seed, 0))
            est = f"benchmarks/run.py --seconds {SECONDS:g}, alternating pairs"
            for tree, rec, r in zip(trees, records, runs):
                rec.setdefault("machine", machine(tree, r[0]["record"]))
                rec["workloads"].setdefault(wl, {})[str(seed)] = workload_figures(r, est)
        runs = alternating(trees, 1, lambda t: bench_run(t, wl, 1, 1))
        for rec, r in zip(records, runs):
            rec["layers"][wl] = {k: {"value": v, "unit": u, "estimator": "one --trace 1 run"}
                                 for k, (v, u) in r[0]["metrics"].items()}
    est = f"{one_cpu}, alternating trees"
    for rec, r in zip(records, alternating(trees, REPEATS, verify_run)):
        rec["verify"] = by_key(r, "s", f"verify --json in a fresh process, {est}")
    tier1 = [sys.executable, "-m", "pytest", "-q", "-W", "error::RuntimeWarning",
             "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    for rec, r in zip(records, alternating(trees, REPEATS, lambda t: run(t, tier1))):
        rec["tests"] = {"tier1": figure([s for s, _, _ in r], "s", f"{' '.join(tier1[1:])}, {est}"),
                        "result": r[0][1].splitlines()[-1]}
    for rec, r in zip(records, readme_figures(trees, f"end to end in a fresh process, {est}")):
        rec["readme"] = r
    sweep = alternating(trees, REPEATS,
                        lambda t: json.loads(run(t, [sys.executable, "-c", SWEEP])[1]))
    for rec, r in zip(records, sweep):
        rec["sweep"] = sweep_figures(r)
    for n, rec in enumerate(records, 1):
        rec["load_after"] = os.getloadavg()
        Path(f"BENCH_{n}.json").write_text(json.dumps(rec, indent=1) + "\n")
    summary(*records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
