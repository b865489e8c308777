"""Tests of the benchmark itself, on tiny inputs.

    PYTHONPATH=src python -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import sweeps  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {
    "deep-rational": lambda seed: wl.deep_rational_items(
        seed, count=5, depths=(16, 40), n_max=(150, 300)),
    "periodic-orbit": lambda seed: wl.periodic_orbit_items(
        seed, count=3, symbols=2_000),
    "transfer-operator": lambda seed: wl.transfer_operator_items(
        seed, bins=(16, 32), steps=3),
}


def _run(tmp_path, workload, seed=1, trace=False, expect=None):
    return worker.execute(workload, TINY[workload](seed), 0.0, trace, tmp_path,
                          seed=seed, expect=expect)


def test_self_time_subtracts_merged_child_cover():
    S = spans.Span
    synthetic = [
        S("root", 0.0, 10.0, None, 0),
        S("a", 1.0, 3.0, 0, 0),
        S("b", 2.0, 5.0, 0, 0),      # overlaps a: together they cover 1..5
        S("c", 8.0, 12.0, 0, 0),     # overhangs the parent: only 8..10 counts
        S("a.child", 1.5, 2.5, 1, 0),  # a grandchild of root
        S("other", 20.0, 21.0, None, 1),
    ]
    assert spans.self_times(synthetic) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0, 1.0])


def test_timed_metrics_scale_by_the_host_speed():
    # the loop ran at half its nominal time: the host was twice as fast
    half = hostspeed.NOMINAL_S / 2
    sec = wl.Section(wall=[[1.0, 3.0, 2.0], [0.5, 0.5]], cpu=[[1.0], [0.5]],
                     item_hashes=[None, None], ref=[half] * 4 + [9 * half],
                     ref_index=[[0, 2, 4], [1, 3]])
    res = worker._section_summary(sec)
    assert res["raw_wall_s"] == pytest.approx(2.5)
    assert res["wall_s"] == pytest.approx(5.0)
    assert res["host_factor"] == pytest.approx(2.0)
    assert res["item_ms_p50"] == pytest.approx(
        1e3 * worker.hd_quantile([4.0, 1.0], 0.5))


def test_host_speed_scale_follows_the_nearby_samples():
    w, nom = hostspeed.WINDOW, hostspeed.NOMINAL_S
    samples = [nom] * (2 * w + 1) + [2 * nom] * (2 * w + 1)
    factors = hostspeed.local_factors(samples)
    assert factors[0] == factors[w] == 1.0
    assert factors[-1] == factors[-1 - w] == 0.5


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_tiny_inputs(tmp_path, workload):
    res = _run(tmp_path, workload)
    assert res["failed"] == 0, res["errors"]
    assert res["attempted"] == res["items"] >= 3
    assert res["wall_s"] > 0 and res["item_ms_p90"] >= res["item_ms_p50"] > 0
    assert 0 < res["density_l1_err"] < 0.05
    assert len(res["digest"]) == 64


def test_wrong_expected_value_counts_as_failure(tmp_path):
    res = _run(tmp_path, "periodic-orbit", expect=wl.Expect(max_mismatches=-1))
    assert res["failed"] == res["attempted"] == 3
    assert "encoding mismatches" in res["errors"][0]
    res = _run(tmp_path, "transfer-operator", expect=wl.Expect(residual_max=0.0))
    assert res["failed"] == 2 and "residual" in res["errors"][0]


def test_digest_is_repeatable_per_seed(tmp_path):
    first = _run(tmp_path, "deep-rational", seed=3)["digest"]
    assert _run(tmp_path, "deep-rational", seed=3)["digest"] == first
    assert _run(tmp_path, "deep-rational", seed=4)["digest"] != first


def test_periodic_seeds_differ_only_by_rotation_and_order():
    def key(item):
        pre, period = item.p["spec"][len("cfper:["):-1].split("][")
        q = period.split(",")
        return pre, min(",".join(q[r:] + q[:r]) for r in range(len(q)))

    one, two = wl.periodic_orbit_items(1), wl.periodic_orbit_items(2)
    assert sorted(map(key, one)) == sorted(map(key, two))
    assert [i.p["spec"] for i in one] != [i.p["spec"] for i in two]


def test_traced_run_reports_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(sweeps, "DEPTHS", (20, 40, 80))
    monkeypatch.setattr(sweeps, "PERIODS", (4, 8))
    res = _run(tmp_path, "periodic-orbit", trace=True)
    assert res["failed"] == 0, res["errors"]
    layers = res["layers"]
    assert {name for name, _ in spans.LAYER_METRICS} <= set(layers)
    assert res["min_self_s"] >= 0
    assert layers["orbit.encode_orbit.self_s"] > 0
    assert layers["measure.build_ulam.self_s"] == 0
    assert 0 < layers["orbit.verify_encoding.searched_ratio"] <= 1
    assert (tmp_path / "spans-periodic-orbit-seed1.json").is_file()


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert tuple(run.WORKLOADS) == wl.WORKLOADS


def test_run_without_package_source_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "deep-rational",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
