import dataclasses
import json
import math
import subprocess

import pytest

from gaprenorm.experiments import (
    EmitError,
    ExperimentConfig,
    IteratedLogFamily,
    emit,
    run_bounded_pq_check,
    run_growth_experiment,
    run_limsup_probe,
    run_trimmed_sums,
    tool_version,
)

SILVER = "cfper:[][2]"


def assert_same_records(a, b):
    """Field-wise equality that treats two nans as equal."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for fld in dataclasses.fields(x):
            va, vb = getattr(x, fld.name), getattr(y, fld.name)
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb)
            else:
                assert va == vb


def test_tool_version():
    v = tool_version()
    assert v.startswith("0.1.0")


def test_emit_asks_git_only_when_needed(monkeypatch, tmp_path):
    calls = []

    def fake_run(*args, **kwargs):
        calls.append(args)
        return subprocess.CompletedProcess(args, 0, stdout="abc1234\n", stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    records, _ = _records()
    tool_version.cache_clear()
    try:
        emit(records, "csv", tmp_path / "a.csv", meta={"version": "pinned"})
        assert calls == []
        emit(records, "csv", tmp_path / "b.csv")
        emit(records, "csv", tmp_path / "c.csv")
        assert len(calls) == 1
        assert "# version: 0.1.0+gabc1234\n" in (tmp_path / "c.csv").read_text()
    finally:
        tool_version.cache_clear()


def test_config_meta():
    cfg = ExperimentConfig(seed=3, depth=40)
    meta = cfg.to_meta()
    assert meta["seed"] == 3 and meta["depth"] == 40
    assert "theta_spec" not in meta  # None fields stay out of the echo
    assert meta["version"] == tool_version()
    meta2 = ExperimentConfig(theta_spec=SILVER).to_meta()
    assert meta2["theta_spec"] == SILVER


# ---------------------------------------------------------------------------
# the threshold family


def test_family_validation():
    with pytest.raises(ValueError):
        IteratedLogFamily(0)
    with pytest.raises(ValueError):
        IteratedLogFamily(2, epsilon=-0.1)
    with pytest.raises(ValueError):
        IteratedLogFamily(1, epsilon=0.5)  # k = 1 has no log factor to bump


def test_family_values():
    lin = IteratedLogFamily(1)
    assert lin.f(5.0) == 5.0
    assert math.isclose(lin.F(3.0), 4.0)  # (t^2 - 1) / 2
    k2 = IteratedLogFamily(2)
    assert math.isclose(k2.cutoff, math.e)
    assert math.isclose(k2.f(10.0), 10.0 * math.log(10.0))
    with pytest.raises(ValueError):
        k2.f(2.0)  # below the cutoff
    assert k2.F(2.0) == 0.0
    assert k2.F(50.0) > k2.F(40.0) > 0


def test_family_integral_pinned():
    # F integrates f from the cutoff by quadrature; pinned to the last bit
    assert repr(IteratedLogFamily(2).F(50.0)) == "4263.1814927604455"
    assert repr(IteratedLogFamily(3).F(50.0)) == "5076.402535554847"
    assert IteratedLogFamily(3).cutoff == math.exp(math.e)
    assert IteratedLogFamily(2) == IteratedLogFamily(2)
    assert repr(IteratedLogFamily(2)) == "IteratedLogFamily(k=2, epsilon=0.0)"


def test_family_epsilon_raises_last_factor():
    plain = IteratedLogFamily(2)
    bumped = IteratedLogFamily(2, epsilon=1.0)
    x = math.e**2
    assert math.isclose(plain.f(x), x * 2.0)
    assert math.isclose(bumped.f(x), x * 4.0)  # (log x)^2 at the last factor
    k3 = IteratedLogFamily(3)
    x = math.exp(math.e**2)
    assert math.isclose(k3.f(x), x * math.e**2 * 2.0, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# drivers


def test_growth_on_fixed_theta():
    cfg = ExperimentConfig(theta_spec=SILVER, depth=20, k=2)
    records = run_growth_experiment(cfg, IteratedLogFamily(cfg.k, cfg.epsilon))
    assert [r.n for r in records] == list(range(1, 21))
    assert all(r.halfsum == r.n for r in records)  # silver: e = 2 at every level
    assert math.isnan(records[1].f_of_n)  # n = 2 sits below the k = 2 cutoff
    assert records[9].f_of_n == pytest.approx(10 * math.log(10))
    again = run_growth_experiment(cfg, IteratedLogFamily(cfg.k, cfg.epsilon))
    assert_same_records(again, records)


def test_growth_sampled_theta_deterministic():
    cfg = ExperimentConfig(depth=15, seed=9)
    a = run_growth_experiment(cfg, IteratedLogFamily(2))
    b = run_growth_experiment(cfg, IteratedLogFamily(2))
    assert_same_records(a, b)
    assert len(a) == 15


def test_trimmed_validation():
    with pytest.raises(ValueError):
        run_trimmed_sums(ExperimentConfig(samples=10, depth=200))
    with pytest.raises(ValueError):
        run_trimmed_sums(ExperimentConfig(samples=30, depth=50))


def test_trimmed_summary():
    cfg = ExperimentConfig(samples=30, depth=200, seed=2)
    records, summary = run_trimmed_sums(cfg, checkpoints=(50, 100, 200))
    assert set(summary["median_ratio"]) == {50, 100, 200}
    assert len(records) == 30 * 3
    for v in summary["median_ratio"].values():
        assert 0.0 < v < 2.0


def test_bounded_pq_defaults():
    records, summary = run_bounded_pq_check(ExperimentConfig(orbit_length=10_000))
    assert [r.N for r in records] == [1000, 10_000]
    assert summary["theta_spec"] == SILVER
    assert summary["monotone"] in (True, False)
    lo, hi = summary["ratio_band"]
    assert 0 < lo <= hi < 3 * lo  # spread over log N stays in a narrow band


def test_bounded_pq_validation():
    with pytest.raises(ValueError):
        run_bounded_pq_check(ExperimentConfig(theta_spec="rat:3/7"))
    with pytest.raises(ValueError):
        run_bounded_pq_check(ExperimentConfig(theta_spec="cfper:[][1]"))


def test_limsup_probe_structure():
    cfg = ExperimentConfig(theta_spec=SILVER, samples=3, depth=40)
    records, summary = run_limsup_probe(cfg)
    assert len(records) == 3
    assert all(r.best_n >= 2 for r in records)
    assert 0.0 <= summary["fraction_still_climbing"] <= 1.0
    # with a pinned rotation number all samples agree
    assert len({r.best_ratio for r in records}) == 1


def test_limsup_running_max_monotone_in_depth():
    # same theta at both depths, so the deeper run can only find a larger max
    shallow, _ = run_limsup_probe(
        ExperimentConfig(theta_spec=SILVER, samples=1, depth=30)
    )
    deep, _ = run_limsup_probe(
        ExperimentConfig(theta_spec=SILVER, samples=1, depth=60)
    )
    assert deep[0].best_ratio >= shallow[0].best_ratio


# ---------------------------------------------------------------------------
# emission


def _records():
    cfg = ExperimentConfig(orbit_length=10_000)
    records, summary = run_bounded_pq_check(cfg)
    meta = cfg.to_meta()
    meta["theta_spec"] = summary["theta_spec"]
    return records, meta


def test_csv_deterministic(tmp_path):
    records, meta = _records()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(records, "csv", p1, meta=meta)
    emit(records, "csv", p2, meta=meta)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.startswith("#")
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header == "N,rho,log_N,ratio"


def test_csv_round_trip(tmp_path):
    records, meta = _records()
    path = emit(records, "csv", tmp_path / "t.csv", meta=meta)
    lines = path.read_text().splitlines()
    got_meta = dict(l[2:].split(": ", 1) for l in lines if l.startswith("# "))
    header, *body = [l.split(",") for l in lines if not l.startswith("#")]
    rows = [dict(zip(header, cells)) for cells in body]
    assert got_meta["theta_spec"] == SILVER
    assert "version" in got_meta
    assert len(rows) == len(records)
    assert rows[0]["N"] == "1000"
    assert float(rows[0]["ratio"]) == records[0].ratio  # repr round-trips


def test_json_big_ints_as_strings(tmp_path):
    records, meta = _records()
    path = emit(records, "json", tmp_path / "t.json", meta=meta)
    doc = json.loads(path.read_text())
    assert doc["records"][0]["N"] == "1000"
    assert isinstance(doc["records"][0]["ratio"], float)
    assert doc["meta"]["theta_spec"] == SILVER


def test_plot_two_columns(tmp_path):
    records, _ = _records()
    path = emit(records, "plot", tmp_path / "t.dat", plot_fields=("log_N", "rho"))
    lines = path.read_text().splitlines()
    assert len(lines) == len(records)
    assert all(len(line.split()) == 2 for line in lines)


def test_emit_refuses_bad_input(tmp_path):
    records, _ = _records()
    target = tmp_path / "nothing.csv"
    with pytest.raises(EmitError):
        emit([], "csv", target)
    assert not target.exists()
    with pytest.raises(EmitError):
        emit(records, "tsv", tmp_path / "x.tsv")
    with pytest.raises(EmitError):
        emit(records, "csv", tmp_path / "no" / "such" / "dir" / "x.csv")
