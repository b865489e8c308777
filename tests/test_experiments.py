import hashlib
import json
import math
import subprocess

import pytest

from gaprenorm import cf, experiments
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
    """Same record type and fields, then equal values; two nans are equal."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert type(x) is type(y)
        assert x._fields == y._fields
        for va, vb in zip(x, y):
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

    records, _ = _records()
    monkeypatch.setattr(subprocess, "run", fake_run)
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


def test_config_meta(tmp_path):
    cfg = ExperimentConfig(seed=3, depth=40)
    meta = cfg.to_meta()
    assert meta["seed"] == 3 and meta["depth"] == 40
    assert "theta_spec" not in meta  # None fields stay out of the echo
    assert "version" not in meta  # the config only; emit stamps the version
    meta2 = ExperimentConfig(theta_spec=SILVER).to_meta()
    assert meta2["theta_spec"] == SILVER
    records, _ = _records()
    emit(records, "csv", tmp_path / "a.csv", meta=meta)
    assert f"# version: {tool_version()}\n" in (tmp_path / "a.csv").read_text()
    emit(records, "json", tmp_path / "a.json", meta=meta)
    payload = json.loads((tmp_path / "a.json").read_text())
    assert payload["meta"]["version"] == tool_version()


@pytest.mark.parametrize("fields", [{"depth": "x"}, {"samples": 2.5},
                                    {"theta_spec": 5}], ids=str)
def test_config_rejects_wrong_types(fields):
    (name, value), = fields.items()
    with pytest.raises(ValueError, match=f"field {name} must be .*, got {value!r}"):
        ExperimentConfig(**fields)


# ---------------------------------------------------------------------------
# the threshold family


def test_family_validation():
    with pytest.raises(ValueError):
        IteratedLogFamily(0)
    with pytest.raises(ValueError):
        IteratedLogFamily(2, epsilon=-0.1)
    with pytest.raises(ValueError):
        IteratedLogFamily(1, epsilon=0.5)  # k = 1 has no log factor to bump
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            IteratedLogFamily(2, epsilon=eps)
    IteratedLogFamily(4)  # cutoff exp(exp(e)), about 3.8e6
    with pytest.raises(ValueError, match=r"k = 5: the cutoff overflows a float "
                       r"at exp\(3\.81428e\+06\); use k <= 4"):
        IteratedLogFamily(5)


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


# F(t).hex() for t = 3, 50, 100, 1024: the bits of one quad call each
F_TS = (3.0, 50.0, 100.0, 1024.0)
F_PINNED = {
    (2, 0.0): ["0x1.b1674de6a5c04p-1", "0x1.0a72e764f3e93p+12",
               "0x1.40b003c0ffcf5p+14", "0x1.9b9d2d245a327p+21"],
    (3, 0.0): ["0x0.0p+0", "0x1.3d4670c91f38cp+12",
               "0x1.c44bdad5f9fa3p+14", "0x1.7fb2a46e874e8p+22"],
    (2, 1.0): ["0x1.c7cefaa3b0ac2p-1", "0x1.d0783b562968ep+13",
               "0x1.4e06439686b24p+16", "0x1.4ce91da38ad1cp+24"],
    (1, 0.0): ["0x1.ffffffffff732p+1", "0x1.385fffffffffcp+10",
               "0x1.3877fffffffffp+12", "0x1.ffffdffffffffp+18"],
    (3, 0.5): ["0x0.0p+0", "0x1.6594bc740ff1bp+12",
               "0x1.0eb96826fecafp+15", "0x1.06220d324c5f7p+23"],
}


def test_family_integral_memo_keeps_bits():
    experiments._integral.cache_clear()
    for _ in ("cold", "warm"):
        got = {
            key: [IteratedLogFamily(*key).F(t).hex() for t in F_TS]
            for key in F_PINNED
        }
        assert got == F_PINNED


def test_family_integral_cached_by_family_and_t():
    experiments._integral.cache_clear()
    IteratedLogFamily(2, 0).F(50.0)
    IteratedLogFamily(2, 0).F(50.0)  # the same (family, t) is a hit
    IteratedLogFamily(2, 0.0).F(50.0)  # an equal family shares the entry
    info = experiments._integral.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 1, 1)


def loop_f(family, x):
    """f as one loop over the k - 1 logs per call: the integrand's oracle."""
    val = x
    t = x
    for j in range(1, family.k):
        t = math.log(t)
        val *= t ** (1.0 + family.epsilon) if j == family.k - 1 else t
    return val


@pytest.mark.parametrize("k, epsilon", [(1, 0.0)] + [
    (k, eps) for k in (2, 3, 4) for eps in (0.0, 0.1, 0.5, 1.0)])
def test_integrand_matches_the_loop_bit_for_bit(k, epsilon):
    family = IteratedLogFamily(k, epsilon)
    integrand = experiments._integrand(k, epsilon)
    assert experiments._integrand(k, epsilon) is integrand  # built once
    cut = family.cutoff
    # a log grid from just above the cutoff up to 1e300, 8 points per octave
    octaves = math.log2(1e300 / cut)
    grid = [math.nextafter(cut, math.inf), cut * (1 + 1e-12)]
    grid += [cut * 2 ** (j / 8) for j in range(1, int(8 * octaves))]
    for x in grid:
        want = loop_f(family, x).hex()
        assert integrand(x).hex() == want, x
        assert family.f(x).hex() == want, x
    for x in (cut, cut / 2):
        with pytest.raises(ValueError, match="f undefined"):
            family.f(x)


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


def test_growth_same_with_cold_and_warm_integral_cache():
    cfg = ExperimentConfig(depth=40, seed=5, k=3, epsilon=0.5)
    experiments._integral.cache_clear()
    cold = run_growth_experiment(cfg, IteratedLogFamily(cfg.k, cfg.epsilon))
    assert experiments._integral.cache_info().misses == 40 - 15  # n > e**e
    warm = run_growth_experiment(cfg, IteratedLogFamily(cfg.k, cfg.epsilon))
    assert experiments._integral.cache_info().hits == 40 - 15
    assert_same_records(warm, cold)


def test_growth_sampled_theta_deterministic():
    cfg = ExperimentConfig(depth=15, seed=9)
    a = run_growth_experiment(cfg, IteratedLogFamily(2))
    b = run_growth_experiment(cfg, IteratedLogFamily(2))
    assert_same_records(a, b)
    assert len(a) == 15


def test_growth_refuses_depth_over_budget(monkeypatch):
    # refused before theta is parsed or drawn; the length column of a run
    # grows with depth^2 (31 MB of file at the budget)
    assert experiments.GROWTH_DEPTH_MAX == 10_000

    def no_draw(*args):
        raise AssertionError("drew a theta")

    monkeypatch.setattr(experiments, "_levels_for", no_draw)
    for spec in (None, SILVER):
        cfg = ExperimentConfig(theta_spec=spec, depth=experiments.GROWTH_DEPTH_MAX + 1)
        with pytest.raises(ValueError, match="GROWTH_DEPTH_MAX = 10000"):
            run_growth_experiment(cfg, IteratedLogFamily(2))


def test_limsup_refuses_depth_over_budget(monkeypatch):
    # refused before theta is parsed or drawn; the run keeps every level's
    # stats, so its memory grows with depth^2 (about 220 MB at the budget)
    assert experiments.LIMSUP_DEPTH_MAX == 30_000

    def no_draw(*args):
        raise AssertionError("drew a theta")

    monkeypatch.setattr(experiments, "_levels_for", no_draw)
    for spec in (None, SILVER):
        cfg = ExperimentConfig(theta_spec=spec, depth=experiments.LIMSUP_DEPTH_MAX + 1)
        with pytest.raises(ValueError, match="LIMSUP_DEPTH_MAX = 30000"):
            run_limsup_probe(cfg)


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
    for fmt in ("plot", "csv"):
        with pytest.raises(EmitError, match="unknown plot field 'nope'"):
            emit(records, fmt, target, plot_fields=("log_N", "nope"))
        assert not target.exists()


def _pinned_tables():
    """One table per record type, each with the two plot fields to pin."""
    silver = ExperimentConfig(theta_spec=SILVER, depth=20)
    deep = ExperimentConfig(depth=120, seed=5, k=3, epsilon=0.5)  # ints to 211 bits
    yield "growth-k2", run_growth_experiment(silver, IteratedLogFamily(2)), ("n", "F_of_n")
    yield ("growth-k3", run_growth_experiment(deep, IteratedLogFamily(3, 0.5)),
           ("log_len", "f_of_n"))
    # sample 9 climbs in the final third: both bools appear
    limsup, _ = run_limsup_probe(ExperimentConfig(samples=12, depth=9, seed=1))
    yield "limsup", limsup, ("best_n", "increased_final_third")
    trimmed, _ = run_trimmed_sums(ExperimentConfig(samples=30, depth=200, seed=2),
                                  checkpoints=(50, 200))
    yield "trimmed", trimmed, ("n", "ratio")
    yield "boundedpq", _records()[0], ("log_N", "rho")
    khinchin = experiments.khinchin_experiment("linear", samples=3, n_max=300, rng_seed=3)
    yield "khinchin", khinchin.records, ("count", "last_index")


# sha256 of each emitted file, taken when the records were frozen dataclasses
# and emit read every cell with getattr
EMIT_SHA256 = {
    "growth-k2.csv": "ec1bf7080e828b8750926bdc3d4d6f30bcd75e157149648319aeebfb6c70a40a",
    "growth-k2.json": "58ad1163fd81586b774399a37cb1cdcbeb08d18779bcaf9eaa82d29f815c7173",
    "growth-k2.plot": "5c6ea66689a9d3a5c818bc93deb39ef5c1224eea5d843ea5a8cc321725b63539",
    "growth-k2.plot-fields": "e5a5301e61e62ebb3ee0f2d6d9316a856c9270721768faac48c78cce8432fa47",
    "growth-k3.csv": "64ed2bb97759fc0584b48a6e7fbcd5c239c653fff834e945f3aea4b7a5a9a8a3",
    "growth-k3.json": "035f007d85666d1bdaacd17c597c2eff1aa1076186b75c75bb9352db56492521",
    "growth-k3.plot": "e378cde9d0d924dd2f45efed99d7944d11e1e9c49805650d7ef36e8a40d16381",
    "growth-k3.plot-fields": "8eeb1e79f693d4e566d0f07535423ebcd6e8d17a269121aed59e2353d187a6f9",
    "limsup.csv": "f99433364cdbdc1467f78bc45b6d3123bb4990dabd17c765b66c9009ae77a49e",
    "limsup.json": "2cee9aa56685641a48ca29995f4acc5c7374b257811ebdaa51fe3c2b41771d76",
    "limsup.plot": "0f8124cbef73f37800bb856883df496aaca9df21dd51aed69492c01e7c0eda59",
    "limsup.plot-fields": "200bd6fcffebf3040620a43526d2f5c87b1509391aa8f6e149e7f2fe60964119",
    "trimmed.csv": "24fb3cc71733d6a01351ee488ce694b5a30dbcdb22c171aaff60cf67da179a8c",
    "trimmed.json": "de4888d547c195499811cbf85f49dc534f5889f9fa60454f025a58d73cf09524",
    "trimmed.plot": "cfd54c10dec3307c5cc27f7c3dd22a62f4890d699a10ba3cf6df751d000697b8",
    "trimmed.plot-fields": "753a8c18d152b9d5ec6cbba56e3405d0bf65819d17cce9fc2cc1cfffaf5029e2",
    "boundedpq.csv": "e663334add793d000a1867a0bd40ccc0efdde598044babc67665cb6b800e0e50",
    "boundedpq.json": "1abbe3856afff1a4cfb47be0a98f39eea59c065e7d2fb1d6b6c53dfd79f60d75",
    "boundedpq.plot": "0ab7e2cca2bc92a041fdc6f43c1c01c86f7c4646218a6efdd3879014853ca2ea",
    "boundedpq.plot-fields": "5a35437861a04420483f227969e1905ebc865afc6a2dd3f57bbb43f4ed9ff9b3",
    "khinchin.csv": "904deaa545e76254d27d48e37f22dd8de9512a51a4f0ab1fb5a616cec68ca40b",
    "khinchin.json": "070dc06c7c2fe492de7f1955d4185dd76968c5c94108e3ae3a76549c385ebbaf",
    "khinchin.plot": "608f8a13a4128c73afffdecd0c640f38b6fee7ec1b38847833af2a623650b15f",
    "khinchin.plot-fields": "0310f74884b11602eeb054ae7e71ce1787041ec6293bd345bf8d38b7adc3d9ef",
}


def test_emit_bytes_are_pinned(tmp_path):
    got = {}
    for name, records, fields in _pinned_tables():
        for fmt, pair in (("csv", None), ("json", None), ("plot", None), ("plot", fields)):
            key = f"{name}.{fmt}" + ("-fields" if pair else "")
            path = emit(records, fmt, tmp_path / key, meta={"seed": 1, "version": "pinned"},
                        plot_fields=pair)
            got[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == EMIT_SHA256


# sha256 of repr(records) for driver runs made before the drivers read the
# trajectory's states instead of its steps
DRIVER_RUNS = {
    "growth-sampled": (
        lambda: run_growth_experiment(ExperimentConfig(samples=1, depth=300, seed=4),
                                      IteratedLogFamily(2)),
        "8deca2e907a1cd7078af074d2fe45b12d22e0463c7cf14bb24b4d4f43092a7f5"),
    "growth-periodic": (
        lambda: run_growth_experiment(
            ExperimentConfig(theta_spec="cfper:[1][3,7,2]", depth=60),
            IteratedLogFamily(3, 0.5)),
        "aec6e3d363c9e052eccb00ea15d4b46fc15041709b50e854c71d858650df934c"),
    "limsup": (
        lambda: run_limsup_probe(ExperimentConfig(samples=3, depth=400, seed=7)),
        "ef1d8cd44c59c55de2f6bcac19ce678155c40b805111a508049d64adf6799ee8"),
    "trimmed": (
        lambda: run_trimmed_sums(ExperimentConfig(samples=30, depth=200, seed=3)),
        "730bb73309512b0e523c2c938456a9d101808740d6f38ba27df4fb61a804fb4f"),
    "trimmed-periodic": (
        lambda: run_trimmed_sums(
            ExperimentConfig(theta_spec="cfper:[][2,5]", samples=1, depth=250)),
        "536e65b45ff99f8d09c6856fa989f619bc135296eab27009b238e961eac12eed"),
}


@pytest.mark.parametrize("name", sorted(DRIVER_RUNS))
def test_drivers_build_no_trajectory_step(name, monkeypatch):
    # the growth, limsup and trimmed drivers read every level from the
    # trajectory's states; a step view built anywhere on their path fails
    def refuse(self, *args):
        raise AssertionError("a TrajectoryStep was built")

    monkeypatch.setattr(cf.TrajectoryStep, "__init__", refuse)
    run, digest = DRIVER_RUNS[name]
    assert hashlib.sha256(repr(run()).encode()).hexdigest() == digest
