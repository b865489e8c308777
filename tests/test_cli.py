import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gaprenorm import measure
from gaprenorm.cli import main
from gaprenorm.experiments import EmitError, tool_version
from gaprenorm.measure import ConvergenceError, UlamAssemblyError
from gaprenorm.orbit import EncodingSearchError


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_traj_json(capsys):
    code, out, _ = run(capsys, "traj", "--theta", "cfper:[][2]", "--depth", "4",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["levels"]) == 5
    assert doc["levels"][0]["cell"] == "Even(1,2)"
    assert doc["levels"][0]["a1"] == 2


def test_traj_table(capsys):
    code, out, _ = run(capsys, "traj", "--theta", "rat:5/17", "--depth", "2")
    assert code == 0
    assert "delta" in out


def test_traj_prints_levels_reached_before_exhaustion(capsys):
    # cf:[2,3,1,4] runs out of quotients after 2 steps; levels 0..2 print in
    # the usual formats, the last one on the endpoint 1/5 of Odd(2)
    code, out, err = run(capsys, "traj", "--theta", "cf:[2,3,1,4]", "--depth", "8")
    assert code == 1
    assert err == ("error: trajectory exhausted after 2 steps: gap map exhausted"
                   " the expansion (odd a1)\n")
    lines = out.splitlines()
    assert lines[0].split() == ["n", "theta_n", "a1", "E", "cell", "/", "delta"]
    assert [line.split()[0] for line in lines[1:]] == ["0", "1", "2"]
    assert lines[-1].endswith("endpoint   delta = 1/5")
    code, out, json_err = run(capsys, "traj", "--theta", "cf:[2,3,1,4]", "--depth",
                              "8", "--json")
    assert code == 1 and json_err == err
    doc = json.loads(out)
    assert [(row["n"], row["cell"], row["delta"]) for row in doc["levels"]] == [
        (0, "Even(1,3)", "5/43"), (1, "Half", "1"), (2, "endpoint", "1/5")]
    # reaching level 2 without running out prints the same table, then the
    # endpoint error
    code, depth_2_out, err = run(capsys, "traj", "--theta", "cf:[2,3,1,4]",
                                 "--depth", "2")
    assert code == 1 and depth_2_out == "\n".join(lines) + "\n"
    assert err == "error: 1/5 sits on the boundary of Odd(2)\n"
    code, out, _ = run(capsys, "traj", "--theta", "cf:[2,3,1,4]", "--depth", "2",
                       "--json")
    assert code == 1 and json.loads(out) == doc


def test_word(capsys):
    code, out, _ = run(capsys, "word", "--theta", "cfper:[][2]", "--level", "1")
    assert code == 0
    assert out.strip() == "AACAC"


def test_rho_json(capsys):
    code, out, _ = run(capsys, "rho", "--theta", "cfper:[][2]", "--level", "6",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert [row["n"] for row in doc["levels"]] == [1, 2, 3, 4, 5, 6]
    for row in doc["levels"]:
        assert row["rho"] == row["halfsum"] + row["xi"]


def test_rho_prints_levels_reached_before_exhaustion(capsys):
    # rat:89/233 runs out of quotients after 6 steps: --level 20 prints the
    # rows of --level 6, then the exhaustion, in both formats
    for fmt in ((), ("--json",)):
        code, out, err = run(capsys, "rho", "--theta", "rat:89/233", "--level", "20",
                             *fmt)
        assert code == 1
        assert err == ("error: trajectory exhausted after 6 steps: gap map exhausted"
                       " the expansion (odd a1)\n")
        code, level_6_out, _ = run(capsys, "rho", "--theta", "rat:89/233", "--level",
                                   "6", *fmt)
        assert code == 0 and out == level_6_out


def test_matrix_prints_levels_reached_before_exhaustion(capsys):
    # as rho: --level 20 on rat:89/233 prints the rows of --level 6, then the
    # exhaustion, in both formats
    for fmt in ((), ("--json",)):
        code, out, err = run(capsys, "matrix", "--theta", "rat:89/233", "--level",
                             "20", *fmt)
        assert code == 1
        assert err == ("error: trajectory exhausted after 6 steps: gap map exhausted"
                       " the expansion (odd a1)\n")
        code, level_6_out, _ = run(capsys, "matrix", "--theta", "rat:89/233",
                                   "--level", "6", *fmt)
        assert code == 0 and out == level_6_out
        assert len(json.loads(out)["levels"] if fmt else out.splitlines()) == 6


def test_matrix_json(capsys):
    code, out, _ = run(capsys, "matrix", "--theta", "cfper:[][2]", "--level", "3",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"][0]["step"] == [[3, 2], [4, 3]]
    assert doc["levels"][0]["lengths"] == [5, 7]


def test_ulam_json(capsys, tmp_path):
    out_path = tmp_path / "density.json"
    code, out, _ = run(capsys, "ulam", "--bins", "64", "--json",
                       "--out", str(out_path))
    assert code == 0
    tail = out[out.index("{"):]
    doc = json.loads(tail)
    assert doc["bins"] == 64
    assert doc["residual"] <= 1e-10
    saved = json.loads(out_path.read_text())
    assert len(saved["values"]) == 64


def test_khinchin_csv(capsys, tmp_path):
    target = tmp_path / "counts.csv"
    args = ("khinchin", "--family", "linear", "--samples", "8", "--n-max", "400",
            "--seed", "5", "--fmt", "csv", "--out", str(target))
    code, out, _ = run(capsys, *args)
    assert code == 0
    first = target.read_bytes()
    code, out, _ = run(capsys, *args)
    assert target.read_bytes() == first  # byte-identical rerun
    assert "median exceedances" in out


def test_growth_summary(capsys):
    code, out, _ = run(capsys, "growth", "--theta", "cfper:[][2]", "--depth", "12",
                       "--seed", "0")
    assert code == 0
    assert "depth 12" in out


def test_trimmed_rejects_small_runs(capsys):
    code, _, err = run(capsys, "trimmed", "--samples", "5", "--depth", "200")
    assert code == 1
    assert "samples" in err


def test_boundedpq_plot(capsys, tmp_path):
    target = tmp_path / "pq.dat"
    code, out, _ = run(capsys, "boundedpq", "--orbit-length", "10000",
                       "--fmt", "plot", "--out", str(target),
                       "--plot-fields", "log_N,rho")
    assert code == 0
    lines = target.read_text().splitlines()
    assert len(lines) == 2 and all(len(l.split()) == 2 for l in lines)


def test_limsup_summary(capsys):
    code, out, _ = run(capsys, "limsup", "--samples", "4", "--depth", "30",
                       "--seed", "1")
    assert code == 0
    assert "still climbing" in out


def test_verify_single_criterion(capsys):
    code, out, _ = run(capsys, "verify", "--only", "2")
    assert code == 0
    assert out.startswith("PASS")
    assert "length-cocycle" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--only", "6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["criterion"] == 6 and doc[0]["passed"] is True


def test_verify_unknown_criterion(capsys):
    # a typo'd number must not produce a vacuous all-green exit
    code, _, err = run(capsys, "verify", "--only", "99")
    assert code == 1
    assert "99" in err


def test_dec_requires_bound(capsys):
    code, _, err = run(capsys, "traj", "--theta", "dec:0.414")
    assert code == 1
    assert "den-bound" in err


def test_dec_conversion(capsys):
    code, out, _ = run(capsys, "traj", "--theta", "dec:0.4142135", "--den-bound",
                       "100", "--depth", "1")
    assert code == 0
    assert "Even(1,2)" in out  # 29/70 sits in the silver cell


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 4, "depth": 30, "seed": 1}))
    code, out, _ = run(capsys, "limsup", "--config", str(cfg))
    assert code == 0
    assert "4 samples at depth 30" in out


def test_config_rejects_unknown_field(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run(capsys, "limsup", "--config", str(cfg))
    assert code == 1
    assert "bogus" in err


# bad configurations and tolerances: each is a domain error, exit 1, no traceback
BAD_RUNS = [
    ("growth", "--depth", "0"),
    ("growth", "--depth", "5", "--epsilon", "nan"),
    ("growth", "--depth", "5", "--epsilon", "inf"),
    ("limsup", "--config", {"depth": "x"}),
    ("limsup", "--config", {"samples": 2.5}),
    ("growth", "--config", {"theta_spec": 5}),
    ("limsup", "--config", 5),
    ("limsup", "--samples", "0"),
    ("khinchin", "--samples", "0"),
    ("ulam", "--tol", "-1", "--bins", "64"),
    ("ulam", "--bins", "8194"),
    ("khinchin", "--n-max", "200000000", "--samples", "1"),
    ("boundedpq", "--orbit-length", "100000000"),
    ("limsup", "--samples", "2", "--depth", "20", "--fmt", "plot", "--out",
     "x.dat", "--plot-fields", "nope,rho"),
    ("trimmed", "--depth", "200", "--checkpoints", "1"),
    ("trimmed", "--depth", "200", "--checkpoints", "0,25"),
    ("trimmed", "--depth", "200", "--checkpoints", "25,300"),
]


@pytest.mark.parametrize("argv", BAD_RUNS, ids=lambda a: " ".join(map(str, a)))
def test_bad_input_exits_1(capsys, tmp_path, argv):
    cfg = tmp_path / "cfg.json"
    argv = [json.dumps(a) if not isinstance(a, str) else a for a in argv]
    if "--config" in argv:
        i = argv.index("--config") + 1
        cfg.write_text(argv[i])
        argv[i] = str(cfg)
    out = None
    if "--out" in argv:
        i = argv.index("--out") + 1
        out = argv[i] = str(tmp_path / argv[i])
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    if out is not None:
        assert not Path(out).exists()  # nothing is written


@pytest.mark.parametrize("error", [ConvergenceError, UlamAssemblyError,
                                   EncodingSearchError, EmitError])
def test_package_runtime_errors_exit_1(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("no result")

    # the verb imports build_ulam when it runs, so it finds the patched one
    monkeypatch.setattr(measure, "build_ulam", fail)
    code, _, err = run(capsys, "ulam", "--bins", "8")
    assert (code, err) == (1, "error: no result\n")


def test_emit_error_exits_1_in_a_fresh_process(tmp_path):
    # EmitError's module is loaded only by the verb that raises it
    env = {**os.environ, "PYTHONPATH": str(Path(measure.__file__).parents[1])}
    out = tmp_path / "missing" / "limsup.csv"
    done = subprocess.run(
        [sys.executable, "-m", "gaprenorm.cli", "limsup", "--samples", "2",
         "--depth", "20", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert done.returncode == 1 and "Traceback" not in done.stderr
    assert done.stderr.startswith("error: cannot write")


def test_zero_sizes_still_run(capsys):
    # these ran before the configuration checks and must keep running
    for argv in (("limsup", "--depth", "0", "--samples", "2"),
                 ("khinchin", "--depth", "0", "--samples", "2", "--n-max", "200"),
                 ("boundedpq", "--orbit-length", "0")):
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_bad_verb_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_version_and_family_are_checked_when_parsed(capsys):
    # both read their module only when the flag is parsed
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0 and capsys.readouterr().out == tool_version() + "\n"
    with pytest.raises(SystemExit) as exc:
        main(["khinchin", "--family", "cubic"])
    assert exc.value.code == 2
    assert "invalid choice: 'cubic' (choose from 'iterated_log_squared'" in (
        capsys.readouterr().err)


def _readme_lines(verbs):
    """The README's command-line examples for the given verbs, as argv lists."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = []
    for line in readme.read_text().splitlines():
        words = line.split()
        if words[:1] == ["gaprenorm"] and words[1] in verbs:
            lines.append(shlex.split(line, comments=True)[1:])
    return lines


def test_readme_level_examples_run(capsys):
    examples = _readme_lines({"traj", "word", "rho", "matrix"})
    assert sorted(argv[0] for argv in examples) == ["matrix", "rho", "traj", "word"]
    for argv in examples:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


# --theta specs: well-formed rat:/cf:/cfper: specs with periods of up to 64
# quotients <= 1000, the same with zero or negative entries, and arbitrary text
QUOTIENTS = st.lists(st.integers(-2, 1000), max_size=64)


def _spec(kind, pre, per):
    return f"{kind}:[{','.join(map(str, pre))}]" + (
        f"[{','.join(map(str, per))}]" if kind == "cfper" else "")


THETA_SPECS = st.one_of(
    st.builds("rat:{}/{}".format, st.integers(-9, 10**30), st.integers(-9, 10**30)),
    st.builds(_spec, st.just("cf"), QUOTIENTS, st.just([])),
    st.builds(_spec, st.just("cfper"), st.lists(st.integers(-2, 1000), max_size=4),
              QUOTIENTS),
    st.text(alphabet="cfperatd:[]/,;.0123456789- ", max_size=40),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(THETA_SPECS)
def test_fuzzed_theta_specs_exit_cleanly(spec):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["traj", "--theta", spec, "--depth", "4"])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue() and "Traceback" not in err.getvalue()
