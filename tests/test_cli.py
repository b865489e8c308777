import argparse
import hashlib
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gaprenorm import GaprenormError, experiments, measure
from gaprenorm.cf import parse_theta_spec
from gaprenorm.cli import build_parser, main
from gaprenorm.experiments import EmitError, tool_version
from gaprenorm.measure import ConvergenceError, UlamAssemblyError
from gaprenorm.orbit import EncodingSearchError
from gaprenorm.substitution import levels


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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_rho_prints_lengths_past_the_int_str_limit(capsys):
    # the length column at level 900 has 689 digits, past 640, the smallest
    # limit CPython allows; the CLI lifts the limit for its output
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "rho", "--theta", "cfper:[][2]", "--level", "900")
    finally:
        sys.set_int_max_str_digits(limit)
    length = levels(parse_theta_spec("cfper:[][2]"), 900).lengths[900][0]
    assert (code, err) == (0, "")
    assert len(str(length)) == 689
    assert out.splitlines()[-1].split()[-1] == str(length)


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


# sha256 of `matrix --theta cfper:[][2] --level 201`, table and --json, as
# printed by the float-only top eigenvalue: its discriminant still converts to
# a float at every one of these levels
MATRIX_201_SHA256 = {
    (): "95990a7387e56340a5305211bec31e86e58e489b352d900007d00ea9032a59b3",
    ("--json",): "a16a9bcc9b3e8a059ce0a366e7c46d622ff4db5d4ab0281601d240ff21b64f03",
}


@pytest.mark.parametrize("fmt", sorted(MATRIX_201_SHA256), ids=["table", "json"])
def test_matrix_prints_every_level_whose_eigenvalue_is_a_float(capsys, fmt):
    # past level 201 the discriminant leaves float range and the eigenvalue
    # comes from its exact root; past level 402 the eigenvalue itself does,
    # and the rows that fit print before the error
    code, out, _ = run(capsys, "matrix", "--theta", "cfper:[][2]", "--level", "201",
                       *fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MATRIX_201_SHA256[fmt]
    code, out_402, err = run(capsys, "matrix", "--theta", "cfper:[][2]", "--level",
                             "402", *fmt)
    assert (code, err) == (0, "")
    if fmt:
        rows = json.loads(out_402)["levels"]
        assert rows[:201] == json.loads(out)["levels"] and len(rows) == 402
        for row in rows[201:]:
            (a, _), (_, d) = row["product"]
            assert math.isclose(row["top_eigenvalue"], a + d, rel_tol=1e-15)
    else:
        assert out_402.startswith(out) and len(out_402.splitlines()) == 402
    code, out, err = run(capsys, "matrix", "--theta", "cfper:[][2]", "--level", "500",
                         *fmt)
    assert code == 1
    assert err == "error: top eigenvalue at level 403 exceeds float range\n"
    assert out == out_402


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


def test_trimmed_with_a_fixed_theta_runs_one_sample(capsys, tmp_path):
    # a fixed theta gives identical samples, so the 30-sample floor of a
    # sampled theta does not apply; one sample writes one row per checkpoint
    out = tmp_path / "trimmed.csv"
    code, _, err = run(capsys, "trimmed", "--theta", "cfper:[][2]", "--samples", "1",
                       "--depth", "200", "--out", str(out))
    assert code == 0, err
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert rows[0] == "sample_id,n,halfsum,halfmax,ratio"
    assert [row.split(",")[:2] for row in rows[1:]] == [
        ["0", "25"], ["0", "50"], ["0", "100"], ["0", "200"]]
    code, _, err = run(capsys, "trimmed", "--theta", "cfper:[][2]", "--samples", "0",
                       "--depth", "200")
    assert code == 1 and "sample" in err


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


# bad configurations and tolerances: each is a domain error, exit 1, no traceback
BAD_RUNS = [
    ("growth", "--depth", "0"),
    ("growth", "--depth", "5", "--epsilon", "nan"),
    ("growth", "--depth", "5", "--epsilon", "inf"),
    ("growth", "--depth", "10001"),
    ("limsup", "--samples", "0"),
    ("limsup", "--depth", "30001"),
    ("khinchin", "--samples", "0"),
    ("ulam", "--tol", "-1", "--bins", "64"),
    ("ulam", "--bins", "64", "--tol", "inf"),
    ("ulam", "--bins", "8194"),
    ("ulam", "--bins", "512", "--tol", "1e-300"),
    ("khinchin", "--n-max", "200000000", "--samples", "1"),
    ("khinchin", "--n-max", "50"),
    ("boundedpq", "--orbit-length", "100000000"),
    ("limsup", "--samples", "2", "--depth", "20", "--fmt", "plot", "--out",
     "x.dat", "--plot-fields", "nope,rho"),
    ("trimmed", "--depth", "200", "--checkpoints", "1"),
    ("trimmed", "--depth", "200", "--checkpoints", "0,25"),
    ("trimmed", "--depth", "200", "--checkpoints", "25,300"),
    ("verify", "--only", "x"),
    ("boundedpq", "--x0", "1/0"),
    ("boundedpq", "--x0", "abc"),
    ("word", "--theta", "cfper:[][2]", "--level", "9"),
    ("traj", "--theta", "rat:1/0"),
    ("traj", "--theta", "rat:0/0"),
    ("traj", "--theta", "dec:1/0", "--den-bound", "10"),
    ("traj", "--theta", "cf:[2,,3]"),
    ("traj", "--theta", "dec:1e-3", "--den-bound", "10"),
    ("traj", "--theta", "dec:0.999", "--den-bound", "10"),
]
# the message of a bad flag value names the flag and the value; that of a
# size past a budget names the size and the budget
BAD_VALUE_MESSAGES = {
    ("verify", "--only", "x"): "error: --only wants comma-separated integers, got 'x'",
    ("boundedpq", "--x0", "1/0"): "error: --x0 wants a fraction p/q, got '1/0'",
    ("boundedpq", "--x0", "abc"): "error: --x0 wants a fraction p/q, got 'abc'",
    ("limsup", "--depth", "30001"):
        "error: depth 30001 exceeds the budget of LIMSUP_DEPTH_MAX = 30000",
    ("word", "--theta", "cfper:[][2]", "--level", "9"):
        "error: expansion would have 6625109 letters (budget 100000)",
    ("boundedpq", "--orbit-length", "100000000"):
        "error: orbit length 100000000 exceeds the budget of 10000000",
    ("khinchin", "--n-max", "50"):
        "error: the default window (100, 50) needs n_max >= 100; pass --window",
    ("traj", "--theta", "rat:1/0"): "error: theta spec 'rat:1/0' has a zero denominator",
    ("traj", "--theta", "rat:0/0"): "error: theta spec 'rat:0/0' has a zero denominator",
    ("traj", "--theta", "dec:1/0", "--den-bound", "10"):
        "error: cannot read decimal '1/0'",
    ("traj", "--theta", "cf:[2,,3]"):
        "error: cannot read the quotients of theta spec 'cf:[2,,3]'",
    ("traj", "--theta", "dec:1e-3", "--den-bound", "10"):
        "error: decimal '1e-3' rounds to 0 at --den-bound 10; raise the bound",
    ("traj", "--theta", "dec:0.999", "--den-bound", "10"):
        "error: decimal '0.999' rounds to 1 at --den-bound 10; raise the bound",
}


@pytest.mark.parametrize("argv", BAD_RUNS, ids=" ".join)
def test_bad_input_exits_1(capsys, tmp_path, argv):
    argv = list(argv)
    out = None
    if "--out" in argv:
        i = argv.index("--out") + 1
        out = argv[i] = str(tmp_path / argv[i])
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    if tuple(argv) in BAD_VALUE_MESSAGES:
        assert err == BAD_VALUE_MESSAGES[tuple(argv)] + "\n"
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


# CLI lines run in a fresh process that then must not hold the named modules
# (comma-separated): the README's trimmed and limsup lines load neither
# numpy nor scipy
NOT_LOADED = """
import sys
from gaprenorm import cli
names, *lines = sys.argv[1:]
for line in lines:
    assert cli.main(line.split()) == 0, line
loaded = [name for name in names.split(",") if name in sys.modules]
assert not loaded, loaded
"""


def _run_leaving_out(cwd, lines, modules=("numpy", "scipy")):
    env = {**os.environ, "PYTHONPATH": str(Path(measure.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", NOT_LOADED, ",".join(modules), *lines],
                   check=True, env=env, cwd=cwd, stdout=subprocess.DEVNULL)


def test_trimmed_and_limsup_load_no_numpy(tmp_path):
    lines = [" ".join(argv) for argv in _readme_lines({"trimmed", "limsup"})]
    assert sorted(line.split()[0] for line in lines) == ["limsup", "trimmed"]
    _run_leaving_out(tmp_path, lines)


def test_khinchin_loads_no_numpy(tmp_path):
    # the exceedance Monte Carlo is an experiments driver: no numpy median
    _run_leaving_out(tmp_path, ["khinchin --samples 2 --n-max 200"])


def test_growth_loads_only_quadpacks_kernel(tmp_path):
    # F calls QUADPACK's compiled qagse; the scipy.integrate package, which
    # would load scipy.optimize, .sparse and .linalg, stays out
    lines = [" ".join(argv) for argv in _readme_lines({"growth"})]
    assert [line.split()[0] for line in lines] == ["growth"]
    _run_leaving_out(tmp_path, lines, ("scipy.integrate", "scipy.optimize",
                                      "scipy.sparse", "scipy.linalg"))


def test_word_takes_no_length_flag(capsys):
    # the word budget is expand_word's WORD_LEN_MAX; no flag raises it
    with pytest.raises(SystemExit) as exc:
        main(["word", "--theta", "cfper:[][2]", "--level", "2", "--max-len", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-len 5" in capsys.readouterr().err


def test_zero_sizes_still_run(capsys):
    # these ran before the configuration checks and must keep running
    for argv in (("limsup", "--depth", "0", "--samples", "2"),
                 ("khinchin", "--samples", "2", "--n-max", "200"),
                 ("boundedpq", "--orbit-length", "0")):
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


# the settings each experiment verb takes, one flag each: the ExperimentConfig
# fields its driver reads, and --theta/--den-bound for theta_spec
SETTINGS = {
    "khinchin": {"--samples", "--seed"},
    "growth": {"--theta", "--den-bound", "--depth", "--seed", "--k", "--epsilon"},
    "trimmed": {"--theta", "--den-bound", "--samples", "--depth", "--seed"},
    "boundedpq": {"--theta", "--den-bound", "--orbit-length"},
    "limsup": {"--theta", "--den-bound", "--samples", "--depth", "--seed"},
}
OTHER_FLAGS = {
    "khinchin": {"--family", "--n-max", "--window"},
    "trimmed": {"--checkpoints"},
    "boundedpq": {"--x0"},
}
CONFIG_FLAGS = {"--config", "--depth", "--orbit-length", "--samples", "--seed",
                "--k", "--epsilon"}


def test_experiment_verbs_take_only_the_settings_their_drivers_read():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for verb, settings in SETTINGS.items():
        options = {s for a in sub.choices[verb]._actions for s in a.option_strings}
        assert options == settings | OTHER_FLAGS.get(verb, set()) | {
            "-h", "--help", "--fmt", "--out", "--plot-fields"}, verb


@pytest.mark.parametrize("verb", sorted(SETTINGS))
def test_removed_settings_are_usage_errors(capsys, tmp_path, verb):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    for flag in sorted(CONFIG_FLAGS - SETTINGS[verb]):
        value = str(cfg) if flag == "--config" else "7"
        with pytest.raises(SystemExit) as exc:
            main([verb, flag, value])
        assert exc.value.code == 2, flag
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_trimmed_and_limsup_take_a_theta(capsys, tmp_path):
    for argv in (("trimmed", "--samples", "30", "--depth", "200"),
                 ("limsup", "--samples", "1")):
        out = tmp_path / f"{argv[0]}.csv"
        code, _, err = run(capsys, *argv, "--theta", "cfper:[][2]", "--out", str(out))
        assert code == 0, (argv, err)
        assert "# theta_spec: cfper:[][2]\n" in out.read_text()


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


_SWEEP_RNG = random.Random(2000)
_SWEEP_Q = _SWEEP_RNG.getrandbits(2000) | 1 << 1999
LEVEL_SWEEP_SPECS = ("cfper:[][2]", f"rat:{_SWEEP_RNG.randrange(1, _SWEEP_Q)}/{_SWEEP_Q}")


@pytest.mark.parametrize("n", [10, 100, 1000])
@pytest.mark.parametrize("spec", LEVEL_SWEEP_SPECS, ids=["silver", "rat-2000-bit"])
@pytest.mark.parametrize("verb", ["traj", "word", "rho", "matrix"])
def test_level_verbs_reach_log_spaced_sizes(verb, spec, n):
    # each run exits 0 or raises an error class of the package, which `main`
    # reports as exit 1; an error of Python's own (an OverflowError from a
    # float conversion, say) fails here
    args = build_parser().parse_args(
        [verb, "--theta", spec, "--depth" if verb == "traj" else "--level", str(n)])
    try:
        with redirect_stdout(io.StringIO()):
            assert args.fn(args) == 0
    except (ValueError, ArithmeticError, GaprenormError) as exc:
        assert type(exc).__module__.startswith("gaprenorm."), repr(exc)


# sizes up to each experiment verb's budget; the runs past a budget are in
# BAD_RUNS
EXPERIMENT_SWEEP = [
    *(("growth", "--depth", str(n)) for n in (10, 100, 1000)),
    *(("trimmed", "--theta", "cfper:[][2]", "--samples", "1", "--depth", str(n))
      for n in (200, 2000, 20000)),
    *(("limsup", "--samples", "1", "--depth", str(n)) for n in (10, 100, 1000, 10000)),
    *(("boundedpq", "--orbit-length", str(n)) for n in (10**3, 10**5, 10**6)),
    *(("ulam", "--bins", str(n)) for n in (2, 64, 512, 2048)),
]


@pytest.mark.parametrize("argv", EXPERIMENT_SWEEP, ids=" ".join)
def test_experiment_verbs_reach_log_spaced_sizes(argv):
    # as for the level verbs: exit 0, or an error class of the package
    args = build_parser().parse_args(list(argv))
    try:
        with redirect_stdout(io.StringIO()):
            assert args.fn(args) == 0
    except (ValueError, ArithmeticError, GaprenormError) as exc:
        assert type(exc).__module__.startswith("gaprenorm."), repr(exc)


@pytest.mark.parametrize("n_max", [10**3, 10**4, experiments.MAX_KHINCHIN_N])
def test_khinchin_reaches_log_spaced_sizes(capsys, tmp_path, n_max):
    # one sample at each size up to the budget exits 0 and writes one row
    assert experiments.MAX_KHINCHIN_N == 10**5
    target = tmp_path / "khinchin.csv"
    code, _, err = run(capsys, "khinchin", "--samples", "1", "--n-max", str(n_max),
                       "--out", str(target))
    assert code == 0, err
    rows = [line for line in target.read_text().splitlines()
            if not line.startswith("#")]
    assert rows[0] == "sample_id,count,last_index"
    assert len(rows) == 2 and rows[1].startswith("0,")


# the five experiment verbs at small sizes, in CSV and JSON, with a fixed
# version line: a change to how a verb reads its settings that moves a byte
# of an emitted file fails here
GOLDEN_RUNS = {
    "khinchin": ("khinchin", "--family", "linear", "--samples", "4", "--n-max",
                 "300", "--seed", "5", "--window", "10,300"),
    "growth": ("growth", "--theta", "cfper:[][2]", "--depth", "12", "--k", "2"),
    "growth-sampled": ("growth", "--depth", "20", "--seed", "1", "--k", "3",
                       "--epsilon", "0.5"),
    "trimmed": ("trimmed", "--samples", "30", "--depth", "200", "--seed", "2"),
    "boundedpq": ("boundedpq", "--orbit-length", "10000"),
    "limsup": ("limsup", "--samples", "4", "--depth", "30", "--seed", "1"),
}
GOLDEN_SHA256 = {
    "khinchin.csv": "017fe854ac6009b1b79d1bf91bb1aafa9a5a64b603829f3a85c668ab743b6cd0",
    "khinchin.json": "686519c326a3e41ae9476885325ee100861c449fbc8b189c274a51fa1e1fae0e",
    "growth.csv": "80f1c39b6f1d420a948e657187251a44e85e0361b1d28fe42dea6c5b59c45a48",
    "growth.json": "01a6537c293e13b2a3ed71a13fc8d854a749d1401d1cb82bf0d0bb6bc0e05db6",
    "growth-sampled.csv":
        "e1c1af99e3fa7a755329d5bf49cbfb8f83f6b5fc8d5a1eb948e8dcaa89082dc8",
    "growth-sampled.json":
        "bc078f9d1c560b0af122428285deaf6de7d416d2790b61ab8aafa86ddced3ce7",
    "trimmed.csv": "b07c23a8be7902358dd440932ddf8c280cca47699da55db77e74a8e60a3af07a",
    "trimmed.json": "f88f119563c3b64f67b16ba3511b4bedd57903a485f1abc58ad707e4b0747533",
    "boundedpq.csv": "ff2f267c82725cfc8914825297c00f680ab06163f32a92399c239f79e0dedf32",
    "boundedpq.json":
        "213907c2b7d3b5523956b8512e464fe1171cbf0e6fa10b56542c7e1030b43670",
    "limsup.csv": "efea1cbbc5db44a648038b7a45e1661d9d2ecddb89784a60e00449b1eb41aff5",
    "limsup.json": "94271ab40943f328588a0192a3c5872a6997a7611b105d5903b6b44024c4b2be",
}


def test_experiment_files_are_pinned(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(experiments, "tool_version", lambda: "golden")
    got = {}
    for name, argv in GOLDEN_RUNS.items():
        for fmt in ("csv", "json"):
            path = tmp_path / f"{name}.{fmt}"
            code, _, err = run(capsys, *argv, "--fmt", fmt, "--out", str(path))
            assert code == 0, (argv, err)
            got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == GOLDEN_SHA256
