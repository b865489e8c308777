"""The package names the benchmark under benchmarks/ reaches into.

The benchmark traces calls by swapping module attributes, and captures the
experiment drivers' own level computations through their module bindings.
Renaming one of these, or moving a driver off its binding, breaks the
benchmark while the package's other tests stay green.
"""

import ast
import importlib
from pathlib import Path

import gaprenorm.experiments
from gaprenorm.experiments import ExperimentConfig, IteratedLogFamily

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _traced() -> dict:
    """benchmarks/spans.py:TRACED, read from the source without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError("TRACED not found in benchmarks/spans.py")


def test_traced_names_exist():
    for module, names in _traced().items():
        mod = importlib.import_module(f"gaprenorm.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"gaprenorm.{module}.{name}"


def test_driver_bindings_exist():
    # benchmarks/workloads.py shims these bindings to capture one call each
    # from run_limsup_probe and run_growth_experiment
    for name in ("gap_trajectory", "stats_by_level", "lengths_by_level"):
        assert callable(getattr(gaprenorm.experiments, name, None)), name


def _count_driver_calls(monkeypatch) -> dict:
    """Shim the bindings as the benchmark does, counting the calls."""
    calls = dict.fromkeys(("gap_trajectory", "stats_by_level", "lengths_by_level"), 0)
    for name in calls:
        fn = getattr(gaprenorm.experiments, name)

        def shim(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(gaprenorm.experiments, name, shim)
    return calls


def test_drivers_make_one_call_per_binding(monkeypatch):
    # the deep-rational checks expect exactly one captured result of each
    # binding per item; a driver reading Levels.stats or Levels.lengths
    # would skip the binding and fail them
    calls = _count_driver_calls(monkeypatch)
    gaprenorm.experiments.run_limsup_probe(ExperimentConfig(samples=1, depth=40, seed=3))
    assert calls == {"gap_trajectory": 1, "stats_by_level": 1, "lengths_by_level": 0}
    calls.update(dict.fromkeys(calls, 0))
    gaprenorm.experiments.run_growth_experiment(ExperimentConfig(depth=40, seed=3),
                                                IteratedLogFamily(2))
    assert calls == {"gap_trajectory": 1, "stats_by_level": 1, "lengths_by_level": 1}


def test_integral_cache_is_cleared_per_pass():
    # benchmarks/workloads.py:clear_package_caches calls cache_clear on each
    # module attribute that has one, so every pass starts with an empty F memo
    assert callable(getattr(gaprenorm.experiments._integral, "cache_clear", None))
