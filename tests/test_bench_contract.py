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


def test_integral_cache_is_cleared_per_pass():
    # benchmarks/workloads.py:clear_package_caches calls cache_clear on each
    # module attribute that has one, so every pass starts with an empty F memo
    assert callable(getattr(gaprenorm.experiments._integral, "cache_clear", None))
