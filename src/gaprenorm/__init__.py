"""Renormalization toolkit for half-discrepancy sums of irrational rotations.

The package splits along the objects it manipulates: continued fractions and
the gap map (cf), the substitution system and its return matrices
(substitution), exact direct-orbit simulation (orbit), the transfer operator
and its invariant density (measure), and seeded experiment drivers
(experiments).  Everything decision-bearing runs in exact arithmetic;
floats appear only in reports and in the Ulam/series numerics.

Importing the package loads no submodule: each exported name imports its
submodule on first access, so a caller that needs only `cf` never pays for
numpy or scipy.
"""

import importlib

__version__ = "0.1.0"


class GaprenormError(RuntimeError):
    """A computation the package cannot finish; the CLI reports it as exit 1."""


# The README quick-start names and `levels`, each with its submodule;
# everything else is imported from its submodule.
_EXPORTS = {
    "parse_theta_spec": "cf",
    "gap_trajectory": "cf",
    "renorm_identity": "substitution",
    "encode_orbit": "orbit",
    "cf_value": "cf",
    "build_ulam": "measure",
    "stationary_density": "measure",
    "levels": "substitution",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    # PEP 562; any other name raises, so `from gaprenorm import cf` falls
    # through to the submodule import
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted([*globals(), *_EXPORTS])
