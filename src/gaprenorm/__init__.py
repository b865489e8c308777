"""Renormalization toolkit for half-discrepancy sums of irrational rotations.

The package splits along the objects it manipulates: continued fractions and
the gap map (cf), the substitution system and its return matrices
(substitution), exact direct-orbit simulation (orbit), the transfer operator
and its invariant density (measure), and seeded experiment drivers
(experiments).  Everything decision-bearing runs in exact arithmetic;
floats appear only in reports and in the Ulam/series numerics.
"""

__version__ = "0.1.0"

# The README quick-start names and `levels`; everything else is imported
# from its submodule.
from .cf import cf_value, gap_trajectory, parse_theta_spec
from .measure import build_ulam, stationary_density
from .orbit import encode_orbit
from .substitution import levels, renorm_identity

__all__ = [
    "parse_theta_spec",
    "gap_trajectory",
    "renorm_identity",
    "encode_orbit",
    "cf_value",
    "build_ulam",
    "stationary_density",
    "levels",
]
