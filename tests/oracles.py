"""Test oracles for the gap map: the symbolic step on a whole expansion, its
slope, and cell membership by value.

The package walks the gap map as (head, offset) states over theta's
quotients (`gaprenorm.cf._walk`) and inverts its branches exactly
(`gap_map_value`); these build or read the objects themselves, so the
tests can check the walk against them.
"""

from gaprenorm.cf import (
    CellBoundaryError,
    CFExpansion,
    PartitionCell,
    _gap_exhausted,
    _gap_need,
    _gap_step,
    _level_expansion,
)
from gaprenorm.exact import ExactReal


def gap_map(cf: CFExpansion) -> CFExpansion:
    """One renormalization step of the first-return (gap) dynamics."""
    a1 = cf.head
    need = _gap_need(a1)
    if not cf.available(need):
        raise _gap_exhausted(a1)
    return _level_expansion(cf, *_gap_step(cf.quotients(need), a1, 1))


def contains(cell: PartitionCell, x: ExactReal) -> bool:
    """Whether x lies strictly inside the cell."""
    lo, hi = cell.endpoints
    return lo < x < hi


def gap_derivative(theta: ExactReal, cell: PartitionCell) -> ExactReal:
    """|g'(theta)| = 1/(a - c*theta)^2 on the given cell, exactly."""
    if not contains(cell, theta):
        raise CellBoundaryError(f"{theta} is not interior to {cell}")
    a, _, c, _ = cell.matrix
    den = a - c * theta
    return 1 / (den * den)
