"""Continued fractions and the gap-map renormalization of circle rotations.

An expansion [a1, a2, ...] always denotes a value in (0, 1); the integer
part is omitted.  Finite expansions are rationals, eventually periodic ones
are quadratic irrationals.  The canonical finite form never ends in a 1.

The gap map g sends a rotation number to the rotation number of the induced
first-return system and acts on expansions symbolically:

    a1 = 1        ->  [a2 + 1, a3, ...]          (value 1 - theta)
    a1 = 2k + 1   ->  [1, a2, a3, ...]           (value theta / (1 - 2k*theta))
    a1 = 2k       ->  [a3, a4, ...]              (two Gauss steps)

Rationals eventually exhaust their expansion under g; that degeneracy is a
hard error here, never a silent fallback.  `rational_to_cf` expands a wide
rational by Lehmer's algorithm, a word of quotients at a time, and a
narrow one by plain Euclid; the quotients are the same.

A gap trajectory holds each level as a state (a1, offset): the level's
expansion is [a1, q[offset], q[offset + 1], ...] over the quotients q of
theta_0, and its exact value depends on that state alone.  One kernel,
`_walk`, steps the states with `_gap_step` for `gap_trajectory` and
`leading_quotients`, checking offsets against the end of q.  The
trajectory keeps the states, theta_0's value (`theta_value`) and one
cached chain of level values; its steps, views that point back at it, are
built from the states on first read.  For a periodic theta_0 the
offsets are kept modulo the period, so a long enough walk re-enters a state
it has seen; the chain runs up to the first repeated state and the later
values are read off the cycle.  A rational theta_0 never repeats a state:
its offsets never decrease, and two levels share an offset only across an
odd head and the head 1 it maps to.  A delta product needs no level value:
by the chain rule it is |a - c*theta_0|, read off the product of the
levels' branch matrices (see `PartitionCell`).  The arithmetic is exact and
its results canonical, so both give the same numbers, digit for digit, as
the plain chain and product over every level.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .exact import ExactReal, Surd, mobius, squarefree_split


class ExpansionExhaustedError(ValueError):
    """A finite expansion ran out of quotients mid-operation."""

    def __init__(self, message: str, steps_completed: Optional[int] = None):
        super().__init__(message)
        self.steps_completed = steps_completed


class CellBoundaryError(ValueError):
    """A value landed exactly on a partition-cell endpoint."""


@dataclass(frozen=True)
class CFExpansion:
    """A continued-fraction expansion, finite or eventually periodic.

    `preperiod` holds the leading quotients, `period` the repeating block
    (empty for rationals).  Quotients are 1-indexed in the accessors to
    match the usual a1, a2, ... convention.

    Direct construction takes canonical quotients as given: integers >= 1,
    not empty, and a finite expansion neither [1] nor ending in 1.  Raw input
    is validated once, by `cf_normalize` (`parse_theta_spec`, `sample_theta`);
    `rational_to_cf` takes Euclid's quotients, which are canonical, and
    `_level_expansion` derives valid expansions from valid ones; neither
    checks again.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...] = ()

    @property
    def is_finite(self) -> bool:
        return not self.period

    def available(self, count: int) -> bool:
        """Whether at least `count` quotients exist."""
        return bool(self.period) or len(self.preperiod) >= count

    def quotient(self, i: int) -> int:
        """The i-th quotient a_i (1-indexed)."""
        if i < 1:
            raise ValueError("quotient index is 1-based")
        if i <= len(self.preperiod):
            return self.preperiod[i - 1]
        if not self.period:
            raise ExpansionExhaustedError(
                f"expansion has only {len(self.preperiod)} quotients, wanted a_{i}"
            )
        return self.period[(i - 1 - len(self.preperiod)) % len(self.period)]

    @property
    def head(self) -> int:
        return self.quotient(1)

    def quotients(self, count: int) -> list[int]:
        return [self.quotient(i) for i in range(1, count + 1)]

    def __str__(self):
        return format_theta_spec(self)


def cf_normalize(quotients: Iterable[int], period: Iterable[int] = ()) -> CFExpansion:
    """Validate raw quotients and put them in canonical form.

    Finite tails [..., a, 1] fold into [..., a + 1]; a repeating block is
    reduced to its primitive cycle and absorbed leading repetitions are
    rotated out of the preperiod.
    """
    pre = list(quotients)
    per = list(period)
    for a in pre + per:
        if isinstance(a, bool) or not isinstance(a, int) or a < 1:
            raise ValueError(f"quotients must be integers >= 1, got {a!r}")
    if per:
        # reduce to the primitive repeating block
        for div in range(1, len(per) + 1):
            if len(per) % div == 0 and per[:div] * (len(per) // div) == per:
                per = per[:div]
                break
        # absorb preperiod entries that merely repeat the cycle
        while pre and pre[-1] == per[-1]:
            pre.pop()
            per = per[-1:] + per[:-1]
        return CFExpansion(tuple(pre), tuple(per))
    if not pre:
        raise ValueError("empty expansion")
    if pre == [1]:
        raise ValueError("[1] denotes 1, which is outside (0, 1)")
    if pre[-1] == 1:
        pre[-2] += 1
        pre.pop()
    return CFExpansion(tuple(pre))


# the bits a Lehmer run reads off the top of the pair, and the width above
# which runs pay: a run with its 2x2 update of the full pair costs about as
# much as the divmods it replaces at 3,000-3,500 bits (2-core host), less above
LEHMER_WORD = 62
LEHMER_MIN_BITS = 3500


def rational_to_cf(value: Fraction) -> CFExpansion:
    """Continued fraction of a rational in (0, 1) via the Euclidean algorithm.

    While the denominator q is wider than LEHMER_MIN_BITS, Lehmer's algorithm
    with Collins' two-ended test finds the quotients of p/q a word at a time.
    With qh and ph the top LEHMER_WORD bits of q and p (one shift s), q/p lies
    strictly between qh/(ph + 1) and (qh + 1)/ph.  The reals whose expansion
    starts with given quotients and goes on form an interval (a cylinder), so
    every leading quotient that Euclid on both ends gives, with a nonzero
    remainder on both, is a quotient of q/p.  The word-sized run keeps the
    cofactors of those quotients, and one 2x2 update moves the full pair
    past them; a run that keeps none takes one plain divmod.  The quotients
    are Euclid's, one for one.
    """
    value = Fraction(value)
    if not 0 < value < 1:
        raise ValueError(f"value must lie in (0, 1), got {value}")
    p, q = value.numerator, value.denominator
    quotients = []
    append = quotients.append
    while q.bit_length() > LEHMER_MIN_BITS:
        s = q.bit_length() - LEHMER_WORD
        qh, ph = q >> s, p >> s
        # Euclid on both ends at once, (u0, v0) on the upper and (u1, v1) on
        # the lower.  Each half-round divides the larger entry of each pair by
        # the smaller in place, so the roles alternate instead of swapping;
        # the entries (x, y) of the full pair stand at x = A*q + B*p and
        # y = C*q + D*p after the quotients kept so far.
        u0, v0, u1, v1 = qh + 1, ph, qh, ph + 1
        A, B, C, D = 1, 0, 0, 1
        kept = len(quotients)
        while v0:
            a, u0 = divmod(u0, v0)
            u1 -= a * v1
            if not u0 or not 0 < u1 < v1:
                q, p = A * q + B * p, C * q + D * p
                break
            append(a)
            A, B = A - a * C, B - a * D
            a, v0 = divmod(v0, u0)
            v1 -= a * u1
            if not v0 or not 0 < v1 < u1:
                q, p = C * q + D * p, A * q + B * p
                break
            append(a)
            C, D = C - a * A, D - a * B
        if len(quotients) == kept:  # the run kept no quotient
            a, r = divmod(q, p)
            append(a)
            q, p = p, r
    while p:
        a, r = divmod(q, p)
        append(a)
        q, p = p, r
    return CFExpansion(tuple(quotients))  # canonical: p < q, so the last is >= 2


def _continuants(quotients: Iterable[int]) -> tuple[int, int, int, int]:
    """The product [[A, B], [C, D]] of [[0, 1], [1, a]] over the quotients.

    [a1, ..., ak + t] = (A*t + B) / (C*t + D), one `mobius` of the tail t,
    so a finite expansion has the value B / D, from integer steps alone.
    """
    A, B, C, D = 1, 0, 0, 1
    for a in quotients:
        A, B, C, D = B, A + a * B, D, C + a * D
    return A, B, C, D


def cf_value(cf: CFExpansion, depth: Optional[int] = None) -> ExactReal:
    """Value of the expansion: the depth-th convergent, or exact if depth is None.

    The exact value is a Fraction for finite expansions and a Surd for
    periodic ones.
    """
    if depth is not None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if not cf.available(depth):
            raise ExpansionExhaustedError(
                f"expansion has fewer than {depth} quotients"
            )
        _, B, _, D = _continuants(cf.quotients(depth))
        return Fraction(B, D)
    if cf.is_finite:
        _, B, _, D = _continuants(cf.preperiod)
        return Fraction(B, D)
    # periodic part: the purely periodic value t satisfies t = (A t + B)/(C t + D)
    A, B, C, D = _continuants(cf.period)
    disc = (D - A) ** 2 + 4 * B * C
    s, d0 = squarefree_split(disc)
    if d0 == 1:
        raise ArithmeticError("periodic expansion produced a rational value")
    t = Surd(Fraction(A - D, 2 * C), Fraction(s, 2 * C), d0)
    if not (0 < t < 1):
        raise ArithmeticError("periodic value fell outside (0, 1)")
    return mobius(*_continuants(cf.preperiod), t)


def _gap_step(q: Sequence[int], head: int, i: int) -> tuple[int, int]:
    """The gap map on the expansion [head, q[i], q[i + 1], ...].

    Returns the image as a new (head, i) over the same sequence: a head of 1
    merges into the next quotient, an odd head becomes 1, and an even head
    drops itself and the next quotient.
    """
    if head == 1:
        return q[i] + 1, i + 1
    if head % 2:
        return 1, i
    return q[i + 1], i + 2


def _gap_need(head: int) -> int:
    """Quotients the gap step reads, the head included."""
    return 2 if head % 2 else 3


def _gap_exhausted(head: int) -> ExpansionExhaustedError:
    branch = "a1 = 1" if head == 1 else ("odd a1" if head % 2 else "even a1")
    return ExpansionExhaustedError(f"gap map exhausted the expansion ({branch})")


def _level_expansion(theta: CFExpansion, head: int, i: int) -> CFExpansion:
    """[head, q[i], q[i + 1], ...] over the 0-based quotients q of theta.

    The head takes the place of q[i - 1].  Once q[i] lies in the period, let
    q[i - 1] be period entry s (s = -1 for the last preperiod entry): a head
    equal to entry s starts the period rotated to s, and any other head
    precedes the period rotated to s + 1.  The result is canonical, as
    `cf_normalize` writes it.
    """
    pre, per = theta.preperiod, theta.period
    if i < len(pre) or not per:
        return CFExpansion((head,) + pre[i:], per)
    s = (i - 1 - len(pre)) % len(per)
    if head == per[s]:
        return CFExpansion((), per[s:] + per[:s])
    s += 1
    return CFExpansion((head,), per[s:] + per[:s])


def _walk(q: Sequence[int], n: int, base: int = 0,
          period: int = 0) -> tuple[list[int], list[int]]:
    """The states of levels 0 .. n of the gap orbit of [q[0], q[1], ...].

    Level v's state is (heads[v], offsets[v]): its expansion is [a1, q[offset],
    q[offset + 1], ...], and each state comes from the one before by
    `_gap_step`.  The walk stops early at the first state whose step would
    read past the end of q: an odd head needs q[offset] to be interior and a
    head 1 reads it, an even head reads q[offset + 1] (`_gap_need`).  With a
    period, q holds the entries up to `base` and then the period three times;
    an offset past base + period wraps back into (base, base + period], so
    the walk never nears the end.  Two flat lists cost less to fill than a
    tuple per state.
    """
    end = len(q)
    wrap = base + period if period else end
    last = end - 1  # any head steps while its offset is below this
    heads, offsets = [], []
    add_head, add_offset = heads.append, offsets.append
    head, i = q[0], 1
    for _ in range(n):
        add_head(head)
        add_offset(i)
        if i >= last and i + 1 - head % 2 >= end:
            return heads, offsets
        head, i = _gap_step(q, head, i)
        if i > wrap:
            i = base + 1 + (i - base - 1) % period
    add_head(head)
    add_offset(i)
    return heads, offsets


def leading_quotients(quotients: Sequence[int], n: int) -> list[int]:
    """Leading quotient a1 at levels 0 .. n of the gap orbit of a finite expansion.

    Walks the quotient sequence with the trajectory's kernel `_walk`, without
    copying it or building an expansion per level, to level n.  Stops once
    fewer than three quotients remain, since the even branch consumes two
    and the remainder must stay a meaningful expansion.
    """
    heads, offsets = _walk(quotients, n)
    # offsets never decrease, so the levels with two quotients after the head
    # come first
    kept = bisect_left(offsets, len(quotients) - 1)
    return heads[:kept]


def branch_matrix(a1: int, a2: int = 0) -> tuple[int, int, int, int]:
    """(a, b, c, d) of the inverse branch (a*y + b)/(c*y + d) onto a1's cell.

    a2 picks the cell of an even a1; `PartitionCell` derives the table.
    """
    if a1 % 2 == 0:
        return 1, a2, a1, a1 * a2 + 1
    if a1 == 1:
        return -1, 1, 0, 1
    return 1, 0, a1 - 1, 1


def gap_map_value(value: ExactReal, cf: CFExpansion | TrajectoryStep) -> ExactReal:
    """Image of `value` under the gap map, using the branch named by its expansion.

    The image is (d*x - b)/(a - c*x), the inverse of the cell's branch.  `cf`
    may also be a trajectory step, which reads its quotients in place.
    """
    a1 = cf.head
    a, b, c, d = branch_matrix(a1, 0 if a1 % 2 else cf.quotient(2))
    return mobius(d, -b, -c, a, value)


@dataclass(frozen=True)
class PartitionCell:
    """One cell of the Markov partition for the gap map, named by its quotients.

    The quotients that pick a cell name it: PartitionCell(1) is Half, the
    interval (1/2, 1), PartitionCell(2k + 1) is Odd(k) and PartitionCell(2n, m)
    is Even(n, m).  a2 >= 1 exactly when a1 is even, so each cell has one
    name; any other (a1, a2) raises ValueError.  g maps Half onto (0, 1/2),
    Odd onto (1/2, 1) and Even onto (0, 1); its inverse psi(y) =
    (a*y + b)/(c*y + d) on the cell is the integer matrix `branch_matrix`:

        Half       [[-1, 1], [0, 1]]         psi(y) = 1 - y
        Odd(k)     [[1, 0], [2k, 1]]         psi(y) = y / (2ky + 1)
        Even(n, m) [[1, m], [2n, 2nm + 1]]   psi(y) = 1/(2n + 1/(m + y))

    Half and Odd invert 1 - x and x/(1 - 2kx); Even inverts two Gauss steps.
    The determinant is -1 for Half and 1 otherwise, so g(x) =
    (d*x - b)/(a - c*x), |psi'(y)| = 1/(c*y + d)^2, and a level's factor
    delta_v = 1 - E(a1)*theta_v = |a - c*theta_v| equals 1/(c*theta_{v+1} + d).
    By the chain rule the product [[a_n, b_n], [c_n, d_n]] of the matrices of
    levels 0 .. n-1 maps theta_n to theta_0, and delta_0 * ... * delta_{n-1}
    = 1/|c_n*theta_n + d_n| = |a_n - c_n*theta_0|, the last form from the
    first column of the product alone.

    The value [a1, a2, ...] is psi(y) for y = t/(1 + t) on Half, 1/(1 + t) on
    Odd and t on Even, t the rest [a2, ...] or (even a1) [a3, ...]; y covers
    the target's closure as t covers [0, 1].  So the value is interior exactly
    when 0 < t < 1, and t = 0 gives psi(0) (Half, Even) or psi(1) (Odd).
    """

    a1: int
    a2: int = 0

    def __post_init__(self):
        if self.a1 < 1 or self.a2 < 0 or (self.a2 >= 1) != (self.a1 % 2 == 0):
            raise ValueError(f"no such cell: {self!r}")

    @property
    def matrix(self) -> tuple[int, int, int, int]:
        return branch_matrix(self.a1, self.a2)

    @property
    def endpoints(self) -> tuple[Fraction, Fraction]:
        """psi at the target's ends u/2; Half's psi, of determinant -1, swaps them."""
        a, b, c, d = self.matrix
        target = (self.a1 % 2, 2) if self.a1 > 1 else (0, 1)  # in halves
        ends = [Fraction(a * u + 2 * b, c * u + 2 * d) for u in target]
        return tuple(ends) if a * d > b * c else tuple(ends[::-1])

    def __str__(self):
        if self.a1 == 1:
            return "Half"
        if self.a1 % 2:
            return f"Odd({self.a1 // 2})"
        return f"Even({self.a1 // 2},{self.a2})"


def classify_cell(cf: CFExpansion | TrajectoryStep) -> PartitionCell:
    """Partition cell of the expansion's value; an endpoint hit is an error.

    The cell is read off the quotients: the value is interior exactly when its
    rest t has 0 < t < 1 (see `PartitionCell`), when the gap map can step.  A
    canonical t is never 1; t = 0 is [a1] = 1/a1 or [a1, a2] = a2/(a1*a2 + 1).
    """
    a1 = cf.head
    if a1 % 2 == 0 and not cf.available(2):
        raise ExpansionExhaustedError(
            "even leading quotient needs a second quotient to pick a cell"
        )
    a2 = 0 if a1 % 2 else cf.quotient(2)
    cell = PartitionCell(a1, a2)
    if not cf.available(_gap_need(a1)):
        value = Fraction(a2, a1 * a2 + 1) if a2 else Fraction(1, a1)
        raise CellBoundaryError(f"{value} sits on the boundary of {cell}")
    return cell


class TrajectoryStep:
    """One renormalization level: a1, E(a1), and a view of its expansion.

    The level's expansion is [a1, q[offset], q[offset + 1], ...], where q is
    the 0-based quotient sequence of theta_0; past the preperiod of a periodic
    theta_0 the offset wraps modulo the period.  `head`, `available` and
    `quotient` read the expansion as a CFExpansion does, without building
    one; `cf` builds it on read.  `value` is exact and is read from the value
    chain of `traj`, the trajectory the step belongs to; `delta` =
    1 - E(a1)*value is computed from it on read.
    """

    __slots__ = ("traj", "level", "a1", "e", "offset")

    def __init__(self, traj: GapTrajectory, level: int, a1: int, offset: int):
        self.traj = traj
        self.level = level
        self.a1 = a1
        self.e = a1 - a1 % 2
        self.offset = offset

    @property
    def head(self) -> int:
        return self.a1

    def available(self, count: int) -> bool:
        """Whether the level's expansion has at least `count` quotients."""
        return self.traj.theta0.available(self.offset + count - 1)

    def quotient(self, i: int) -> int:
        """The i-th quotient of the level's expansion (1-indexed)."""
        if i < 1:
            raise ValueError("quotient index is 1-based")
        if i == 1:
            return self.a1
        return self.traj.theta0.quotient(self.offset + i - 1)

    @property
    def cf(self) -> CFExpansion:
        """The level's expansion, in the canonical form `cf_normalize` writes."""
        return _level_expansion(self.traj.theta0, self.a1, self.offset)

    @property
    def value(self) -> ExactReal:
        return self.traj.values[self.level]

    @property
    def delta(self) -> ExactReal:
        return 1 - self.e * self.value


class GapTrajectory:
    """Levels theta_0 .. theta_n of the gap dynamics of `theta0`.

    Level v's state is (heads[v], offsets[v]) = (a1, offset) over the
    sequence `quotients`, q: level v's expansion is [a1, q[offset], ...], and
    q[offset + 1] is in range whenever a1 is even and v < n.  `steps[v]`, the
    view of level v, is built from its state on first read, as are
    `theta_value`, theta_0's exact value, and `values`, the exact value of
    every level; the deltas and their products derive from these and the
    steps.
    """

    def __init__(self, theta0: CFExpansion, quotients: Sequence[int],
                 heads: list[int], offsets: list[int]):
        self.theta0 = theta0
        self.quotients = quotients
        self.heads = heads
        self.offsets = offsets

    @cached_property
    def steps(self) -> tuple[TrajectoryStep, ...]:
        return tuple(TrajectoryStep(self, v, a1, offset)
                     for v, (a1, offset) in enumerate(zip(self.heads, self.offsets)))

    @cached_property
    def theta_value(self) -> ExactReal:
        return cf_value(self.theta0)

    @cached_property
    def values(self) -> list[ExactReal]:
        """Exact value of every level, level 0 being `theta_value`.

        The gap_map_value chain runs up to the first level whose (a1, offset)
        repeats an earlier level's; the later levels are read off the cycle
        between the two.  A repeated state has an equal value: the chain's
        step reads only the head and the quotients from the offset on
        (`TrajectoryStep.quotient`), so the value of a level is that of
        [a1, q[offset], ...] whichever level it is.
        """
        values: list[ExactReal] = []
        seen: dict[tuple[int, int], int] = {}
        for step in self.steps:
            first = seen.setdefault((step.a1, step.offset), step.level)
            if first < step.level:
                break
            values.append(gap_map_value(values[-1], self.steps[step.level - 1])
                          if values else self.theta_value)
        length = len(values) - first  # the cycle's, when the loop broke
        for _ in range(len(values), len(self.steps)):
            values.append(values[-length])
        return values

    def delta_product(self, n: Optional[int] = None) -> ExactReal:
        """Product delta_0 * ... * delta_{n-1} (all steps if n is None).

        It is |a - c*theta_0|, (a, c) the first column of the product of the
        branch matrices of levels 0 .. n-1 (see `PartitionCell`), so it reads
        no level value.
        """
        a, c = 1, 0
        for step in reversed(self.steps[:n]):
            p, q, r, s = branch_matrix(step.a1, 0 if step.a1 % 2 else step.quotient(2))
            a, c = p * a + q * c, r * a + s * c
        delta = a - c * self.theta_value
        return delta if delta > 0 else -delta  # Surd has no __abs__


def gap_trajectory(theta: CFExpansion, n: int) -> GapTrajectory:
    """Levels theta_0 .. theta_n of the gap dynamics, in time linear in n.

    Each level is a state (head, offset) into the quotients of theta, walked
    once by `_walk` with the gap step; the step views, exact values and
    deltas wait until a caller reads them.  Raises CellBoundaryError when a
    level's expansion is a single even quotient [2k] (value 1/(2k), delta
    0), and ExpansionExhaustedError (carrying the step reached) when a
    rational theta runs out of expansion before level n.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    pre, per = theta.preperiod, theta.period
    # a periodic offset stays in (len(pre), len(pre) + len(per)], so an offset
    # of len(pre) always means a head on the last preperiod entry, and the
    # walk never reaches the end of q
    q = pre + per * 3
    heads, offsets = _walk(q, n, len(pre), len(per))
    level = len(heads) - 1
    head = heads[-1]
    if head % 2 == 0 and offsets[-1] >= len(q):
        raise CellBoundaryError(
            f"level {level} value 1/{head} hits a cell endpoint (delta = 0)")
    if level < n:
        exc = _gap_exhausted(head)
        raise ExpansionExhaustedError(
            f"trajectory exhausted after {level} steps: {exc}",
            steps_completed=level,
        ) from exc
    return GapTrajectory(theta, q, heads, offsets)


# --- the theta-spec grammar ------------------------------------------------

_RAT_RE = re.compile(r"^rat:(-?\d+)/(-?\d+)$")
_CF_RE = re.compile(r"^cf:\[([^\]]+)\]$")
_CFPER_RE = re.compile(r"^cfper:\[([^\]]*)\]\[([^\]]+)\]$")


def _parse_ints(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(tok) for tok in re.split(r"[;,]\s*", text)]


def parse_theta_spec(spec: str) -> CFExpansion:
    """Parse 'rat:p/q', 'cf:[a1,a2,...]' or 'cfper:[pre...][per...]'.

    Decimal input is rejected here on purpose; use the CLI convenience that
    converts a decimal with an explicit denominator bound into a rat: spec.
    """
    spec = spec.strip()
    m = _RAT_RE.match(spec)
    if m:
        if int(m.group(2)) == 0:
            raise ValueError(f"theta spec {spec!r} has a zero denominator")
        return rational_to_cf(Fraction(int(m.group(1)), int(m.group(2))))
    m = _CF_RE.match(spec) or _CFPER_RE.match(spec)
    if m:
        try:
            parts = [_parse_ints(group) for group in m.groups()]
        except ValueError:
            raise ValueError(f"cannot read the quotients of theta spec {spec!r}") from None
        return cf_normalize(*parts)
    if re.match(r"^(dec:)?[0-9]*\.[0-9]+", spec):
        raise ValueError(
            f"decimal theta {spec!r} is ambiguous; pass rat:p/q or use the CLI "
            "decimal conversion with an explicit denominator bound"
        )
    raise ValueError(f"unrecognized theta spec {spec!r}")


def format_theta_spec(cf: CFExpansion) -> str:
    if cf.is_finite:
        return "cf:[" + ",".join(map(str, cf.preperiod)) + "]"
    pre = ",".join(map(str, cf.preperiod))
    per = ",".join(map(str, cf.period))
    return f"cfper:[{pre}][{per}]"


# draws sample_theta makes before it gives up on a request it cannot rule out
# in advance; its callers reject at most about half their draws (lower_half;
# the deep growth and limsup draws 10-15%), so they run out with probability
# near 2^-1000
SAMPLE_THETA_MAX_DRAWS = 1000


def sample_theta(rng, bits: int = 256, lower_half: bool = False,
                 min_quotients: int = 1) -> CFExpansion:
    """Uniform random rational theta = p / 2^bits, as an expansion.

    Resamples until the expansion has at least `min_quotients` quotients and,
    if `lower_half`, until theta < 1/2 (leading quotient >= 2).  A canonical
    expansion with k quotients has a denominator of at least the Fibonacci
    number F(k + 2), from [1, ..., 1, 2], so a request with F(k + 2) > 2^bits
    raises ValueError before the first draw.  One that no draw meets within
    SAMPLE_THETA_MAX_DRAWS raises ValueError with its own message.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    den = 1 << bits
    f, g = 1, 1  # F(j + 1), F(j + 2) after j rounds
    for _ in range(min_quotients):
        f, g = g, f + g
        if g > den:
            raise ValueError(
                f"min_quotients {min_quotients} cannot be met with bits {bits}: "
                f"an expansion with {min_quotients} quotients has a denominator "
                f"of at least F({min_quotients + 2}), the Fibonacci number, "
                f"which exceeds 2^{bits}")
    for _ in range(SAMPLE_THETA_MAX_DRAWS):
        p = rng.randrange(1, den)
        cf = rational_to_cf(Fraction(p, den))
        if lower_half and cf.head == 1:
            continue
        if len(cf.preperiod) < min_quotients:
            continue
        return cf
    half = " and theta < 1/2" if lower_half else ""
    raise ValueError(
        f"no draw of {SAMPLE_THETA_MAX_DRAWS} with bits {bits} had "
        f"{min_quotients} quotients{half}; ask for more bits")
