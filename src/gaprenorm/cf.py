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
hard error here, never a silent fallback.

A gap trajectory holds each level as a state (a1, offset): the level's
expansion is [a1, q[offset], q[offset + 1], ...] over the quotients q of
theta_0, and its exact value depends on that state alone.  The trajectory
owns its states, its steps and their exact values; each step points back at
it.  It computes theta_0's value once (`theta_value`) and runs the chain of
values from there.  For a periodic theta_0 the offsets are kept modulo the
period, so the states are finitely many and a long enough walk re-enters
one it has seen; from then on every value, and so every delta, repeats the
cycle between the two visits.  The exact values are computed up to the
first repeated state and the rest are read off that cycle, and delta
products are powers of the cycle's product.  The arithmetic is exact and
its results canonical, so this gives the same numbers, digit for digit, as
running the chain over every level.  A rational theta_0 never repeats a
state: its offsets never decrease, and two levels share an offset only
across an odd head and the head 1 it maps to.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

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
    `gap_map` derives valid expansions from valid ones; neither checks again.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...] = ()

    @property
    def is_finite(self) -> bool:
        return not self.period

    def __len__(self) -> int:
        if not self.is_finite:
            raise ValueError("infinite expansion has no length")
        return len(self.preperiod)

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
        if not isinstance(a, int) or a < 1:
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


def rational_to_cf(value: Fraction) -> CFExpansion:
    """Continued fraction of a rational in (0, 1) via the Euclidean algorithm."""
    value = Fraction(value)
    if not 0 < value < 1:
        raise ValueError(f"value must lie in (0, 1), got {value}")
    p, q = value.numerator, value.denominator
    quotients = []
    while p:
        a, r = divmod(q, p)
        quotients.append(a)
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


def gap_map(cf: CFExpansion) -> CFExpansion:
    """One renormalization step of the first-return (gap) dynamics."""
    a1 = cf.head
    need = _gap_need(a1)
    if not cf.available(need):
        raise _gap_exhausted(a1)
    return _level_expansion(cf, *_gap_step(cf.quotients(need), a1, 1))


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


def leading_quotients(quotients: Sequence[int]) -> Iterator[int]:
    """Leading quotient a1 at each level of the gap orbit of a finite expansion.

    Walks the quotient sequence by index with the same step as `gap_map`,
    without copying it or building an expansion per level.  Stops once fewer than three
    quotients remain, since the even branch consumes two and the remainder
    must stay a meaningful expansion.
    """
    head, i = quotients[0], 1
    while len(quotients) - i >= 2:
        yield head
        head, i = _gap_step(quotients, head, i)


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
    = 1/|c_n*theta_n + d_n|.

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

    def contains(self, x: ExactReal) -> bool:
        lo, hi = self.endpoints
        return lo < x < hi

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


def gap_derivative(theta: ExactReal, cell: PartitionCell) -> ExactReal:
    """|g'(theta)| = 1/(a - c*theta)^2 on the given cell, exactly."""
    if not cell.contains(theta):
        raise CellBoundaryError(f"{theta} is not interior to {cell}")
    a, _, c, _ = cell.matrix
    den = a - c * theta
    return 1 / (den * den)


class TrajectoryStep:
    """One renormalization level: a1, E(a1), and a view of its expansion.

    The level's expansion is [a1, q[offset], q[offset + 1], ...], where q is
    the 0-based quotient sequence of theta_0; past the preperiod of a periodic
    theta_0 the offset wraps modulo the period.  `head`, `available` and
    `quotient` read the expansion as a CFExpansion does, without building
    one; `cf` builds it on read.  `value` and `delta` are exact and are read
    from `traj`, the trajectory the step belongs to, which computes them for
    every level on the first read of either.
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
        """The level's expansion, in the form the gap_map chain gives it."""
        return _level_expansion(self.traj.theta0, self.a1, self.offset)

    @property
    def value(self) -> ExactReal:
        return self.traj.values_and_deltas()[0][self.level]

    @property
    def delta(self) -> ExactReal:
        return self.traj.values_and_deltas()[1][self.level]


class GapTrajectory:
    """Levels theta_0 .. theta_n of the gap dynamics of `theta0`.

    `steps[v]` is the view of level v, built from its state (a1, offset).
    `theta_value`, theta_0's exact value, is computed once, on first read,
    and is also level 0 of the exact values.  `cycle` is (first, length)
    once the values are read: level v >= first has the value and delta of
    level first + (v - first) % length.  A trajectory with no repeated state
    has first = len(steps) and length 0.
    """

    def __init__(self, theta0: CFExpansion, states: list[tuple[int, int]]):
        self.theta0 = theta0
        self.steps = tuple(TrajectoryStep(self, v, a1, offset)
                           for v, (a1, offset) in enumerate(states))
        self.cycle: Optional[tuple[int, int]] = None
        self._exact: Optional[tuple[list[ExactReal], list[ExactReal]]] = None

    @cached_property
    def theta_value(self) -> ExactReal:
        return cf_value(self.theta0)

    def values_and_deltas(self) -> tuple[list[ExactReal], list[ExactReal]]:
        """Exact value and delta of every level.

        The gap_map_value chain runs from `theta_value` up to the first level
        whose (a1, offset) repeats an earlier level's; the later levels are
        read off the cycle between the two.  A repeated state has an equal
        value: the chain's step reads only the head and the quotients from
        the offset on (`TrajectoryStep.quotient`), so the value of a level is
        that of [a1, q[offset], ...] whichever level it is.  The delta
        1 - E(a1)*value is |a - c*value| (see `PartitionCell`).
        """
        if self._exact is None:
            values, deltas = [], []
            seen: dict[tuple[int, int], int] = {}
            self.cycle = (len(self.steps), 0)
            for step in self.steps:
                state = step.a1, step.offset
                if state in seen:
                    self.cycle = (seen[state], step.level - seen[state])
                    break
                seen[state] = step.level
                if values:
                    value = gap_map_value(values[-1], self.steps[step.level - 1])
                else:
                    value = self.theta_value
                values.append(value)
                deltas.append(1 - step.e * value)
            length = self.cycle[1]
            for _ in range(len(values), len(self.steps)):
                values.append(values[-length])
                deltas.append(deltas[-length])
            self._exact = values, deltas
        return self._exact

    def delta_product(self, n: Optional[int] = None) -> ExactReal:
        """Product delta_0 * ... * delta_{n-1} (all steps if n is None).

        Past the first cycle of a periodic trajectory the product is the
        pre-cycle product and a partial cycle times the cycle product to the
        q-th power; the arithmetic is exact, so this is the plain product.
        """
        n = slice(n).indices(len(self.steps))[1]
        deltas = self.values_and_deltas()[1]
        first, length = self.cycle
        if n <= first + length:
            return math.prod(deltas[:n], start=Fraction(1))
        q, r = divmod(n - first, length)
        cycle = math.prod(deltas[first:first + length], start=Fraction(1))
        return math.prod(deltas[:first + r], start=Fraction(1)) * cycle ** q


def gap_trajectory(theta: CFExpansion, n: int) -> GapTrajectory:
    """Levels theta_0 .. theta_n of the gap dynamics, in time linear in n.

    Each level is a (head, offset) view into the quotients of theta, walked
    once with the gap step; exact values and deltas wait until a caller
    reads them.  Raises CellBoundaryError when a level's expansion is a
    single even quotient [2k] (value 1/(2k), delta 0), and
    ExpansionExhaustedError (carrying the step reached) when a rational
    theta runs out of expansion before level n.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    pre, per = theta.preperiod, theta.period
    # a periodic offset stays in (len(pre), len(pre) + len(per)], so an offset
    # of len(pre) always means a head on the last preperiod entry
    q = pre + per * 3
    wrap = len(pre) + len(per)
    states = []
    head, i = q[0], 1
    for level in range(n + 1):
        if head % 2 == 0 and not theta.available(i + 1):
            raise CellBoundaryError(
                f"level {level} value 1/{head} hits a cell endpoint (delta = 0)")
        states.append((head, i))
        if level == n:
            break
        if not theta.available(i + _gap_need(head) - 1):
            exc = _gap_exhausted(head)
            raise ExpansionExhaustedError(
                f"trajectory exhausted after {level} steps: {exc}",
                steps_completed=level,
            ) from exc
        head, i = _gap_step(q, head, i)
        if per and i > wrap:
            i = len(pre) + 1 + (i - len(pre) - 1) % len(per)
    return GapTrajectory(theta, states)


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
        return rational_to_cf(Fraction(int(m.group(1)), int(m.group(2))))
    m = _CF_RE.match(spec)
    if m:
        return cf_normalize(_parse_ints(m.group(1)))
    m = _CFPER_RE.match(spec)
    if m:
        return cf_normalize(_parse_ints(m.group(1)), _parse_ints(m.group(2)))
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


def sample_theta(rng, bits: int = 256, lower_half: bool = False,
                 min_quotients: int = 1) -> CFExpansion:
    """Uniform random rational theta = p / 2^bits, as an expansion.

    Resamples until the expansion has at least `min_quotients` quotients and,
    if `lower_half`, until theta < 1/2 (leading quotient >= 2).
    """
    den = 1 << bits
    while True:
        p = rng.randrange(1, den)
        cf = rational_to_cf(Fraction(p, den))
        if lower_half and cf.head == 1:
            continue
        if len(cf.preperiod) < min_quotients:
            continue
        return cf
