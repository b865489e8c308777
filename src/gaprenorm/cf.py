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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .exact import ExactReal, Surd, squarefree_split


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
    is validated once, by `cf_normalize` (which `parse_theta_spec`,
    `rational_to_cf` and `sample_theta` go through); `shift` and `gap_map`
    derive valid expansions from valid ones without checking again.
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

    def shift(self, k: int = 1) -> "CFExpansion":
        """Drop the first k quotients (the k-fold Gauss map)."""
        if k < 0:
            raise ValueError("cannot shift backwards")
        if self.is_finite:
            rest = self.preperiod[k:]
            if not rest:
                raise ExpansionExhaustedError(
                    f"shift by {k} exhausts a {len(self.preperiod)}-quotient expansion"
                )
            return CFExpansion(rest)
        if k <= len(self.preperiod):
            return CFExpansion(self.preperiod[k:], self.period)
        r = (k - len(self.preperiod)) % len(self.period)
        return CFExpansion((), self.period[r:] + self.period[:r])

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
    return cf_normalize(quotients)


def _fold_quotients(quotients: list[int], tail: ExactReal) -> ExactReal:
    value = tail
    for a in reversed(quotients):
        value = 1 / (a + value)
    return value


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
        return _fold_quotients(cf.quotients(depth), Fraction(0))
    if cf.is_finite:
        return _fold_quotients(list(cf.preperiod), Fraction(0))
    # periodic part: the purely periodic value t satisfies t = (A t + B)/(C t + D)
    # where [[A,B],[C,D]] is the product of [[0,1],[1,b]] over the block
    A, B, C, D = 1, 0, 0, 1
    for b in cf.period:
        # multiply on the right by [[0,1],[1,b]]
        A, B, C, D = B, A + b * B, D, C + b * D
    disc = (D - A) ** 2 + 4 * B * C
    s, d0 = squarefree_split(disc)
    if d0 == 1:
        raise ArithmeticError("periodic expansion produced a rational value")
    t = Surd(Fraction(A - D, 2 * C), Fraction(s, 2 * C), d0)
    if not (0 < t < 1):
        raise ArithmeticError("periodic value fell outside (0, 1)")
    return _fold_quotients(list(cf.preperiod), t)


def _replace_head(cf: CFExpansion, new_head: int) -> CFExpansion:
    if cf.preperiod:
        return CFExpansion((new_head,) + cf.preperiod[1:], cf.period)
    rotated = cf.period[1:] + cf.period[:1]
    return CFExpansion((new_head,), rotated)


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
    head, i = _gap_step(cf.quotients(need), a1, 1)
    tail = cf.shift(i - 1)
    return tail if tail.head == head else _replace_head(tail, head)


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


def gap_map_value(value: ExactReal, cf: CFExpansion | TrajectoryStep) -> ExactReal:
    """Image of `value` under the gap map, using the branch named by its expansion.

    `cf` may also be a trajectory step, which reads its quotients in place.
    """
    a1 = cf.head
    if a1 == 1:
        return 1 - value
    if a1 % 2 == 1:
        return value / (1 - (a1 - 1) * value)
    g1 = 1 / value - a1
    return 1 / g1 - cf.quotient(2)


def parity_floor(a: int) -> int:
    """Largest even integer <= a (for quotients, so a >= 1)."""
    if not isinstance(a, int) or a < 1:
        raise ValueError(f"expected a positive integer, got {a!r}")
    return a - (a % 2)


@dataclass(frozen=True)
class PartitionCell:
    """One cell of the Markov partition for the gap map.

    kind is 'half' for (1/2, 1), 'odd' for the cell with a1 = 2k + 1, and
    'even' for the cell with a1 = 2n, a2 = m.
    """

    kind: str
    k: int = 0
    n: int = 0
    m: int = 0

    def __post_init__(self):
        if self.kind not in ("half", "odd", "even"):
            raise ValueError(f"unknown cell kind {self.kind!r}")
        if self.kind == "odd" and self.k < 1:
            raise ValueError("odd cells need k >= 1")
        if self.kind == "even" and (self.n < 1 or self.m < 1):
            raise ValueError("even cells need n, m >= 1")

    @property
    def endpoints(self) -> tuple[Fraction, Fraction]:
        if self.kind == "half":
            return Fraction(1, 2), Fraction(1)
        if self.kind == "odd":
            return Fraction(1, 2 * self.k + 2), Fraction(1, 2 * self.k + 1)
        n, m = self.n, self.m
        return (
            Fraction(m, 2 * n * m + 1),
            Fraction(m + 1, 2 * n * (m + 1) + 1),
        )

    def contains(self, x: ExactReal) -> bool:
        lo, hi = self.endpoints
        return lo < x < hi

    def __str__(self):
        if self.kind == "half":
            return "Half"
        if self.kind == "odd":
            return f"Odd({self.k})"
        return f"Even({self.n},{self.m})"


def classify_cell(cf: CFExpansion, value: Optional[ExactReal] = None) -> PartitionCell:
    """Partition cell of the expansion's value; endpoint hits are an error.

    `cf` may also be a TrajectoryStep, read through the same head/available/
    quotient accessors; `value`, when the caller holds it, saves recomputing it.
    """
    a1 = cf.head
    if a1 == 1:
        cell = PartitionCell("half")
    elif a1 % 2 == 1:
        cell = PartitionCell("odd", k=(a1 - 1) // 2)
    else:
        if not cf.available(2):
            raise ExpansionExhaustedError(
                "even leading quotient needs a second quotient to pick a cell"
            )
        cell = PartitionCell("even", n=a1 // 2, m=cf.quotient(2))
    if value is None:
        value = cf_value(cf)
    if not cell.contains(value):
        raise CellBoundaryError(f"{value} sits on the boundary of {cell}")
    return cell


def gap_derivative(theta: ExactReal, cell: PartitionCell) -> ExactReal:
    """|g'(theta)| on the given cell, exactly."""
    if not cell.contains(theta):
        raise CellBoundaryError(f"{theta} is not interior to {cell}")
    if cell.kind == "half":
        return Fraction(1)
    if cell.kind == "odd":
        den = 1 - 2 * cell.k * theta
        return 1 / (den * den)
    # even cell: two Gauss branches compose, so the slopes multiply
    inner = 1 / theta - 2 * cell.n
    prod = theta * inner
    return 1 / (prod * prod)


class _Walk:
    """What the steps of one trajectory share: theta_0, the (a1, offset) of
    each level, and the exact values and deltas once they have been read."""

    __slots__ = ("theta0", "heads", "offsets", "exact")

    def __init__(self, theta0: CFExpansion):
        self.theta0 = theta0
        self.heads: list[int] = []
        self.offsets: list[int] = []
        self.exact: Optional[tuple[list[ExactReal], list[ExactReal]]] = None

    def values_and_deltas(self) -> tuple[list[ExactReal], list[ExactReal]]:
        """Exact value and delta of every level, by the gap_map_value chain."""
        if self.exact is None:
            values, deltas = [], []
            value = cf_value(self.theta0)
            last = len(self.heads) - 1
            for level in range(last + 1):
                step = TrajectoryStep(self, level)
                values.append(value)
                deltas.append(1 - step.e * value)
                if level < last:
                    value = gap_map_value(value, step)
            self.exact = values, deltas
        return self.exact


class TrajectoryStep:
    """One renormalization level: a1, E(a1), and a view of its expansion.

    The level's expansion is [a1, q[offset], q[offset + 1], ...], where q is
    the 0-based quotient sequence of theta_0; past the preperiod of a periodic
    theta_0 the offset wraps modulo the period.  `head`, `available` and
    `quotient` read the expansion as a CFExpansion does, without building
    one; `cf` builds it on read.  `value` and `delta` are exact and are
    computed for the whole trajectory on the first read of either.
    """

    __slots__ = ("_walk", "level", "a1", "e", "offset")

    def __init__(self, walk: _Walk, level: int):
        self._walk = walk
        self.level = level
        self.a1 = walk.heads[level]
        self.e = self.a1 - self.a1 % 2
        self.offset = walk.offsets[level]

    @property
    def head(self) -> int:
        return self.a1

    def available(self, count: int) -> bool:
        """Whether the level's expansion has at least `count` quotients."""
        return self._walk.theta0.available(self.offset + count - 1)

    def quotient(self, i: int) -> int:
        """The i-th quotient of the level's expansion (1-indexed)."""
        if i < 1:
            raise ValueError("quotient index is 1-based")
        if i == 1:
            return self.a1
        return self._walk.theta0.quotient(self.offset + i - 1)

    @property
    def cf(self) -> CFExpansion:
        """The level's expansion, in the form the gap_map chain gives it."""
        pre, per = self._walk.theta0.preperiod, self._walk.theta0.period
        if self.offset <= len(pre):
            return CFExpansion((self.a1,) + pre[self.offset:], per)
        # the head sits on period entry s: gap_map keeps that entry when the
        # head equals it and otherwise puts the head before the next one
        s = (self.offset - 1 - len(pre)) % len(per)
        if self.a1 == per[s]:
            return CFExpansion((), per[s:] + per[:s])
        s += 1
        return CFExpansion((self.a1,), per[s:] + per[:s])

    @property
    def value(self) -> ExactReal:
        return self._walk.values_and_deltas()[0][self.level]

    @property
    def delta(self) -> ExactReal:
        return self._walk.values_and_deltas()[1][self.level]


@dataclass(frozen=True)
class GapTrajectory:
    theta0: CFExpansion
    steps: tuple[TrajectoryStep, ...]

    def delta_product(self, n: Optional[int] = None) -> ExactReal:
        """Product delta_0 * ... * delta_{n-1} (all steps if n is None)."""
        if n is None:
            n = len(self.steps)
        prod: ExactReal = Fraction(1)
        for step in self.steps[:n]:
            prod = prod * step.delta
        return prod


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
    walk = _Walk(theta)
    head, i = q[0], 1
    for level in range(n + 1):
        if head % 2 == 0 and not theta.available(i + 1):
            value = Fraction(1, head)
            raise CellBoundaryError(
                f"level {level} value {value} hits a cell endpoint "
                f"(delta = {1 - head * value})"
            )
        walk.heads.append(head)
        walk.offsets.append(i)
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
    steps = tuple(TrajectoryStep(walk, level) for level in range(n + 1))
    return GapTrajectory(theta0=theta, steps=steps)


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
