"""Substitution words over {A, B, C} and the return-length matrix cocycle.

Each renormalization level of the gap dynamics induces a substitution on
three letters (A for the short gaps below 1/2, B and C for the two kinds of
long gaps) together with a 2x2 matrix transporting the pair of return
lengths (|A-word|, |C-word|).  Words are ordinary Python strings; their
prefix-sum statistics form a monoid, so statistics of astronomically long
words fold without ever materializing them.

The letter weights are +1 for A and -1 for B and C; `rho` of a word is
1 + (max prefix sum) - (min prefix sum), the spread of its half-discrepancy
walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Sequence

from .cf import (
    CFExpansion,
    ExpansionExhaustedError,
    GapTrajectory,
    TrajectoryStep,
    gap_trajectory,
)

A, B, C = "A", "B", "C"
LETTERS = (A, B, C)
WEIGHT = {A: 1, B: -1, C: -1}

Runs = tuple[tuple[str, int], ...]
Stats = tuple[int, int, int, int]  # WordStats fields, as a plain tuple
Segments = tuple[tuple[Runs, int], ...]


class WordBudgetError(ValueError):
    """A word expansion would exceed the caller's length budget."""


@dataclass(frozen=True)
class WordStats:
    """Length, weight sum and prefix-sum extrema of a word over {A, B, C}.

    The empty word is the monoid identity (all fields zero); for nonempty
    words the extrema run over the prefixes of length 1..length, so
    max_prefix can be negative and min_prefix positive.
    """

    length: int
    total: int
    max_prefix: int
    min_prefix: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative length")
        if self.length > 0 and not (
            self.min_prefix <= self.total <= self.max_prefix
        ):
            raise ValueError("inconsistent prefix extrema")

    @classmethod
    def empty(cls) -> "WordStats":
        return cls(0, 0, 0, 0)

    @classmethod
    def of_letter(cls, letter: str) -> "WordStats":
        w = WEIGHT[letter]
        return cls(1, w, w, w)

    @classmethod
    def of_word(cls, word: str) -> "WordStats":
        """Direct single pass over the letters."""
        sums = list(accumulate(WEIGHT[ch] for ch in word))
        if not sums:
            return cls.empty()
        return cls(len(word), sums[-1], max(sums), min(sums))

    def concat(self, other: "WordStats") -> "WordStats":
        return WordStats(*_concat(self.astuple(), other.astuple()))

    def __add__(self, other: "WordStats") -> "WordStats":
        return self.concat(other)

    def repeat(self, count: int) -> "WordStats":
        """Stats of this word repeated `count` times, in closed form."""
        if count < 0:
            raise ValueError("negative repeat count")
        if count == 0:
            return WordStats.empty()
        return WordStats(*_repeat(self.astuple(), count))

    def astuple(self) -> Stats:
        return (self.length, self.total, self.max_prefix, self.min_prefix)

    @property
    def rho(self) -> int:
        """Spread 1 + max - min of the prefix-sum walk (nonempty words only)."""
        if self.length == 0:
            raise ValueError("rho of the empty word is undefined")
        return 1 + self.max_prefix - self.min_prefix


def _concat(s: Stats, t: Stats) -> Stats:
    """Stats of the concatenation, on (length, total, max, min) tuples."""
    if not s[0]:
        return t
    if not t[0]:
        return s
    total = s[1]
    return (s[0] + t[0], total + t[1], max(s[2], total + t[2]),
            min(s[3], total + t[3]))


def _repeat(s: Stats, count: int) -> Stats:
    """Stats of the word repeated count >= 1 times.

    Copy j shifts every prefix sum by j * total, so the maximum sits in the
    last copy when total > 0 and in the first otherwise; the minimum too,
    the other way round.
    """
    length, total, hi, lo = s
    more = count - 1
    return (count * length, count * total, hi + more * max(total, 0),
            lo + more * min(total, 0))


def _runs(*pairs: tuple[str, int]) -> Runs:
    return tuple((ch, cnt) for ch, cnt in pairs if cnt > 0)


@dataclass(frozen=True)
class SubstitutionRule:
    """The letter substitution induced by one renormalization level.

    kind 'identity' covers a1 = 1, 'odd' covers a1 = 2k + 1, and 'even'
    covers a1 = 2k with second quotient a2; `next_one` distinguishes the
    even subcase where the following quotient is 1.  Images are stored as
    run-length segments (runs, repeat) so large quotients stay O(1).
    """

    kind: str
    k: int = 0
    a2: int = 0
    next_one: bool = False

    def __post_init__(self):
        if self.kind not in ("identity", "odd", "even"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind == "odd" and self.k < 1:
            raise ValueError("odd rules need k >= 1")
        if self.kind == "even" and (self.k < 1 or self.a2 < 1):
            raise ValueError("even rules need k >= 1 and a2 >= 1")

    def image_segments(self, letter: str) -> Segments:
        if letter not in LETTERS:
            raise ValueError(f"unknown letter {letter!r}")
        k, a2 = self.k, self.a2
        if self.kind == "identity":
            return ((_runs((letter, 1)), 1),)
        if self.kind == "odd":
            if letter == A:
                return ((_runs((A, k), (B, k), (C, 1)), 1),)
            if letter == B:
                return ((_runs((A, k + 1), (B, k - 1), (C, 1)), 1),)
            return ((_runs((A, 1)), 1),)
        lead = _runs((A, k + 1), (B, k - 1), (C, 1))
        fill = _runs((A, k), (B, k - 1), (C, 1))
        bal = _runs((A, k), (B, k), (C, 1))
        if not self.next_one:
            table = {A: (lead, a2 - 1), B: (bal, a2 - 1), C: (bal, a2)}
        else:
            table = {A: (bal, a2), B: (lead, a2), C: (lead, a2 - 1)}
        first, reps = table[letter]
        segments = [(first, 1)]
        if reps > 0:
            segments.append((fill, reps))
        return tuple(segments)

    def image_word(self, letter: str) -> str:
        return _image_word(self, letter)


@lru_cache(maxsize=4096)
def _image_word(rule: SubstitutionRule, letter: str) -> str:
    return "".join(
        "".join(ch * cnt for ch, cnt in runs) * rep
        for runs, rep in rule.image_segments(letter)
    )


_LETTER_STATS = {ch: WordStats.of_letter(ch).astuple() for ch in LETTERS}


def _fold_segments(segments: Segments, stats: dict[str, Stats]) -> Stats:
    acc = (0, 0, 0, 0)
    for runs, rep in segments:
        seg = (0, 0, 0, 0)
        for ch, cnt in runs:
            seg = _concat(seg, _repeat(stats[ch], cnt))
        acc = _concat(acc, _repeat(seg, rep))
    return acc


def build_rule(cf: CFExpansion | TrajectoryStep) -> SubstitutionRule:
    """Substitution induced at the level whose expansion is `cf`.

    A trajectory step serves as well: a1, a2 and a3 are read from its view.
    """
    a1 = cf.head
    if a1 == 1:
        return SubstitutionRule("identity")
    if a1 % 2 == 1:
        return SubstitutionRule("odd", k=(a1 - 1) // 2)
    if not cf.available(3):
        raise ExpansionExhaustedError(
            "even-level rule needs quotients a2 and a3"
        )
    return SubstitutionRule(
        "even", k=a1 // 2, a2=cf.quotient(2), next_one=cf.quotient(3) == 1
    )


def rules_along(theta: CFExpansion, n: int) -> list[SubstitutionRule]:
    """Rules at levels 0 .. n-1 of the gap trajectory of theta."""
    return levels(theta, n).rules


def stats_by_level(rules: Sequence[SubstitutionRule]) -> list[dict[str, WordStats]]:
    """Per-letter stats of the composed substitution after 0, 1, ..., len(rules) levels."""
    cur = _LETTER_STATS
    out = [cur]
    for rule in rules:
        if rule.kind != "identity":
            cur = {ch: _fold_segments(rule.image_segments(ch), cur) for ch in LETTERS}
        out.append(cur)
    return [{ch: WordStats(*st[ch]) for ch in LETTERS} for st in out]


def expand_word(rules: Sequence[SubstitutionRule], letter: str = A,
                max_len: int = 100_000) -> str:
    """Materialize the composed image of `letter`, refusing budget overruns.

    The length comes from the matrix cocycle beforehand: the A- and B-words
    share the first return length and the C-word has the second.
    """
    if letter not in LETTERS:
        raise ValueError(f"unknown letter {letter!r}")
    predicted = lengths_by_level(rules)[-1][1 if letter == C else 0]
    if predicted > max_len:
        raise WordBudgetError(
            f"expansion would have {predicted} letters (budget {max_len})"
        )
    word = letter
    for rule in reversed(rules):
        word = "".join(rule.image_word(ch) for ch in word)
    return word


@dataclass(frozen=True)
class ReturnMatrix:
    """2x2 integer matrix acting on the (|A-word|, |C-word|) length pair."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("return matrices are nonnegative")
        if abs(self.det) != 1:
            raise ValueError(f"return matrices are unimodular, got det {self.det}")

    @classmethod
    def identity(cls) -> "ReturnMatrix":
        return cls(1, 0, 0, 1)

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, u: tuple[int, int]) -> tuple[int, int]:
        x, y = u
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def __matmul__(self, other: "ReturnMatrix") -> "ReturnMatrix":
        return ReturnMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))

    def top_eigenvalue(self) -> float:
        """Largest eigenvalue (meant for single-level matrices)."""
        t = self.a + self.d
        return (t + math.sqrt(t * t - 4 * self.det)) / 2


def return_matrix(rule: SubstitutionRule) -> ReturnMatrix:
    """Length-transport matrix of a rule: row 1 for the A/B word, row 2 for C."""
    if rule.kind == "identity":
        return ReturnMatrix.identity()
    if rule.kind == "odd":
        return ReturnMatrix(2 * rule.k, 1, 1, 0)
    k, a2 = rule.k, rule.a2
    base = (2 * k - 1) * a2
    if not rule.next_one:
        return ReturnMatrix(base + 1, a2, base + 2 * k, a2 + 1)
    return ReturnMatrix(base + 2 * k, a2 + 1, base + 1, a2)


def lengths_by_level(rules: Sequence[SubstitutionRule]) -> list[tuple[int, int]]:
    """(|A-word|, |C-word|) after 0, 1, ..., len(rules) levels."""
    u = (1, 1)
    out = [u]
    for rule in rules:
        u = return_matrix(rule).apply(u)
        out.append(u)
    return out


@dataclass(frozen=True)
class Levels:
    """Levels 0 .. n of one theta, each computed once.

    `traj` holds the trajectory levels 0 .. n and `rules[v]` the substitution
    at level v < n.  Indexed by v = 0 .. n: `halfsums[v]` adds E(a1)/2 over
    levels 0 .. v-1, `stats[v]` maps each letter to the stats of its level-v
    word, and `lengths[v]` is (|A-word|, |C-word|) from the matrix cocycle.
    The last two are folded on first use and kept.
    """

    traj: GapTrajectory
    rules: list[SubstitutionRule]
    halfsums: list[int]

    @cached_property
    def stats(self) -> list[dict[str, WordStats]]:
        return stats_by_level(self.rules)

    @cached_property
    def lengths(self) -> list[tuple[int, int]]:
        return lengths_by_level(self.rules)


def levels(theta: CFExpansion, n: int) -> Levels:
    """Walk the gap trajectory of theta once, to level n."""
    traj = gap_trajectory(theta, n)
    rules = [build_rule(step) for step in traj.steps[:n]]
    halfsums = list(accumulate((step.e // 2 for step in traj.steps[:n]), initial=0))
    return Levels(traj, rules, halfsums)


def lyapunov_estimate(theta: CFExpansion, n: int) -> float:
    """log of the largest return length at level n, divided by n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return math.log(max(levels(theta, n).lengths[n])) / n


@dataclass(frozen=True)
class GrowthCheck:
    """Exact three-step length growth plus a log-rate band check."""

    levels: tuple[int, ...]
    min_lengths: tuple[int, ...]
    max_lengths: tuple[int, ...]
    step_ok: tuple[bool, ...]  # min at level v >= max at level v - 3, for v >= 3
    lyap_estimate: float
    log_rate: float
    rate_in_band: bool

    @property
    def all_steps_ok(self) -> bool:
        return all(self.step_ok)


LOG_RATE_BAND = 0.2  # how far the A-length log rate may sit from the estimate


def check_length_growth(theta: CFExpansion, n: int) -> GrowthCheck:
    """Verify min length at level v dominates max length at level v - 3."""
    lens = levels(theta, n).lengths
    mins = tuple(min(u) for u in lens)
    maxs = tuple(max(u) for u in lens)
    step_ok = tuple(mins[v] >= maxs[v - 3] for v in range(3, n + 1))
    lyap = math.log(maxs[n]) / n
    log_rate = math.log(lens[n][0]) / n
    return GrowthCheck(
        levels=tuple(range(n + 1)),
        min_lengths=mins,
        max_lengths=maxs,
        step_ok=step_ok,
        lyap_estimate=lyap,
        log_rate=log_rate,
        rate_in_band=abs(log_rate - lyap) <= LOG_RATE_BAND,
    )


class SpreadBoundError(ValueError):
    """The word spread drifted outside the half-sum window."""


@dataclass(frozen=True)
class LevelIdentity:
    rho: int
    halfsum: int
    xi: int


def renorm_identity(theta: CFExpansion, n: int, check: bool = True) -> LevelIdentity:
    """Compare rho of the level-n A-word with half the even-part sum.

    The half-sum runs over levels 0 .. n-1; the residual xi stays in
    [-5, 5], which `check` enforces.
    """
    lv = levels(theta, n)
    rho = lv.stats[n][A].rho
    halfsum = lv.halfsums[n]
    xi = rho - halfsum
    if check and abs(xi) > 5:
        raise SpreadBoundError(
            f"xi = {xi} outside [-5, 5] at level {n} for theta {theta}"
        )
    return LevelIdentity(rho=rho, halfsum=halfsum, xi=xi)
