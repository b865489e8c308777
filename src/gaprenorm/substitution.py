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

`_fold_rule` is the one definition of the images.  A level with a1 = 1
substitutes nothing; every other level, with k = a1 // 2, computes the block
X = A^k B^(k-1) once and builds every image from it with a few
concatenations, naming

    lead = A X C,   fill = X C,   bal = X B C:

    odd a1 = 2k + 1:   A -> bal,   B -> lead,   C -> A
    even a1 = 2k:
        a3 != 1:       A -> lead fill^(a2-1),   B -> bal fill^(a2-1),
                       C -> bal fill^a2 = (image of B) fill
        a3 == 1:       A -> bal fill^a2,   C -> lead fill^(a2-1),
                       B -> lead fill^a2 = (image of C) fill

The fold only concatenates and repeats, so it runs over any monoid: on
(length, total, max, min) tuples, where fill^m is repeated in closed form,
it gives `stats_by_level`, which names each result a `WordStats`, and on
strings it gives the images that `expand_word` substitutes.
`return_matrix` counts the same images' letters by hand rather than through
the fold, so the stats lengths checked against it meet an independent
derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple, Sequence

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


class WordBudgetError(ValueError):
    """A word expansion would exceed the caller's length budget."""


class WordStats(NamedTuple):
    """Length, weight sum and prefix-sum extrema of a word over {A, B, C}.

    The empty word is the monoid identity (all fields zero); for nonempty
    words the extrema run over the prefixes of length 1..length, so
    max_prefix can be negative and min_prefix positive.

    A nonempty word has min_prefix <= total <= max_prefix, and the fold
    keeps it: `_concat` takes max(s.max, s.total + t.max) >= s.total + t.total,
    and `_repeat` takes hi + (c - 1)*total >= c*total when total >= 0 and
    hi >= total >= c*total otherwise; the min side is the mirror image.  So
    no stats the fold builds can break it, and nothing checks it here.
    """

    length: int
    total: int
    max_prefix: int
    min_prefix: int

    @classmethod
    def of_word(cls, word: str) -> "WordStats":
        """Direct single pass over the letters."""
        sums = list(accumulate(WEIGHT[ch] for ch in word))
        if not sums:
            return cls(0, 0, 0, 0)
        return cls(len(word), sums[-1], max(sums), min(sums))

    @property
    def rho(self) -> int:
        """Spread 1 + max - min of the prefix-sum walk (nonempty words only)."""
        if self.length == 0:
            raise ValueError("rho of the empty word is undefined")
        return 1 + self.max_prefix - self.min_prefix


def _concat(s: tuple, t: tuple) -> tuple:
    """Stats of the concatenation, on (length, total, max, min) tuples."""
    if not s[0]:
        return t
    if not t[0]:
        return s
    total = s[1]
    return (s[0] + t[0], total + t[1], max(s[2], total + t[2]),
            min(s[3], total + t[3]))


def _repeat(s: tuple, count: int) -> tuple:
    """Stats of the word repeated count >= 1 times.

    Copy j shifts every prefix sum by j * total, so the maximum sits in the
    last copy when total > 0 and in the first otherwise; the minimum too,
    the other way round.
    """
    length, total, hi, lo = s
    more = count - 1
    return (count * length, count * total, hi + more * max(total, 0),
            lo + more * min(total, 0))


@dataclass(frozen=True)
class SubstitutionRule:
    """The letter substitution induced by one renormalization level.

    A rule is named by its level's quotients, like its `PartitionCell`: a1
    alone when a1 is odd (a1 = 1 substitutes nothing), and (a1, a2 >= 1,
    next_one) when a1 is even, where `next_one` says whether a3 is 1.  Any
    other name raises ValueError, so each rule has one.  `_fold_rule` builds
    the images.
    """

    a1: int
    a2: int = 0
    next_one: bool = False

    def __post_init__(self):
        even = self.a1 % 2 == 0
        if self.a1 < 1 or self.a2 < 0 or (self.a2 >= 1) != even or self.next_one > even:
            raise ValueError(f"no such rule: {self!r}")


_LETTER_STATS = tuple((1, WEIGHT[ch], WEIGHT[ch], WEIGHT[ch]) for ch in LETTERS)


def _fold_rule(rule: SubstitutionRule, a, b, c, cat=_concat, rep=_repeat):
    """The images of A, B and C under one rule, in any monoid.

    a, b and c are the (nonempty) letter words, or their stats; `cat`
    concatenates two of them and `rep` repeats one count >= 1 times.  The
    images are built from the shared block X = A^k B^(k-1) as the module
    docstring lays out.
    """
    if rule.a1 == 1:
        return a, b, c
    k = rule.a1 // 2
    x = rep(a, k)
    if k > 1:
        x = cat(x, rep(b, k - 1))
    fill = cat(x, c)
    lead = cat(a, fill)
    bal = cat(cat(x, b), c)
    if rule.a1 % 2:
        return bal, lead, a
    if rule.next_one:
        a_img = cat(bal, rep(fill, rule.a2))
        c_img = cat(lead, rep(fill, rule.a2 - 1)) if rule.a2 > 1 else lead
        return a_img, cat(c_img, fill), c_img
    if rule.a2 > 1:
        fills = rep(fill, rule.a2 - 1)
        lead, bal = cat(lead, fills), cat(bal, fills)
    return lead, bal, cat(bal, fill)


# rules are immutable, so build_rule hands out shared ones; the bound keeps a
# long sampled run, which meets thousands of distinct rules, in fixed memory
RULE_CACHE_MAX = 1024
_shared_rule = lru_cache(maxsize=RULE_CACHE_MAX)(SubstitutionRule)


def build_rule(cf: CFExpansion | TrajectoryStep) -> SubstitutionRule:
    """Substitution induced at the level whose expansion is `cf`.

    A trajectory step serves as well: a1, a2 and a3 are read from its view.
    Equal quotients give the same instance, from a cache of RULE_CACHE_MAX.
    """
    a1 = cf.head
    if a1 % 2:
        return _shared_rule(a1)
    if not cf.available(3):
        raise ExpansionExhaustedError(
            "even-level rule needs quotients a2 and a3"
        )
    return _shared_rule(a1, cf.quotient(2), cf.quotient(3) == 1)


def rules_along(theta: CFExpansion, n: int) -> list[SubstitutionRule]:
    """Rules at levels 0 .. n-1 of the gap trajectory of theta."""
    return levels(theta, n).rules


def stats_by_level(rules: Sequence[SubstitutionRule]) -> list[dict[str, WordStats]]:
    """Per-letter stats of the composed substitution after 0, 1, ..., len(rules) levels.

    An identity level shares the previous level's dict.
    """
    make = WordStats._make
    a, b, c = _LETTER_STATS
    out = [{A: make(a), B: make(b), C: make(c)}]
    for rule in rules:
        if rule.a1 == 1:
            out.append(out[-1])
        else:
            a, b, c = _fold_rule(rule, a, b, c)
            out.append({A: make(a), B: make(b), C: make(c)})
    return out


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
        images = _fold_rule(rule, A, B, C, str.__add__, str.__mul__)
        word = word.translate(dict(zip(map(ord, LETTERS), images)))
    return word


def return_matrix(rule: SubstitutionRule) -> tuple[int, int, int, int]:
    """(a, b, c, d): the rule's matrix on (|A-word|, |C-word|), row 2 for C.

    With k = a1 // 2 and base = (2k - 1)*a2, every entry is non-negative:

        a1 = 1        [[1, 0], [0, 1]]                       det 1
        a1 = 2k + 1   [[2k, 1], [1, 0]]                      det -1
        a1 = 2k       [[base + 1, a2], [base + 2k, a2 + 1]]  det 1, as
                      (base + 1)(a2 + 1) - a2*(base + 2k) = base + 1 - (2k - 1)*a2;
                      next_one (a3 = 1) swaps the rows       det -1
    """
    a1, a2 = rule.a1, rule.a2
    if a1 == 1:
        return 1, 0, 0, 1
    if a1 % 2:
        return a1 - 1, 1, 1, 0
    base = (a1 - 1) * a2
    if not rule.next_one:
        return base + 1, a2, base + a1, a2 + 1
    return base + a1, a2 + 1, base + 1, a2


def lengths_by_level(rules: Sequence[SubstitutionRule]) -> list[tuple[int, int]]:
    """(|A-word|, |C-word|) after 0, 1, ..., len(rules) levels."""
    x = y = 1
    out = [(x, y)]
    for rule in rules:
        a, b, c, d = return_matrix(rule)
        x, y = a * x + b * y, c * x + d * y
        out.append((x, y))
    return out


@dataclass(frozen=True)
class Levels:
    """Levels 0 .. n of one theta: a lazy view of its gap trajectory `traj`.

    Every other part is computed from `traj.steps[:-1]` on first read and
    kept.  `rules[v]` is the substitution at level v < n.  Indexed by
    v = 0 .. n: `halfsums[v]` adds E(a1)/2 over levels 0 .. v-1 and builds no
    rule, `stats[v]` maps each letter to the stats of its level-v word, and
    `lengths[v]` is (|A-word|, |C-word|) from the matrix cocycle.  theta's
    exact value is `traj.theta_value`.  Reading a part raises nothing that
    `gap_trajectory` did not: it checked every quotient a rule reads.
    """

    traj: GapTrajectory

    @cached_property
    def rules(self) -> list[SubstitutionRule]:
        return [build_rule(step) for step in self.traj.steps[:-1]]

    @cached_property
    def halfsums(self) -> list[int]:
        return list(accumulate((step.e // 2 for step in self.traj.steps[:-1]), initial=0))

    @cached_property
    def stats(self) -> list[dict[str, WordStats]]:
        return stats_by_level(self.rules)

    @cached_property
    def lengths(self) -> list[tuple[int, int]]:
        return lengths_by_level(self.rules)


def levels(theta: CFExpansion, n: int) -> Levels:
    """Walk the gap trajectory of theta once, to level n."""
    return Levels(gap_trajectory(theta, n))


class SpreadBoundError(ValueError):
    """The word spread drifted outside the half-sum window."""


@dataclass(frozen=True)
class LevelIdentity:
    rho: int
    halfsum: int
    xi: int


def renorm_identity(theta: CFExpansion, n: int) -> LevelIdentity:
    """Compare rho of the level-n A-word with half the even-part sum.

    The half-sum runs over levels 0 .. n-1; the residual xi stays in
    [-5, 5], and SpreadBoundError reports a level where it does not.
    """
    lv = levels(theta, n)
    rho = lv.stats[n][A].rho
    halfsum = lv.halfsums[n]
    xi = rho - halfsum
    if abs(xi) > 5:
        raise SpreadBoundError(
            f"xi = {xi} outside [-5, 5] at level {n} for theta {theta}"
        )
    return LevelIdentity(rho=rho, halfsum=halfsum, xi=xi)
