"""Exact direct simulation of circle rotations and their gap encodings.

A rotation by theta < 1/2 partitions the circle into A = [0, 1/2),
B = [1/2, 1 - theta) and C = [1 - theta, 1); the encoding of an orbit is the
letter sequence of x0 + j*theta mod 1.  One vectorized kernel decides the
letters of an orbit a block of steps at a time, exactly, in 64-bit fixed
point.  With T = floor(theta*2^64) and X = floor(x0*2^64), the position times
2^64 lies in [P_j, P_j + j + 1) for P_j = X + j*T mod 2^64.  A step whose
enclosure holds a boundary (0, 1/2 or 1 - theta, a boundary equal to P_j
included) or wraps past 0 is ambiguous; only those steps are decided again,
in exact arithmetic on x0 and theta as given (Fractions or Surds).  An
endpoint hit lies on a boundary, so every hit is recorded, in step order,
rather than guessed around.

A rational orbit of theta = p/q repeats after q steps, so only its first
period is decided; the rest of its letters and hits are copies.

The encoding search compares a level word with the orbits of a whole grid of
start points.  Each letter's start points at a given step form one arc of
the circle, so the mismatches of every grid point are counted at once, in
one pass over the word, and only the ambiguous steps next to an arc's end
are decided one at a time.

This module is the ground truth the symbolic machinery is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import GaprenormError
from .exact import ExactReal, Surd, exact_floor
from .cf import CFExpansion
from .substitution import A, B, C, Levels, expand_word, levels as level_walk


class EncodingSearchError(GaprenormError):
    """No grid point reproduced the symbolic word within the mismatch budget."""


@dataclass
class OrbitEncoding:
    x0: ExactReal
    theta: ExactReal
    symbols: str
    endpoint_hits: list[tuple[int, str]]
    period_wrapped: bool = False


_BLOCK = 1 << 16  # steps decided per numpy block
_ONE = 1 << 64  # the circle in 64-bit fixed point
_HALF = np.uint64(1 << 63)
_ABC = np.frombuffer((A + B + C).encode("ascii"), dtype=np.uint8)
_HIT_NAMES = ("0", "1/2", "1-theta")
# longest orbit `encode_orbit` decides; at 10**7 symbols boundedpq peaks near 0.5 GB
ORBIT_LENGTH_MAX = 10**7


class _Orbits:
    """Exact letters of the orbits of x_r = (x0 + r)/grid, r < grid."""

    def __init__(self, x0: ExactReal, theta: ExactReal, grid: int):
        field = next((v for v in (theta, x0) if isinstance(v, Surd)), None)
        d = field.d if field else 0
        if d and math.isqrt(d) ** 2 == d:
            raise ArithmeticError(f"sqrt({d}) behaved rationally; radicand a square?")
        if isinstance(x0, Surd) and isinstance(theta, Surd):
            x0 + theta  # two fields raise "cannot mix" here, before any letter
        # an int or a float runs as the Fraction of its value
        x0, theta = (v if isinstance(v, Surd) else Fraction(v) for v in (x0, theta))
        self.x0, self.theta, self.grid = x0, theta, grid
        # a rational orbit repeats after theta's denominator of steps
        self.period = theta.denominator if field is None else None
        self.T = exact_floor(theta * _ONE)
        # X_r = floor((x0 + r) * 2^64 / grid), exact in uint64 for grid < 2^32
        q, rem = divmod(_ONE, grid)
        q0, rem0 = divmod(exact_floor(x0 * _ONE), grid)
        r = np.arange(grid, dtype=np.uint64)
        self.X = (r * np.uint64(q % _ONE) + np.uint64(q0)
                  + (r * np.uint64(rem) + np.uint64(rem0)) // np.uint64(grid))

    def letters(self, row: int, j0: int, j1: int,
                hits: Optional[list] = None) -> np.ndarray:
        """ASCII letters of one row at steps j0 .. j1-1.

        Endpoint hits are appended to `hits` as (step, name).
        """
        j = np.arange(j0, j1, dtype=np.uint64)
        out, ambiguous = self._fast(self.X[row] + j * np.uint64(self.T), j)
        for k in np.flatnonzero(ambiguous).tolist():
            out[k] = ord(self._exact(row, j0 + k, hits))
        return out

    def _fast(self, p: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fixed-point letters of positions p at steps j, and which are
        ambiguous: a boundary in [p, p + j] (p + j + 1 for 1 - theta), or a
        wrap past 0."""
        c = np.uint64(_ONE - self.T - 1)  # (1 - theta) * 2^64 lies in (c, c + 1]
        out = _ABC[(p >= _HALF) + (p > c).astype(np.intp)]
        return out, (-p <= j) | (_HALF - p <= j) | (c - p + 1 <= j + 1)

    def _exact(self, r: int, j: int, hits: Optional[list]) -> str:
        """Letter of row r at step j, decided in exact arithmetic."""
        pos = (self.x0 + r) / self.grid + j * self.theta
        pos -= exact_floor(pos)
        half, at_c = Fraction(1, 2), 1 - self.theta
        if hits is not None:
            hits.extend((j, name) for name, point in zip(_HIT_NAMES, (0, half, at_c))
                        if pos == point)
        return A if pos < half else B if pos < at_c else C

    def mismatches(self, word: np.ndarray) -> np.ndarray:
        """Per row, the steps 0 .. len(word)-1 whose letter differs from the
        ASCII `word` (letters A, B, C), counted without simulating a row.

        The starts x_r increase with r and stay in [0, 1), so at step j the
        rows reading A, B or C form three cyclic ranges of r.  Their ends are
        the ranks (rows below) of the cuts: the boundaries 0, 1/2 and
        1 - theta shifted back by j*theta.  Each step adds the range of its
        word letter to a cyclic difference array.

        In fixed point a fast letter is wrong only where a boundary lies in
        (P_j, P_j + j + 1], so only the last row before each cut can hold a
        wrong one: a window of j + 1 units holds one start when
        grid * (J + 3) < 2^64.  Those rows' ambiguous steps are decided
        exactly.
        """
        J, G = len(word), self.grid
        j = np.arange(J)
        T, steps = np.uint64(self.T), j.astype(np.uint64)
        keys = np.array([0, 1 << 63, (_ONE - self.T) % _ONE], dtype=np.uint64)
        cut = keys[:, None] - steps * T
        # with y = cut * G / 2^64 the rank is floor(y) or floor(y) + 1;
        # floor(y) in two 32-bit halves of cut, then one exact step up
        w, g = np.uint64(32), np.uint64(G)
        low = cut & np.uint64(0xFFFFFFFF)
        rank = (((cut >> w) * g + (low * g >> w)) >> w).astype(np.intp)
        # X between its last start, one turn back, and 2^64 - 1
        ring = np.concatenate([self.X[-1:], self.X, [np.uint64(_ONE - 1)]])
        rank += np.take(ring, rank + 1) < cut
        letter = word.astype(np.intp) - ord(A)
        # the word letter's arc runs from its own cut to the next letter's
        start, end = letter * J + j, (letter + 1) % 3 * J + j
        matched = (np.bincount(np.take(rank, start), minlength=G + 1)
                   - np.bincount(np.take(rank, end), minlength=G + 1))
        # an arc whose start cut lies above its end cut wraps round to row 0
        matched[0] += np.count_nonzero(np.take(cut, start) > np.take(cut, end))
        bad = J - np.cumsum(matched[:G])
        # the last row before each cut, if within j + 1 of it
        near = np.flatnonzero(cut - np.take(ring, rank) <= steps + np.uint64(1))
        # each (row, step) once: cuts closer than a step share their last row
        rows, at = np.divmod(np.unique((np.take(rank, near) - 1) % G * J + near % J), J)
        fast, ambiguous = self._fast(self.X[rows] + steps[at] * T, steps[at])
        for r, s, f in zip(rows[ambiguous].tolist(), at[ambiguous].tolist(),
                           fast[ambiguous].tolist()):
            want = int(word[s])
            bad[r] += (ord(self._exact(r, s, None)) != want) - (f != want)
        return bad


def encode_orbit(x0: ExactReal, theta: ExactReal, length: int) -> OrbitEncoding:
    """Letter sequence of x0, x0 + theta, ... (length symbols), exactly.

    Requires 0 < theta < 1/2, 0 <= x0 < 1 and length <= ORBIT_LENGTH_MAX.
    The orbit of a rational theta = p/q repeats every q steps, so only its
    first min(length, q) symbols are decided; the rest, endpoint hits
    included, are copies of them, and `period_wrapped` flags a request
    longer than q.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length > ORBIT_LENGTH_MAX:
        raise ValueError(
            f"orbit length {length} exceeds the budget of {ORBIT_LENGTH_MAX}")
    if not (0 < theta and theta < Fraction(1, 2)):
        raise ValueError("rotation number must lie in (0, 1/2)")
    if not (0 <= x0 and x0 < 1):
        raise ValueError("starting point must lie in [0, 1)")
    orbits = _Orbits(x0, theta, 1)
    n = length if orbits.period is None else min(length, orbits.period)
    hits = []
    symbols = "".join(
        orbits.letters(0, j, min(j + _BLOCK, n), hits).tobytes().decode("ascii")
        for j in range(0, n, _BLOCK)
    )
    if n < length:
        symbols = symbols * (length // n) + symbols[: length % n]
        hits = [(j + k, name) for k in range(0, length, n) for j, name in hits
                if j + k < length]
    return OrbitEncoding(
        x0=x0, theta=theta, symbols=symbols, endpoint_hits=hits,
        period_wrapped=n < length,
    )


@dataclass
class DiscrepancyProfile:
    """Prefix sums S_1..S_N of the letter weights and the running spread rho."""

    sums: np.ndarray
    rho: np.ndarray

    def rho_at(self, n: int) -> int:
        """Spread of the first n symbols (1-indexed prefix)."""
        if not 1 <= n <= len(self.sums):
            raise ValueError(f"prefix length {n} out of range")
        return int(self.rho[n - 1])


def discrepancy_profile(symbols: str) -> DiscrepancyProfile:
    """Profile of a word whose letter A weighs +1 and B and C weigh -1."""
    raw = np.frombuffer(symbols.encode("ascii"), dtype=np.uint8)
    sums = np.cumsum(np.where(raw == ord(A), 1, -1).astype(np.int64))
    rho = 1 + np.maximum.accumulate(sums) - np.minimum.accumulate(sums)
    return DiscrepancyProfile(sums=sums, rho=rho)


@dataclass
class EncodingMatch:
    y: Fraction
    mismatches: int
    grid_points: int
    word_length: int
    level: int


# most grid points the search counts.  A grid runs 2-3 times its word's
# length, up to about 300,000 points at WORD_LEN_MAX; the cap keeps
# grid * (WORD_LEN_MAX + 3) < 2^64, as `_Orbits.mismatches` needs.
GRID_MAX = 1 << 20
ENCODING_MISMATCH_MAX = 2  # boundary mismatches a matching grid point may have


def verify_encoding(theta: CFExpansion, n: int) -> EncodingMatch:
    """Find the first point of a fine grid whose direct orbit encoding
    matches the level-n substitution word with the fewest mismatches, at
    most ENCODING_MISMATCH_MAX.

    The grid step is finer than half the level-n interval length, so the
    true base point cannot be skipped.  Every grid point's mismatches are
    counted exactly in one pass over the word (`_Orbits.mismatches`);
    failure to find any candidate raises rather than passing silently.
    """
    lv = level_walk(theta, n)
    theta_val = lv.traj.theta_value
    if not theta_val < Fraction(1, 2):
        raise ValueError("rotation number must lie below 1/2 for direct encoding")
    word = expand_word(lv.rules, A)
    grid = exact_floor(2 / lv.traj.delta_product(n)) + 1
    if grid > GRID_MAX:
        raise EncodingSearchError(
            f"grid of {grid} points at level {n} exceeds the search budget "
            f"of {GRID_MAX} points"
        )
    orbits = _Orbits(Fraction(0), theta_val, grid)
    bad = orbits.mismatches(np.frombuffer(word.encode("ascii"), dtype=np.uint8))
    scores = np.minimum(bad, ENCODING_MISMATCH_MAX + 1)
    t = int(np.argmin(scores))  # the first grid point with the fewest mismatches
    if scores[t] > ENCODING_MISMATCH_MAX:
        raise EncodingSearchError(
            f"no grid point within {ENCODING_MISMATCH_MAX} mismatches at level {n} "
            f"(grid {grid}, word length {len(word)})"
        )
    return EncodingMatch(
        y=Fraction(t, grid), mismatches=int(scores[t]), grid_points=grid,
        word_length=len(word), level=n,
    )


SANDWICH_SLACK = 10  # spread slack of both sandwich bounds


@dataclass
class SandwichCheck:
    level: int
    rho_prev: int
    rho_level: int
    spread_lower_window: int  # orbit spread over 2*max return length symbols
    spread_upper_window: int  # orbit spread over min return length symbols
    lower_ok: bool
    upper_ok: bool

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def sandwich_sweep(y: ExactReal, theta: CFExpansion,
                   n_max: int) -> list[SandwichCheck]:
    """Squeeze the orbit spread of y between consecutive level spreads.

    Any orbit window of min-return-length symbols has spread at most twice
    the level-n word spread, and any window of 2*max-return-length symbols
    has spread at least the level-(n-1) word spread, up to SANDWICH_SLACK.
    One orbit encoding serves every level 1..n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return sandwich_levels_sweep(y, level_walk(theta, n_max), n_max)


def sandwich_levels_sweep(y: ExactReal, lv: Levels,
                          n_max: int) -> list[SandwichCheck]:
    """`sandwich_sweep` over levels already walked to n_max or beyond."""
    if not 1 <= n_max <= len(lv.rules):
        raise ValueError(f"n_max must lie in 1..{len(lv.rules)}")
    need = 2 * max(lv.lengths[n_max])
    profile = discrepancy_profile(encode_orbit(y, lv.traj.theta_value, need).symbols)
    out = []
    for n in range(1, n_max + 1):
        rho_prev, rho_level = lv.stats[n - 1][A].rho, lv.stats[n][A].rho
        lower_window = profile.rho_at(2 * max(lv.lengths[n]))
        upper_window = profile.rho_at(min(lv.lengths[n]))
        out.append(SandwichCheck(
            level=n, rho_prev=rho_prev, rho_level=rho_level,
            spread_lower_window=lower_window,
            spread_upper_window=upper_window,
            lower_ok=lower_window >= rho_prev - SANDWICH_SLACK,
            upper_ok=upper_window <= 2 * rho_level + SANDWICH_SLACK,
        ))
    return out
