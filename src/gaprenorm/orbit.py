"""Exact direct simulation of circle rotations and their gap encodings.

A rotation by theta < 1/2 partitions the circle into A = [0, 1/2),
B = [1/2, 1 - theta) and C = [1 - theta, 1); the encoding of an orbit is the
letter sequence of x0 + j*theta mod 1.  One vectorized kernel decides the
letters of a block of start points x steps, exactly:

* a rational orbit whose common-denominator lattice fits int64 runs on that
  lattice, so every endpoint hit is an integer equality;
* every other orbit runs in 64-bit fixed point.  With T = floor(theta*2^64)
  and X = floor(x0*2^64), the position times 2^64 lies in [P_j, P_j + j + 1)
  for P_j = X + j*T mod 2^64.  A step whose enclosure holds a boundary
  (0, 1/2 or 1 - theta, a boundary equal to P_j included) or wraps past 0 is
  ambiguous; only those steps are decided from the exact coordinates with
  the exact sign test.  An endpoint hit lies on a boundary, so every hit is
  recorded, in step order, rather than guessed around.

This module is the ground truth the symbolic machinery is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import GaprenormError
from .exact import ExactReal, Surd, _sign_triplet, exact_floor
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


_BLOCK = 1 << 16  # positions (start points x steps) decided per numpy block
_ONE = 1 << 64  # the circle in 64-bit fixed point
_HALF = np.uint64(1 << 63)
_ABC = np.frombuffer((A + B + C).encode("ascii"), dtype=np.uint8)
_HIT_NAMES = ("0", "1/2", "1-theta")


def _surd_parts(x, field: Optional[Surd]) -> tuple[Fraction, Fraction]:
    """(a, b) of x = a + b*sqrt(d) in the field of `field` (rational if None)."""
    if field is None:
        return Fraction(x), Fraction(0)
    return field._coerce(x)


class _Orbits:
    """Exact letters of the orbits of x_r = (x0 + r)/grid, r < grid.

    `steps` bounds the steps that will be asked for; it decides whether a
    rational orbit fits the int64 lattice.
    """

    def __init__(self, x0: ExactReal, theta: ExactReal, grid: int, steps: int):
        field = next((v for v in (theta, x0) if isinstance(v, Surd)), None)
        d = field.d if field else 0
        if d and math.isqrt(d) ** 2 == d:
            raise ArithmeticError(f"sqrt({d}) behaved rationally; radicand a square?")
        self.d, self.grid = d, grid
        self.xa, self.xb = _surd_parts(x0, field)
        self.ta, self.tb = _surd_parts(theta, field)
        self.period = None if d else self.ta.denominator
        xden = grid * self.xa.denominator
        lat = math.lcm(xden, self.ta.denominator)
        self.lattice = not d and lat * min(steps + 1, self.period) < 1 << 63
        if self.lattice:
            self.lat, self.step = lat, self.ta.numerator * (lat // self.ta.denominator)
            r = np.arange(grid, dtype=np.int64)
            self.pos0 = (self.xa.numerator + r * self.xa.denominator) * (lat // xden)
            return
        self.T = exact_floor(theta * _ONE)
        # X_r = floor((x0 + r) * 2^64 / grid), exact in uint64 for grid < 2^32
        q, rem = divmod(_ONE, grid)
        q0, rem0 = divmod(exact_floor(x0 * _ONE), grid)
        r = np.arange(grid, dtype=np.uint64)
        self.X = (r * np.uint64(q % _ONE) + np.uint64(q0)
                  + (r * np.uint64(rem) + np.uint64(rem0)) // np.uint64(grid))

    def letters(self, rows: np.ndarray, j0: int, j1: int,
                hits: Optional[list] = None) -> np.ndarray:
        """ASCII letters of the given rows at steps j0 .. j1-1, one row each.

        A one-row call appends its endpoint hits to `hits` as (step, name).
        """
        if self.lattice:
            lat, ct = self.lat, self.lat - self.step  # ct: the point 1 - theta
            j = np.arange(j0, j1, dtype=np.int64)
            pos = (self.pos0[rows, None] + j % self.period * self.step) % lat
            out = _ABC[(pos >= lat - pos) + (pos >= ct).astype(np.intp)]
            if hits is not None:
                kind = (pos == 0) + 2 * (pos == lat - pos) + 3 * (pos == ct)
                k = np.flatnonzero(kind[0])
                names = [_HIT_NAMES[i - 1] for i in kind[0, k].tolist()]
                hits.extend(zip((j0 + k).tolist(), names))
            return out
        c = np.uint64(_ONE - self.T - 1)  # (1 - theta) * 2^64 lies in (c, c + 1]
        j = np.arange(j0, j1, dtype=np.uint64)
        p = self.X[rows, None] + j * np.uint64(self.T)
        out = _ABC[(p >= _HALF) + (p > c).astype(np.intp)]
        # a boundary in [p, p + j] (p + j + 1 for 1 - theta), or a wrap past 0
        ambiguous = (-p <= j) | (_HALF - p <= j) | (c - p + 1 <= j + 1)
        for r, k in zip(*np.nonzero(ambiguous)):
            out[r, k] = ord(self._exact(int(rows[r]), j0 + int(k), hits))
        return out

    def _exact(self, r: int, j: int, hits: Optional[list]) -> str:
        """Letter of row r at step j from the exact coordinates a + b*sqrt(d)."""
        d = self.d
        a = (self.xa + r) / self.grid + j * self.ta
        b = self.xb / self.grid + j * self.tb
        n = ((int(self.X[r]) + j * self.T) >> 64) + 1  # the floor is n or n - 1
        if _sign_triplet(a - n, b, d) < 0:
            n -= 1
        a -= n
        half = _sign_triplet(2 * a - 1, 2 * b, d)
        at_c = _sign_triplet(a - 1 + self.ta, b + self.tb, d)
        if hits is not None:
            for name, hit in zip(_HIT_NAMES, (a == 0 and b == 0, half == 0, at_c == 0)):
                if hit:
                    hits.append((j, name))
        return A if half < 0 else B if at_c < 0 else C


def encode_orbit(x0: ExactReal, theta: ExactReal, length: int) -> OrbitEncoding:
    """Letter sequence of x0, x0 + theta, ... (length symbols), exactly.

    Requires 0 < theta < 1/2 and 0 <= x0 < 1.  A rational theta whose orbit
    period is shorter than the request wraps silently but flags it.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if not (0 < theta and theta < Fraction(1, 2)):
        raise ValueError("rotation number must lie in (0, 1/2)")
    if not (0 <= x0 and x0 < 1):
        raise ValueError("starting point must lie in [0, 1)")
    orbits = _Orbits(x0, theta, 1, length)
    row, hits = np.zeros(1, dtype=np.intp), []
    symbols = "".join(
        orbits.letters(row, j, min(j + _BLOCK, length), hits).tobytes().decode("ascii")
        for j in range(0, length, _BLOCK)
    )
    return OrbitEncoding(
        x0=x0, theta=theta, symbols=symbols, endpoint_hits=hits,
        period_wrapped=orbits.period is not None and length > orbits.period,
    )


def word_weights(word: str) -> np.ndarray:
    """+1/-1 letter weights of a word as an int64 array."""
    raw = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
    return np.where(raw == ord(A), 1, -1).astype(np.int64)


@dataclass
class DiscrepancyProfile:
    """Prefix sums S_1..S_N of the letter weights and the running spread rho."""

    sums: np.ndarray
    rho: np.ndarray

    @classmethod
    def from_symbols(cls, word: str) -> "DiscrepancyProfile":
        w = word_weights(word)
        sums = np.cumsum(w)
        highs = np.maximum.accumulate(sums)
        lows = np.minimum.accumulate(sums)
        return cls(sums=sums, rho=1 + highs - lows)

    def __len__(self) -> int:
        return len(self.sums)

    def rho_at(self, n: int) -> int:
        """Spread of the first n symbols (1-indexed prefix)."""
        if not 1 <= n <= len(self.sums):
            raise ValueError(f"prefix length {n} out of range")
        return int(self.rho[n - 1])


def discrepancy_profile(enc: OrbitEncoding) -> DiscrepancyProfile:
    return DiscrepancyProfile.from_symbols(enc.symbols)


@dataclass
class EncodingMatch:
    y: Fraction
    mismatches: int
    grid_points: int
    word_length: int
    level: int


ENCODING_WORD_MAX = 100_000  # longest level word the grid search expands


def verify_encoding(theta: CFExpansion, n: int, budget: int = 2) -> EncodingMatch:
    """Search a fine grid for a point whose direct orbit encoding matches
    the level-n substitution word up to `budget` mismatches.

    The grid step is finer than half the level-n interval length, so the
    true base point cannot be skipped; failure to find any candidate raises
    rather than passing silently.
    """
    return verify_levels_encoding(level_walk(theta, n), n, budget)


def verify_levels_encoding(lv: Levels, n: int, budget: int = 2) -> EncodingMatch:
    """`verify_encoding` at level n of levels already walked to n or beyond."""
    theta_val = lv.traj.steps[0].value
    if not theta_val < Fraction(1, 2):
        raise ValueError("rotation number must lie below 1/2 for direct encoding")
    word = expand_word(lv.rules[:n], A, max_len=ENCODING_WORD_MAX)
    span = lv.traj.delta_product(n)
    grid = exact_floor(2 / span) + 1
    orbits = _Orbits(Fraction(0), theta_val, grid, len(word))
    target = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
    bad = np.zeros(grid, dtype=np.int64)
    alive = np.arange(grid)
    j0, width = 0, 8
    # chunks of doubling length; a grid point over budget drops out
    while j0 < len(word) and alive.size:
        j1 = min(len(word), j0 + width)
        per = max(1, _BLOCK // (j1 - j0))
        for i in range(0, alive.size, per):
            rows = alive[i:i + per]
            bad[rows] += (orbits.letters(rows, j0, j1) != target[j0:j1]).sum(axis=1)
        alive = alive[bad[alive] <= budget]
        j0, width = j1, min(2 * width, _BLOCK)
    scores = np.minimum(bad, budget + 1)
    t = int(np.argmin(scores))  # the first grid point with the fewest mismatches
    if scores[t] > budget:
        raise EncodingSearchError(
            f"no grid point within {budget} mismatches at level {n} "
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
    profile = discrepancy_profile(encode_orbit(y, lv.traj.steps[0].value, need))
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
