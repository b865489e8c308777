"""Exact direct simulation of circle rotations and their gap encodings.

A rotation by theta < 1/2 partitions the circle into A = [0, 1/2),
B = [1/2, 1 - theta) and C = [1 - theta, 1); the encoding of an orbit is the
letter sequence of x0 + j*theta mod 1.  Everything here is exact: rational
orbits run on a common-denominator integer lattice, quadratic-irrational
ones on integer coefficient pairs, and the half-open convention is applied
literally, with every endpoint hit recorded rather than guessed around.

This module is the ground truth the symbolic machinery is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exact import ExactReal, Surd, _sign_triplet, exact_floor
from .cf import CFExpansion
from .substitution import A, B, C, Levels, expand_word, levels as level_walk


class EncodingSearchError(RuntimeError):
    """No grid point reproduced the symbolic word within the mismatch budget."""


@dataclass
class OrbitEncoding:
    x0: ExactReal
    theta: ExactReal
    symbols: str
    endpoint_hits: list[tuple[int, str]]
    period_wrapped: bool = False


def _as_fraction(x) -> Optional[Fraction]:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return None


def _encode_rational(x0: Fraction, theta: Fraction, length: int):
    lat = math.lcm(x0.denominator, theta.denominator)
    pos = x0.numerator * (lat // x0.denominator)
    step = theta.numerator * (lat // theta.denominator)
    ct = lat - step  # the point 1 - theta on the lattice
    out = []
    hits = []
    for j in range(length):
        if pos == 0:
            hits.append((j, "0"))
        two = 2 * pos
        if two == lat:
            hits.append((j, "1/2"))
        if pos == ct:
            hits.append((j, "1-theta"))
        if two < lat:
            out.append(A)
        elif pos < ct:
            out.append(B)
        else:
            out.append(C)
        pos += step
        if pos >= lat:
            pos -= lat
    period = lat // math.gcd(step, lat)
    return "".join(out), hits, length > period


def _surd_parts(x, d: int) -> tuple[Fraction, Fraction]:
    if isinstance(x, Surd):
        if x.d != d:
            raise ValueError("mixed radicands in one orbit")
        return x.a, x.b
    return Fraction(x), Fraction(0)


def _encode_surd(x0: ExactReal, theta: ExactReal, length: int):
    d = theta.d if isinstance(theta, Surd) else x0.d
    xa, xb = _surd_parts(x0, d)
    ta, tb = _surd_parts(theta, d)
    den = math.lcm(
        xa.denominator, xb.denominator, ta.denominator, tb.denominator
    )
    # position = (pa + pb*sqrt(d)) / den throughout
    pa = int(xa * den)
    pb = int(xb * den)
    sa = int(ta * den)
    sb = int(tb * den)
    ca, cb = den - sa, -sb  # the point 1 - theta
    out = []
    hits = []
    for j in range(length):
        if pa == 0 and pb == 0:
            hits.append((j, "0"))
        half = _sign_triplet(2 * pa - den, 2 * pb, d)
        if half == 0:
            hits.append((j, "1/2"))
        at_c = _sign_triplet(pa - ca, pb - cb, d)
        if at_c == 0:
            hits.append((j, "1-theta"))
        if half < 0:
            out.append(A)
        elif at_c < 0:
            out.append(B)
        else:
            out.append(C)
        pa += sa
        pb += sb
        if _sign_triplet(pa - den, pb, d) >= 0:
            pa -= den
    return "".join(out), hits, False


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
    tf = _as_fraction(theta)
    xf = _as_fraction(x0)
    if tf is not None and xf is not None:
        symbols, hits, wrapped = _encode_rational(xf, tf, length)
    else:
        symbols, hits, wrapped = _encode_surd(x0, theta, length)
    return OrbitEncoding(
        x0=x0, theta=theta, symbols=symbols,
        endpoint_hits=hits, period_wrapped=wrapped,
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

    def rows(self) -> list[dict]:
        return [
            {"i": i + 1, "S_i": int(s), "rho_i": int(r)}
            for i, (s, r) in enumerate(zip(self.sums, self.rho))
        ]


def discrepancy_profile(enc: OrbitEncoding) -> DiscrepancyProfile:
    return DiscrepancyProfile.from_symbols(enc.symbols)


def encode_run_length(word: str) -> str:
    """Compact run-length text: 'AACAC' -> 'A2 C A C'."""
    if not word:
        return ""
    out = []
    run_ch, run_len = word[0], 1
    for ch in word[1:]:
        if ch == run_ch:
            run_len += 1
        else:
            out.append(run_ch + (str(run_len) if run_len > 1 else ""))
            run_ch, run_len = ch, 1
    out.append(run_ch + (str(run_len) if run_len > 1 else ""))
    return " ".join(out)


def decode_run_length(text: str) -> str:
    parts = text.split()
    out = []
    for tok in parts:
        ch, cnt = tok[0], tok[1:]
        if ch not in (A, B, C):
            raise ValueError(f"bad run token {tok!r}")
        out.append(ch * (int(cnt) if cnt else 1))
    return "".join(out)


def _mismatches_rational(y: Fraction, theta: Fraction, word: str, budget: int) -> int:
    lat = math.lcm(y.denominator, theta.denominator)
    pos = y.numerator * (lat // y.denominator)
    step = theta.numerator * (lat // theta.denominator)
    ct = lat - step
    bad = 0
    for ch in word:
        two = 2 * pos
        if two < lat:
            sym = A
        elif pos < ct:
            sym = B
        else:
            sym = C
        if sym != ch:
            bad += 1
            if bad > budget:
                return bad
        pos += step
        if pos >= lat:
            pos -= lat
    return bad


def _mismatches_surd(y: Fraction, theta: Surd, word: str, budget: int) -> int:
    d = theta.d
    den = math.lcm(y.denominator, theta.a.denominator, theta.b.denominator)
    pa = int(y * den)
    pb = 0
    sa = int(theta.a * den)
    sb = int(theta.b * den)
    ca, cb = den - sa, -sb
    bad = 0
    for ch in word:
        if _sign_triplet(2 * pa - den, 2 * pb, d) < 0:
            sym = A
        elif _sign_triplet(pa - ca, pb - cb, d) < 0:
            sym = B
        else:
            sym = C
        if sym != ch:
            bad += 1
            if bad > budget:
                return bad
        pa += sa
        pb += sb
        if _sign_triplet(pa - den, pb, d) >= 0:
            pa -= den
    return bad


@dataclass
class EncodingMatch:
    y: Fraction
    mismatches: int
    grid_points: int
    word_length: int
    level: int


def verify_encoding(theta: CFExpansion, n: int, grid_refinement: int = 1,
                    max_word: int = 100_000, budget: int = 2) -> EncodingMatch:
    """Search a fine grid for a point whose direct orbit encoding matches
    the level-n substitution word up to `budget` mismatches.

    The grid step is finer than half the level-n interval length, so the
    true base point cannot be skipped; failure to find any candidate raises
    rather than passing silently.
    """
    return verify_levels_encoding(level_walk(theta, n), n, grid_refinement,
                                  max_word, budget)


def verify_levels_encoding(lv: Levels, n: int, grid_refinement: int = 1,
                           max_word: int = 100_000,
                           budget: int = 2) -> EncodingMatch:
    """`verify_encoding` at level n of levels already walked to n or beyond."""
    if grid_refinement < 1:
        raise ValueError("grid refinement must be >= 1")
    theta_val = lv.traj.steps[0].value
    if not theta_val < Fraction(1, 2):
        raise ValueError("rotation number must lie below 1/2 for direct encoding")
    word = expand_word(lv.rules[:n], A, max_len=max_word)
    span = lv.traj.delta_product(n)
    grid = (exact_floor(2 / span) + 1) * grid_refinement
    surd = isinstance(theta_val, Surd)
    best_bad = budget + 1
    best_y = None
    for t in range(grid):
        y = Fraction(t, grid)
        if surd:
            bad = _mismatches_surd(y, theta_val, word, budget)
        else:
            bad = _mismatches_rational(y, theta_val, word, budget)
        if bad < best_bad:
            best_bad, best_y = bad, y
            if best_bad == 0:
                break
    if best_bad > budget:
        raise EncodingSearchError(
            f"no grid point within {budget} mismatches at level {n} "
            f"(grid {grid}, word length {len(word)})"
        )
    return EncodingMatch(
        y=best_y, mismatches=best_bad, grid_points=grid,
        word_length=len(word), level=n,
    )


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


def _sandwich_from_profile(profile: DiscrepancyProfile, level: int,
                           rho_prev: int, rho_level: int,
                           len_min: int, len_max: int, slack: int) -> SandwichCheck:
    lower_window = profile.rho_at(2 * len_max)
    upper_window = profile.rho_at(len_min)
    return SandwichCheck(
        level=level,
        rho_prev=rho_prev,
        rho_level=rho_level,
        spread_lower_window=lower_window,
        spread_upper_window=upper_window,
        lower_ok=lower_window >= rho_prev - slack,
        upper_ok=upper_window <= 2 * rho_level + slack,
    )


def sandwich_check(y: ExactReal, theta: CFExpansion, n: int,
                   slack: int = 10) -> SandwichCheck:
    """Squeeze the orbit spread of y between consecutive level spreads.

    Any orbit window of min-return-length symbols has spread at most twice
    the level-n word spread, and any window of 2*max-return-length symbols
    has spread at least the level-(n-1) word spread, up to the slack.
    """
    checks = sandwich_sweep(y, theta, n, levels=[n], slack=slack)
    return checks[0]


def sandwich_sweep(y: ExactReal, theta: CFExpansion, n_max: int,
                   levels: Optional[Sequence[int]] = None,
                   slack: int = 10) -> list[SandwichCheck]:
    """sandwich_check for many levels off a single orbit encoding."""
    if levels is None:
        levels = range(1, n_max + 1)
    levels = sorted(set(levels))
    if not levels or levels[0] < 1 or levels[-1] > n_max:
        raise ValueError("levels must lie in 1..n_max")
    lv = level_walk(theta, n_max)
    need = 2 * max(lv.lengths[n_max])
    profile = discrepancy_profile(encode_orbit(y, lv.traj.steps[0].value, need))
    out = []
    for n in levels:
        out.append(_sandwich_from_profile(
            profile, n,
            rho_prev=lv.stats[n - 1][A].rho,
            rho_level=lv.stats[n][A].rho,
            len_min=min(lv.lengths[n]),
            len_max=max(lv.lengths[n]),
            slack=slack,
        ))
    return out
