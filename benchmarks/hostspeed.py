"""Host-speed reference: a fixed big-integer loop timed beside the program.

On a shared virtual machine the host slows the guest in phases that last
from seconds to tens of minutes, and CPU time slows with wall time, so
neither clock alone tells a slower program from a slower host.  This loop
runs Euclid's algorithm on two fixed 6000-bit integers, pure-Python
big-integer arithmetic like the package's own, but calls nothing of the
package.  It is timed between the program's calls, so it slows with the host
and not with the program.

The timed end-to-end metrics are scaled by `factor`: NOMINAL_S divided by
the median loop time of the samples taken around the timed call (WINDOW
samples on either side of an item run's own sample; see `local_factors`).
They read as the time the program would take on a host where the loop takes
NOMINAL_S.  The unscaled times are
printed beside them and kept in the run record.
"""

from __future__ import annotations

import random
import statistics
import time

# the loop's time on the host the bounds were set on (2-vCPU Xeon VM)
NOMINAL_S = 3.5e-3
BITS = 6000
ROUNDS = 2
# samples on either side of an item run's own one that set its scale: the
# host's speed changes from one fraction of a second to the next
WINDOW = 5
_A = random.Random("hostspeed:a").getrandbits(BITS) | 1 << (BITS - 1)
_B = random.Random("hostspeed:b").getrandbits(BITS - 10)


def _loop() -> int:
    steps = 0
    for _ in range(ROUNDS):
        a, b = _A, _B
        while b:
            a, b = b, a % b
            steps += 1
    return steps


def sample() -> float:
    """The loop's wall time, in seconds."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def warm_up() -> None:
    """Untimed calls, so the interpreter's first-call costs stay out of samples."""
    for _ in range(5):
        _loop()


def factor(samples: list[float]) -> float:
    """The scale from measured to nominal-host time: NOMINAL_S / median loop time."""
    return NOMINAL_S / statistics.median(samples)


def local_factors(samples: list[float]) -> list[float]:
    """For each sample in time order, the factor of it and its WINDOW
    neighbours on either side."""
    return [factor(samples[max(0, k - WINDOW): k + WINDOW + 1])
            for k in range(len(samples))]
