"""A fixed computation that measures how fast the host runs right now.

On a shared host the same batch can take 3.0 s in one minute and 5.1 s a few
minutes later.  Timing this reference alongside the workload and dividing by
it cancels most of that drift: on such a host three runs of the identical
cohomology batch measured 2.98, 3.85 and 5.14 s, and 688, 675 and 704
reference units.  The reference exercises what the library's hot loops do
(sparse products accumulated in a dict keyed by exponent tuples, with
Fraction coefficients) but none of the library's code, so changes to the
library never change it.  It must stay as it is: changing it rescales every
normalized time.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from random import Random
from time import perf_counter

# Normalized times are in seconds of a host on which one probe takes this long.
PROBE_SECONDS = 0.005


def _polynomial(rng: Random, terms: int) -> dict:
    return {
        (rng.randrange(4), rng.randrange(4), rng.randrange(4)): Fraction(
            rng.randint(-9, 9), rng.randint(1, 9)
        )
        for _ in range(terms)
    }


_RNG = Random(0)
_LEFT = _polynomial(_RNG, 60)
_RIGHT = _polynomial(_RNG, 60)


def _product_seconds() -> float:
    start = perf_counter()
    acc: dict = {}
    for (a0, a1, a2), left in _LEFT.items():
        for (b0, b1, b2), right in _RIGHT.items():
            key = (a0 + b0, a1 + b1, a2 + b2)
            acc[key] = acc.get(key, 0) + left * right
    return perf_counter() - start


def probe() -> float:
    """Seconds one fixed sparse product takes now: the median of three."""
    return statistics.median(_product_seconds() for _ in range(3))


def normalized(seconds: float, probes: list[float]) -> float:
    """Measured seconds rescaled to a host on which a probe takes PROBE_SECONDS,
    using the median of the probes taken around the measured work."""
    return seconds * PROBE_SECONDS / statistics.median(probes)
