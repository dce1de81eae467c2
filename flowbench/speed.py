"""Machine-speed reference, for times that do not drift with the host's load.

The benchmark machine is a virtual machine on a shared host whose speed for
pure-Python work changes by up to 1.8x for seconds to tens of seconds at a
time, which moved raw wall times of one op stream by up to 50% from run to
run.  To cancel most of that drift, the benchmark times a fixed reference
computation (an exact rational product of two sparse polynomials, the kind of
work flowvol does, written here so that no change to flowvol can alter it)
every ``EVERY_S`` seconds during a stream, and reports op times normalised to
nominal speed:

    normalised = measured * NOMINAL_S / (mean of the nearby reference samples)

The host's speed is bimodal rather than spread around one value, so the mean
of the samples, which weighs fast and slow spells by how long they last,
tracks it far better than their median.  On three repeated runs each of two
streams, the raw wall times varied by 4% (volume-deep) and 15%
(certify-deep), as coefficients of variation, and the normalised ones by 1%
and 2%.  The correction holds only as far as the reference and flowvol slow
down alike; the residue shows in the benchmark's spread.

NOMINAL_S is the reference's time in the slower, more common mode of the
2-core x86-64 container that defined the benchmark (Python 3.11), so
normalised times read as seconds on that machine in that mode.  Raw times
are reported beside them.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction
from typing import Sequence

NOMINAL_S = 0.0022
EVERY_S = 0.1
NEARBY = 2  # samples on each side of the one preceding an op

_LEFT = {(i % 4, (i * 3) % 5, (i * 7) % 3): Fraction(i + 1, i % 6 + 2) for i in range(16)}
_RIGHT = {((i * 5) % 3, i % 4, (i * 2) % 5): Fraction(i % 5 + 1, i + 3) for i in range(16)}


def _reference() -> dict:
    product: dict = {}
    for e1, c1 in _LEFT.items():
        for e2, c2 in _RIGHT.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            product[exps] = product.get(exps, Fraction(0)) + c1 * c2
    return product


def sample() -> float:
    """Seconds for one reference computation, with the cyclic collector paused.

    The collector is paused so that the program's heap, which a collection
    would have to walk, cannot change the reference time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def normalise(times: Sequence[float], samples: Sequence[tuple[int, float]]) -> list[float]:
    """Normalise op times by the reference samples taken around each op.

    ``samples`` are ``(index of the next op, seconds)`` pairs in stream order,
    with at least one sample; op i is scaled by the mean of the samples from
    NEARBY before to NEARBY after the last sample taken before it.
    """
    positions = [index for index, _ in samples]
    seconds = [s for _, s in samples]
    out = []
    for i, t in enumerate(times):
        last = max(0, bisect.bisect_right(positions, i) - 1)
        nearby = seconds[max(0, last - NEARBY):last + NEARBY + 1]
        out.append(t * NOMINAL_S / statistics.fmean(nearby))
    return out
