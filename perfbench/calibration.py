"""Reference loops that measure how fast the host runs at the moment.

The benchmark shares a few cores of its host with other work, and the
speed those cores give drifts by up to a quarter within minutes; CPU time
drifts with wall time, so it is not a way out.  A measured run therefore
times a fixed reference loop, which calls no moeblab code, in short chunks
before every operation of a pass and after the last one.  The end-to-end
``run_cal_s`` of a pass is its wall time scaled by the chunk's nominal
time over the chunk times measured around it: the time the pass would
take when the host runs the chunk in its nominal time.  Set-up time is
scaled the same way by chunks timed right after each set-up ends.

Each workload is scaled by the loop that leans on the same parts of the
machine as its operations: numpy array sorts for ``covering`` and
``mobius-orbit``, exact ``Fraction`` phase reduction for ``certified``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import numpy as np

_PHASE = Fraction(0x9E3779B97F4A7C15, 1 << 64)
_HALF = Fraction(1, 2)


def numpy_chunk() -> float:
    """Copy a fixed array of 2^19 doubles into a buffer and sort it in
    place, six times.  After the first call it allocates nothing, so it
    leaves the allocator's state, and with it the operations' memory use,
    as it found them."""
    source, buffer = _arrays()
    for _ in range(6):
        np.copyto(buffer, source)
        buffer.sort()
    return float(buffer[-1])


@cache
def _arrays() -> tuple[np.ndarray, np.ndarray]:
    source = np.random.default_rng(20170720).random(1 << 19)
    return source, np.empty_like(source)


def fraction_chunk() -> Fraction:
    """Reduce m * phase to [-1/2, 1/2) exactly for 3500 values of m."""
    total = Fraction(0)
    for m in range(1, 3501):
        x = m * _PHASE
        t = x - (x + _HALF).__floor__()
        if t < total:
            total = t
    return total


# chunk and its time on a 2-vCPU Xeon VM (2.1 GHz) when the host was quiet
CHUNKS = {
    "covering": (numpy_chunk, 0.025),
    "mobius-orbit": (numpy_chunk, 0.025),
    "certified": (fraction_chunk, 0.025),
}
# set-up is interpreter start, imports and config generation: Python code
SETUP_CHUNK = (fraction_chunk, 0.025)


def calibrated(seconds: float, chunk_s: float, nominal_s: float) -> float:
    """`seconds` scaled to the host speed at which the chunk takes
    `nominal_s`, given `chunk_s`, the chunk time measured around it."""
    return seconds * nominal_s / chunk_s
