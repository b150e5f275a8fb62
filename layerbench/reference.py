"""A fixed pure-Python load that measures how fast the machine runs right now.

On a shared host the speed of pure-Python code drifts by tens of percent over
minutes, so raw times from runs made minutes apart are not comparable.  A run
interleaves short slices of this load with its operations and scales the
times it reports by ``speed_scale``.  The load shares no code with valex (a
change to valex cannot move it) and resembles its hot loop: products of
sparse polynomials stored as dicts of exponent tuples.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# About the median block time on the 2-vCPU Xeon host, Python 3.11, where
# the benchmark was tuned.  Any fixed value works; it sets the scale only.
NOMINAL_BLOCK_S = 1.0e-3
SLICE_BLOCKS = 50
# The block's speed swings more than valex's when the host gets busier: over
# 41 runs of the three workloads there, log(unscaled ops/s) followed
# log(NOMINAL_BLOCK_S / block time) with slope 0.50-0.69 (correlation
# 0.91-0.95).  Scaling by that ratio to this power removes most of the drift.
EXPONENT = 0.65

_rng = random.Random(0)


def _poly(coef: int) -> dict:
    return {(_rng.randint(-6, 6), _rng.randint(-6, 6)): _rng.randint(-coef, coef) or 1
            for _ in range(40)}


# Small coefficients like the grid's, and large ones that need multi-digit
# integer arithmetic like gauss fill-in; the two slow down differently when
# the host is busy, so a block does one product of each.
_PAIRS = ((_poly(99), _poly(99)), (_poly(10**6), _poly(10**6)))


def _block() -> None:
    for a, b in _PAIRS:
        out: dict = {}
        for (i, j), c in a.items():
            for (k, l), d in b.items():
                key = (i + k, j + l)
                v = out.get(key, 0) + c * d
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]


def slice_block_s() -> float:
    """Mean seconds per block over one slice of SLICE_BLOCKS blocks.

    The cyclic collector is off during the slice, so the reading does not
    depend on how many objects the benchmarked program keeps alive.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(SLICE_BLOCKS):
            _block()
        return (time.perf_counter() - t0) / SLICE_BLOCKS
    finally:
        gc.enable()


def speed_scale(block_s: list) -> float:
    """Factor that turns times measured during a run into nominal-speed times."""
    return (NOMINAL_BLOCK_S / statistics.median(block_s)) ** EXPONENT
