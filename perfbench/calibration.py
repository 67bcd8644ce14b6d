"""Host-speed calibration for the timing metrics.

The benchmark host is a shared virtual machine whose speed drifts by up to
1.7x over minutes (other tenants), far more than any regression bound can
absorb.  So each timed window is cut into slices and, at points where the
program under test is idle, a fixed probe runs: a small mix of interpreter
work and numpy work that imports nothing from the program.  Each slice's
timings are scaled by ``REFERENCE_PROBE_S / probe``, i.e. reported in the
seconds of a host on which the probe takes ``REFERENCE_PROBE_S``.  A change
to the program moves its own times but not the probe's; a change in host
speed moves both and cancels.  The unscaled values are printed with each
run's metadata.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: probe time that defines "reference seconds" (a quiet 2-vCPU host)
REFERENCE_PROBE_S = 0.030

_KEYS = np.random.default_rng(12345).integers(0, 1 << 30, size=200_000)


def probe() -> float:
    """Wall seconds of one fixed unit of mixed interpreter and numpy work."""
    t0 = time.perf_counter()
    acc = 0
    for j in range(300_000):
        acc += j * j
    np.sort(_KEYS)
    table = {}
    for j in range(50_000):
        table[j] = j
    return time.perf_counter() - t0


def burst(count: int = 5) -> float:
    """Median of ``count`` back-to-back probes."""
    return statistics.median(probe() for _ in range(count))


def scale(probe_s: float) -> float:
    """Multiplier from this host's seconds to reference seconds."""
    return REFERENCE_PROBE_S / probe_s
