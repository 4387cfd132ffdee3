"""Host speed, measured with a fixed piece of work that does not touch dualbid.

The machines this benchmark runs on share their cores with other tenants.
For stretches of seconds to minutes every instruction runs up to 1.8x
slower, in CPU time as well as wall time, so the median `run` of one
30-second window can be 1.8x that of another.  A reference loop timed just
before each CLI call slows with it, so call time divided by reference time
repeats between windows where the raw time does not.  The loop mixes what
dualbid's hot paths do: interpreted per-item arithmetic with dict updates,
a sort of tuples, and numpy work on small arrays.  The collector is off while it runs, so the garbage the CLI
calls leave behind does not time it.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# Seconds the loop takes on a quiet host of the kind the benchmark was built
# on (2 vCPUs, x86-64, CPython 3.11, numpy 2).  End-to-end times are scaled
# to a host on which the loop takes this long.
REFERENCE_S = 0.02

_ARRAY = np.random.default_rng(0).random(64_000)
_ITEMS = _ARRAY[:30_000].tolist()


def reference_loop() -> float:
    """Seconds the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        totals: dict[int, float] = {}
        for i, v in enumerate(_ITEMS):
            key = i % 61
            totals[key] = totals.get(key, 0.0) + math.sqrt(v) * 1.0001
        rows = sorted((v, i % 7) for i, v in enumerate(_ITEMS))
        for i in range(1_000):
            block = _ARRAY[i * 64 : (i + 1) * 64]
            np.searchsorted(np.sort(block), 0.5)
            np.maximum(block, 0.3).sum()
        elapsed = time.perf_counter() - start
        del rows
        return elapsed
    finally:
        if enabled:
            gc.enable()
