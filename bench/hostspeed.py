"""Host speed, measured with two fixed probes that use no package code.

The 2-vCPU host the benchmark was built on changes speed by up to 2.4x
in phases of seconds to minutes, and CPU time follows wall time, so no
statistic of raw times over a run of 20 s is steady: fastest repeats
are rare events in slow phases, and medians follow the phase. Timing a
probe between ops samples the host's speed over the same stretch of
time as the ops, and each timing metric is scaled by ``factor``: the
time it would have taken on a host where the probe takes its reference
time. The probes use no package code, so the factor moves with the
host and not with the code under test.

The slow phases do not slow all work alike, so each kind of op has a
probe of its own kind:

- ``numpy``, for ops inside the worker, makes small numpy calls from a
  Python loop, as the package does. A loop of plain Python slows by
  another share than those ops.
- ``spawn``, for CLI processes and set-up, starts a fresh interpreter
  that imports numpy. Process start-up and imports slow by another
  share than work inside a process.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: Passes of the numpy probe's loop; about a millisecond.
NUMPY_PASSES = 60
#: The probe times of the reference host that scaled times refer to.
REFERENCE_S = {"numpy": 1e-3, "spawn": 0.15}


def numpy_calls(env=None):
    """Seconds the numpy probe takes now."""
    import numpy as np

    pair = np.eye(2)
    grid = np.linspace(0.0, 1.0, 250)
    t0 = time.perf_counter()
    for _ in range(NUMPY_PASSES):
        np.kron(pair, pair)
        np.exp(-grid)
    return time.perf_counter() - t0


def spawn(env=None):
    """Seconds a fresh interpreter takes to import numpy and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


PROBES = {"numpy": numpy_calls, "spawn": spawn}


def factor(probe, samples):
    """Scale from times measured with ``samples`` of ``probe`` to times
    on the reference host."""
    return REFERENCE_S[probe] / statistics.median(samples)
