"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's machine is a shared VM whose speed moves by up to about 1.8x
within seconds, on both CPUs at once, and CPU time tracks wall time there, so
neither clock removes the drift.  The worker therefore times this kernel
between operations (outside their timed intervals) and scales each
operation's time by ``NOMINAL_S / r``, where ``r`` is the mean of the
reference times taken just before and just after it.  A scaled time reads
"seconds on a host running at nominal speed".

The kernel does the kind of work the package does: Python-level loops over
small numpy calls on 64-vectors, small symmetric eigen-factorizations and a
little pure-Python arithmetic.  It uses numpy only, never ``bridgelab``, so a
change to the package cannot change the reference.
"""

from __future__ import annotations

import time

import numpy as np

# Roughly the kernel's time on an unloaded 2-CPU Xeon VM with BLAS pinned to
# one thread.  Only a scale: comparisons between commits divide it out.
NOMINAL_S = 0.02

_rng = np.random.default_rng(20240601)
_K = _rng.random((64, 64))
_H = _rng.random(64) + 0.5
_B = _rng.standard_normal((16, 16))
_S = _B @ _B.T + 16.0 * np.eye(16)


def reference() -> float:
    """Run the kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    worst = 0.0
    for i in range(0, 64, 2):
        for j in range(i + 1, 64):
            worst = max(worst, float(np.sum(_H * np.abs(_K[i] - _K[j]))))
    for _ in range(60):
        np.linalg.eigh(_S)
        np.linalg.eigvalsh(_S)
    acc = 0
    for n in range(40000):
        acc = (acc * 31 + n) % 1000003
    if not worst > 0.0 or acc < 0:
        raise AssertionError("reference kernel gave an impossible result")
    return time.perf_counter() - start


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """Operation times at nominal host speed.

    ``refs[i]`` is the reference time taken just before operation ``i`` and
    ``refs[i + 1]`` the one just after it, so ``len(refs) == len(times) + 1``.
    Each operation is scaled by the mean of those two: the host's speed moves
    within seconds, so samples further away track it worse.
    """
    if len(refs) != len(times) + 1:
        raise ValueError(f"need {len(times) + 1} reference samples, got {len(refs)}")
    return [t * NOMINAL_S / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(times)]
