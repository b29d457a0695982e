"""A fixed reference kernel that tracks how fast the machine runs right now.

The machine the benchmark was built on is a 2-vCPU guest whose speed drifts
by tens of percent over seconds to minutes, invisibly to the guest: wall
time and CPU time move together (README, "Steadiness"). The worker runs this
kernel between tasks and scales each task's time by REF_KERNEL_S over the
kernel's local time, which reports the task at reference machine speed.

The kernel mixes the two kinds of work kinnet does: a Python-driven power
loop on a 32 x 32 matrix (as in `spectral_radius`) and an upwind update of
32 x 1024 cells (as in a simulator step at (128, 32)).
"""

from __future__ import annotations

import time

import numpy as np

# Typical kernel time between tasks on the reference machine (README,
# "Environment"); it sets the scale of the reported times.
REF_KERNEL_S = 0.060
# Share of the timed phase spent in the kernel, and its minimum per gap.
DUTY = 0.12
MIN_RUNS = 3

_A = np.random.default_rng(0).random((32, 32))
_Z = np.random.default_rng(1).random((32, 1025))
_COURANT = np.linspace(0.3, 0.9, 32)[:, None]


def run_kernel() -> float:
    """Seconds taken by one run of the reference kernel."""
    t0 = time.perf_counter()
    x = np.ones(32) / 32
    for _ in range(2400):
        y = _A @ x
        x = y / float(np.sum(y))
    z = _Z.copy()
    for _ in range(160):
        z[:, 1:] = ((1.0 - _COURANT) * z[:, 1:] + _COURANT * z[:, :-1]) * 0.999
        z[:, 0] = float(np.sum(z[:, -1])) / 32
    return time.perf_counter() - t0


def kernel_gap(busy_s: float) -> list[float]:
    """Kernel times for a gap after busy_s seconds of work."""
    n = max(MIN_RUNS, round(DUTY * busy_s / REF_KERNEL_S))
    return [run_kernel() for _ in range(n)]
