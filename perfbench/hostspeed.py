"""Host speed probe: a fixed reference computation, timed between tasks.

The speed of the shared host this benchmark runs on drifts: the same task
had medians of 0.7-1.0 s in 25-s windows within four minutes, and CPU time moved with
wall time, so the drift is the host's throughput, not preemption.  The
probe does a fixed amount of work of the kinds the program does (an
interpreted loop, explicit Runge-Kutta steps on two-element numpy arrays,
and vectorised numpy over 10^5 points) and uses no eulerpoisson code, so a
change to the program cannot change its time.  Its median time over a run,
against NOMINAL_S, gives the factor that converts the run's times to the
host's nominal speed.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# About the median probe time on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4), where it ranged 0.04-0.06 s by run.  It only sets the scale
# of the converted times.
NOMINAL_S = 0.055


def _loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def _pendulum(steps: int) -> float:
    def f(y):
        return np.array([y[1], -math.sin(y[0])])

    y, h = np.array([1.0, 0.0]), 1e-3
    for _ in range(steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(y[0])


def _vector(reps: int) -> float:
    x = np.linspace(0.1, 10.0, 100_000)
    total = 0.0
    for _ in range(reps):
        y = np.sin(x) * np.exp(-x) + np.sqrt(x)
        total += float(np.cumsum(y)[-1])
    return total


def probe() -> float:
    """Wall seconds of one fixed reference computation."""
    t0 = perf_counter()
    _loop(200_000)
    _pendulum(1_000)
    _vector(6)
    return perf_counter() - t0


def factor(probe_times: list[float]) -> float:
    """Nominal over measured probe time: multiply a run's times by this."""
    return NOMINAL_S / statistics.median(probe_times)
