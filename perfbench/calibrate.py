"""Host-speed sampling with a fixed reference kernel.

Shared hosts drift: the same run can take twice as long a few minutes later.
`HostSampler` times a tiny reference kernel on a wall-clock timer while a run
executes, so the kernel sees the same host the run sees. Dividing the run's
time by the kernel's slowness cancels most of the drift. The kernel mixes the
kinds of work the simulator does (small-matrix numpy steps, interpreted
Python bookkeeping and a Gram matrix) and is the benchmark's own code, so a
change to the program never changes it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# About the seconds the kernel takes on the host the benchmark was defined on
# (2 x86-64 cores, Python 3.11, numpy 2.4, one BLAS thread). Timings divided by
# the slowness read as seconds on that host.
REF_NOMINAL_S = 0.005
SAMPLE_EVERY_S = 0.2


def _inputs():
    rng = np.random.default_rng(12345)
    return {
        "x": rng.standard_normal((16, 20)),
        "y": rng.integers(0, 10, 16),
        "w1": 0.1 * rng.standard_normal((20, 32)),
        "w2": 0.1 * rng.standard_normal((32, 10)),
        "g": rng.standard_normal((300, 30)),
    }


_INPUTS = _inputs()


def reference_s() -> float:
    """Run the kernel once; return its host seconds."""
    x, y, g = _INPUTS["x"], _INPUTS["y"], _INPUTS["g"]
    w1, w2 = _INPUTS["w1"].copy(), _INPUTS["w2"].copy()
    rows = np.arange(len(y))
    t0 = time.perf_counter()
    for _ in range(100):  # MLP SGD steps on one mini-batch
        h = np.tanh(x @ w1)
        z = h @ w2
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0
        dh = (p @ w2.T) * (1.0 - h * h)
        w2 -= 0.01 * (h.T @ p)
        w1 -= 0.01 * (x.T @ dh)
    acc: dict[int, float] = {}
    for i in range(10_000):  # interpreted bookkeeping
        k = i % 97
        acc[k] = acc.get(k, 0.0) + 0.5 * i
    (g @ g.T).sum(axis=1)  # Gram-matrix row sums
    return time.perf_counter() - t0


class HostSampler:
    """Time the kernel at the start and end of a block and every SAMPLE_EVERY_S inside it.

    The timer re-arms only after each sample, so samples never nest. Time spent
    in timer samples is kept in `spent_s`, for the caller to subtract from the
    block's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _sample(self):
        self.samples.append(reference_s())

    def clock(self) -> float:
        """`time.perf_counter` with the time spent in timer samples taken out."""
        return time.perf_counter() - self.spent_s

    def _tick(self, *_):
        t0 = time.perf_counter()
        self._sample()
        self.spent_s += time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False

    @property
    def slowness(self) -> float:
        """Median kernel time over nominal: 2.0 means the host ran at half speed."""
        return statistics.median(self.samples) / REF_NOMINAL_S
