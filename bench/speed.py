"""Host-speed gauges: fixed, benchmark-owned kernels timed next to the calls.

On a shared host the same work can take up to twice as long for tens of
seconds at a time, with no CPU steal to show for it.  A gauge times a fixed
kernel at least every ``every_s`` seconds, and a measured time is scaled by
``ref_s / kernel time``, with the kernel time taken as the mean of the two
kernel runs that bracket the measurement.  On a quiet machine of the
reference speed the scaled and the raw times agree.  No kernel uses qitools
code, so a change to the library cannot move them.

The kernel is 2x2 complex products and 4x4 Hermitian spectra in a Python
loop, plus one 64x64 ``eigh``: the same mix as the workloads.  Its time
correlates at about 0.85 with in-process calls.  With the benchmark and its
children pinned to one CPU it correlates at about 0.64 with CLI child
processes; unpinned, the children run on whichever CPU is free and the
correlation drops to 0.17.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.linalg import eigh, eigvalsh

# Kernel time on the reference machine (2-vCPU x86-64, python 3.11.7,
# numpy 2.4.6 with scipy-openblas, one BLAS thread) in a quiet period.
REF_S = 0.003
EVERY_S = 0.25

_rng = np.random.default_rng(20081003)
_SMALL = [_rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2)) for _ in range(8)]
_HERM = []
for _ in range(8):
    _g = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
    _HERM.append(_g @ _g.conj().T)
_g = _rng.standard_normal((64, 64))
_BIG = _g @ _g.T


def kernel() -> float:
    """Run the fixed kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    acc = 0j
    for i in range(150):
        a, b = _SMALL[i % 8], _SMALL[(i + 3) % 8]
        acc += np.trace(a @ b.conj().T @ a)
        acc += eigvalsh(_HERM[i % 8])[0]
    eigh(_BIG)
    return time.perf_counter() - start


class SpeedGauge:
    """Kernel times, in order; measurements refer to them by index."""

    def __init__(self):
        self.times: list[float] = []
        self._last = -np.inf

    def measure(self) -> int:
        self.times.append(kernel())
        self._last = time.perf_counter()
        return len(self.times) - 1

    def tick(self) -> int:
        """Index of the latest kernel run, running the kernel if it is due."""
        if not self.times or time.perf_counter() - self._last >= EVERY_S:
            return self.measure()
        return len(self.times) - 1

    def scale(self, index: int) -> float:
        """REF_S / mean kernel time around a measurement made after run ``index``."""
        after = self.times[index + 1] if index + 1 < len(self.times) else self.times[index]
        return REF_S / ((self.times[index] + after) / 2)
