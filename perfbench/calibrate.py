"""Host-speed calibration: a fixed kernel timed between solves.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent within minutes (galp's time per iteration has moved by 75% in four
minutes with no change of code).  A run of any length the time limit allows
cannot average that out, so each run also times this kernel, interleaved
with its solves, and scales the time of each solve by the kernel's reference
time over its time around the solve: a scaled time is the wall time the
solve would have taken on a host where the kernel takes its reference time.

The kernel does the kind of work one galp iteration does, at the problem
scale of the workload it calibrates, with fixed data and code of its own
(numpy and scipy only, nothing from galp), so that a change to galp moves
the solve times and not the kernel: a diagonally scaled sparse product into
a dense normal matrix, its Cholesky factor, triangular solves and a run of
small elementwise operations on n-vectors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from gen import Shape, generate


@dataclass(frozen=True)
class Kernel:
    """Problem size of the kernel, calls to it per timing, and its reference time."""

    shape: Shape
    repeats: int
    reference_s: float  # median time of one timing on the host the baseline was measured on, in a quiet spell


# One kernel per problem scale.  Which one tracks a workload best was measured:
# over 36 s windows of netlib solves, scaling by the small kernel left a
# spread of 0.014 and by the large one 0.061 (0.127 unscaled).  The reference
# times make scaled and wall times read alike on that host when it is quiet.
SMALL = Kernel(Shape(m=50, n=150, density=0.06, boxed=False), repeats=8, reference_s=0.0041)
LARGE = Kernel(Shape(m=600, n=1800, density=0.01, boxed=False), repeats=2, reference_s=0.021)
INTERVAL_S = 0.5  # at most one kernel timing per this much solving
WARMUP_CALLS = 3


class Calibration:
    """Kernel timings collected during one run."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._A = generate(12345, kernel.shape, "calibration").A
        self._d = np.random.default_rng(12345).uniform(0.5, 2.0, kernel.shape.n)
        self.times: list[float] = []
        self._last = None
        for _ in range(WARMUP_CALLS):
            self._run()

    def _run(self):
        A, d, m = self._A, self._d, self.kernel.shape.m
        for _ in range(self.kernel.repeats):
            M = np.asarray((A.multiply(d) @ A.T).todense())
            M = np.tril(M) + np.tril(M, -1).T
            L = np.linalg.cholesky(M + 1e-8 * np.diag(np.diag(M)))
            y = scipy.linalg.cho_solve((L, True), np.ones(m), check_finite=False)
            v = A.T @ y
            for _ in range(20):
                v = np.maximum(v * d, 0.1) / (1.0 + np.abs(v))
                float(v.min())

    def measure(self):
        start = time.perf_counter()
        self._run()
        end = time.perf_counter()
        self.times.append(end - start)
        self._last = end

    def maybe_measure(self):
        """Time the kernel if ``INTERVAL_S`` has passed since the last timing."""
        if self._last is None or time.perf_counter() - self._last >= INTERVAL_S:
            self.measure()

    def scale_at(self, k: int) -> float:
        """Factor to the reference speed for work done between timings ``k - 1`` and ``k``.

        It uses the mean of the two timings (the one that exists, at either
        end of the run).
        """
        around = self.times[max(k - 1, 0) : k + 1]
        return self.kernel.reference_s * len(around) / sum(around)
