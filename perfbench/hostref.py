"""Host references: fixed work that does not touch windwalk, timed next to
the work being measured.  On a shared host the speed of identical work
drifts by tens of percent within a minute; a reference of the same kind
drifts with it, so dividing by it cancels most of the drift.

``HostReference`` is in-process compute, for ops that run in this process.
``ChildReference`` is a fresh ``python -c "import numpy"``, for work that
starts a process (``cli-cold`` ops and the set-up probes): its cost is
process creation, page faults and reading modules, which in-process compute
does not see.
"""

import statistics
import subprocess
import sys
import threading
import time
from typing import List, Tuple

#: Reference samples within this many seconds of an op, or within the op's
#: own duration if that is longer, count for that op.
REFERENCE_MARGIN_S = 0.5
#: Set-up time is scaled to the host speed where one ``ChildReference``
#: sample takes this long.
CHILD_NOMINAL_S = 0.200
CHILD_TIMEOUT_S = 60.0


class _Reference:
    """Timed samples and the lookup of those near an op."""

    #: Seconds between sampling points; 0 samples before every op.
    every_s = 0.0
    #: Samples taken at each sampling point.
    burst = 1

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (perf_counter at the end, seconds)

    def sample(self) -> None:
        start = time.perf_counter()
        self._work()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def _work(self) -> None:
        raise NotImplementedError

    def around(self, start: float, end: float) -> float:
        """Median reference time (s) of the samples taken within
        ``REFERENCE_MARGIN_S`` or the interval's length, whichever is longer,
        of the interval, or of the nearest one before and after it when none
        is that close.  A long op is thus set against the host's speed over a
        stretch as long as itself, not against the few samples at its ends."""
        margin = max(REFERENCE_MARGIN_S, end - start)
        near = [dt for t, dt in self.samples if start - margin <= t <= end + margin]
        if not near:
            before = [dt for t, dt in self.samples if t <= start][-1:]
            after = [dt for t, dt in self.samples if t >= end][:1]
            near = before + after
        return statistics.median(near)


class ChildReference(_Reference):
    """One sample is a fresh interpreter that imports numpy, taken before
    every op and after the last, so each op is bracketed by two."""

    def __init__(self, cwd: str) -> None:
        super().__init__()
        self._cwd = cwd

    def _work(self) -> None:
        # A blocking wait: ``subprocess.run(timeout=...)`` polls with sleeps of
        # up to 50 ms, which would quantise the sample.
        proc = subprocess.Popen([sys.executable, "-c", "import numpy"], cwd=self._cwd,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        if code != 0:
            raise RuntimeError(f"child reference exited {code}")


class HostReference(_Reference):
    """One sample is a third Python float arithmetic, a third small-vector
    numpy calls (the pattern of the fixed-point solver and the stepper) and
    a third BLAS solves.  Three samples every 0.25 s: one sample varies by
    up to ±20% on a shared host, and a 200 ms op has only one or two sampling
    points near it."""

    every_s = 0.25
    burst = 3

    def __init__(self) -> None:
        super().__init__()
        import numpy

        rng = numpy.random.default_rng(0)
        self._np = numpy
        self._big = rng.random((300, 300)) + 300.0 * numpy.eye(300)
        self._small = 0.05 * rng.random((12, 12))

    def _work(self) -> None:
        np, big, small = self._np, self._big, self._small
        acc = 0.0
        for i in range(20000):
            acc += (i * 0.5) * (i - 1.0)
        q, p = np.zeros(12), np.full(12, 0.1)
        for _ in range(300):
            q_next = p + small @ q + (small @ q) * q
            acc += float(np.max(np.abs(q_next - q)))
            q = q_next
        for _ in range(2):
            np.linalg.solve(big, big[0])
