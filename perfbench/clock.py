"""Wall time corrected for the machine's momentary speed.

The benchmark shares its processors with other tenants, whose load changes
how fast the same Python code runs from one minute to the next, by 20-70%
on a two-vCPU VM.  A fixed pure-Python kernel, timed beside the program's
operations, measures that speed.  Each operation's wall time is scaled by
``(REFERENCE_S / kernel time) ** EXPONENT``, which expresses it in seconds
of a machine on which the kernel takes ``REFERENCE_S``.  The kernel lives
in the benchmark, so a change to the program cannot change it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

#: Median kernel time on an idle Intel Xeon VM (2 vCPUs, Python 3.11.7), so
#: corrected figures read as wall time on that machine when idle.
REFERENCE_S = 0.9e-3

#: How strongly op times follow the kernel's time as the load changes.  On
#: the reference machine, op times of the four workloads grew as the kernel
#: time to the power 0.7-0.87 when the kernel slowed by 1.2-2x, so a full
#: correction (exponent 1) would overshoot.
EXPONENT = 0.75

#: How often the kernel is timed, on a wall-clock timer that also fires
#: inside long operations.
SAMPLE_EVERY_S = 0.25
#: Kernel samples within this distance of an operation correct its time.
WINDOW_S = 1.0


def kernel() -> int:
    """Half the work of a simulated phase point in kind: sparse-amplitude
    updates keyed by sorted occupation tuples, as in the Fock engine, and
    small-matrix numpy calls, as in building an element."""
    import numpy  # not at module level: set-up probes time the first numpy import

    acc: dict[tuple, complex] = {}
    x = 0.5 + 0.25j
    for i in range(400):
        key = tuple(sorted(((i % 7, 1), (i % 5 + 7, 1), (i % 3 + 12, 1))))
        acc[key] = acc.get(key, 0j) + x * i
    m = numpy.eye(4, dtype=complex)
    m[:2, :2] = [[0.6, 0.8], [-0.8, 0.6]]
    for _ in range(12):
        numpy.linalg.svd(m, compute_uv=False)
        numpy.allclose(m.conj().T @ m, numpy.eye(4), atol=1e-12, rtol=0.0)
    return len(acc)


def kernel_seconds(repeats: int = 3) -> float:
    """Median time of ``repeats`` kernel runs."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class SpeedLog:
    """Kernel times sampled through a run, to correct each operation's time.

    While the log is entered, SIGALRM runs the kernel every
    ``SAMPLE_EVERY_S`` seconds between two bytecodes of whatever is running,
    so long operations are sampled too; the kernel's own time is taken out
    of the operation it interrupted.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self.busy: list[tuple[float, float]] = []
        self._previous = None

    def __enter__(self) -> "SpeedLog":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def sample(self) -> None:
        start = perf_counter()
        seconds = kernel_seconds()
        self.at.append(start)
        self.kernel_s.append(seconds)
        self.busy.append((start, perf_counter()))

    def wall(self, start: float, end: float) -> float:
        """Wall time of an interval without the kernel runs inside it."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        return (end - start) - sum(b - a for a, b in self.busy[lo:hi] if b <= end)

    def factor(self, start: float, end: float) -> float:
        """What a wall time measured over this interval is multiplied by to
        read at the reference speed."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.kernel_s[lo:hi] or self.kernel_s
        return (REFERENCE_S / statistics.median(near)) ** EXPONENT

    def corrected(self, start: float, end: float) -> float:
        """Wall time of an interval, scaled to the reference speed."""
        return self.wall(start, end) * self.factor(start, end)

    def paused(self, fn):
        """``fn()`` with the sampling timer stopped, so the kernel does not
        compete with work ``fn`` starts in another process."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def slowdown(self) -> float:
        """Median kernel time over the reference: above 1 means a busy machine."""
        return statistics.median(self.kernel_s) / REFERENCE_S
