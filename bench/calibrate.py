"""Host-speed calibration of the timed metrics.

The benchmark's host is a VM that shares its CPUs with other tenants.
Its speed for identical Python work changes by up to 1.9x, in phases
that last from under a second to more than a run. The guest cannot see
this: it shows no steal time, and CPU time moves with wall time. Medians
and best-of-repeats inside a run cannot remove a phase that covers the
whole run.

A :class:`Sampler` therefore asks for :func:`probe`, about 0.65 ms of
fixed stdlib work, ten times a second from a ``SIGALRM`` handler in the
main thread. The probe runs in a :class:`Helper`, a sibling interpreter
that imports nothing of tring, while the caller waits for its answer, so
only one of the two runs at a time. The probe's time at full speed
divided by its measured time is the host speed at that moment. A
measured interval is converted to reference speed by integrating that
speed over the interval, leaving out the probes' own time. The probe
runs no tring code and shares no heap with it, so tring's objects and
caches cannot slow or speed it.

    python3 bench/calibrate.py    # serve probes: one line in, one speed out
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Probe times at full speed on the reference host (median of 3000 runs).
REFERENCE_BYTECODE_S = 0.00034
REFERENCE_FRACTION_S = 0.00031
INTERVAL_S = 0.1


def _bytecode() -> None:
    total = 0
    for i in range(6000):
        total += i * i % 7


def _fraction() -> None:
    acc = Fraction(0)
    table: dict[tuple[int, int], int] = {}
    for i in range(1, 150):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        key = (i % 50, i % 3)
        table[key] = table.get(key, 0) + i


def probe() -> float:
    """Host speed now, 1.0 at reference speed.

    Times two small fixed pieces of work, pure bytecode and ``Fraction``
    arithmetic with dict updates (the mix tring's kernels run), and takes
    the geometric mean of their speeds.  The garbage collector is paused
    meanwhile: a collection would time the workload's heap, not the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _bytecode()
        middle = time.perf_counter()
        _fraction()
        end = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return (REFERENCE_BYTECODE_S / (middle - start) * REFERENCE_FRACTION_S / (end - middle)) ** 0.5


def serve() -> None:
    """Answer each line on stdin with one :func:`probe` on stdout."""
    while sys.stdin.buffer.readline():
        sys.stdout.write(f"{probe()!r}\n")
        sys.stdout.flush()


class Helper:
    """A sibling interpreter that runs :func:`probe` on request."""

    def __enter__(self) -> "Helper":
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
        )
        return self

    def probe(self) -> float:
        """Host speed now; the caller waits while the helper probes."""
        self.proc.stdin.write(b"\n")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"probe helper exited {self.proc.wait()}")
        return float(line)

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Sampler:
    """Probes the host speed from ``SIGALRM`` while installed."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.probed: list[float] = []
        self._previous = None
        self._busy = False
        self._helper = Helper()

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a late alarm must not nest a probe in a probe
            return
        self._busy = True
        start = time.perf_counter()
        self.probed.append(self._helper.probe())
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._helper.__enter__()
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        try:
            self._handler(None, None)
        finally:
            self._helper.__exit__(*exc)

    def speeds(self) -> list[float]:
        """Host speed at each probe, as a running median of three against
        probe jitter."""
        raw = self.probed
        return [statistics.median(raw[max(0, i - 1) : i + 2]) for i in range(len(raw))]

    def adjusted(self, start: float, end: float, speeds: list[float] | None = None) -> float:
        """Seconds the interval [start, end] would take at reference speed.

        Between two probes the workload runs at the mean of their two
        speeds; time spent in probes is left out."""
        speeds = speeds if speeds is not None else self.speeds()
        i = max(0, bisect.bisect_right(self.starts, start) - 1)
        total = 0.0
        while i + 1 < len(self.starts) and self.ends[i] < end:
            lo, hi = max(start, self.ends[i]), min(end, self.starts[i + 1])
            if hi > lo:
                total += (hi - lo) * (speeds[i] + speeds[i + 1]) / 2
            i += 1
        return total


if __name__ == "__main__":
    serve()
