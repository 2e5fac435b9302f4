"""Host-speed probe: time a fixed reference loop between slices of the work.

The benchmark's reference host is a shared virtual machine whose speed
swings by a quarter or more, from one second to the next and from one
minute to the next, while this process shows no steal time and its CPU
time tracks its wall time.  So a plain wall time of the same work varies
by that much too.  This module measures the host's speed while the work
runs: an interval timer interrupts the main thread every ``PERIOD_S``
seconds, and the signal handler times ``reference_loop``, a fixed piece
of pure-Python and small-numpy work.  Each slice of wall time between two
probes is then converted to *reference seconds*: its wall time (the probe
itself excluded) times ``REFERENCE_LOOP_S / probe time``.  A reference
second is the time the slice would have taken on a host that runs the
reference loop in ``REFERENCE_LOOP_S``.

The probe times itself with ``time.thread_time``: CPU time of this
thread, which does not advance while the guest runs another process on
this core.  It does not remove contention, though: on the reference host
the probe reads about 20% slower while a second process keeps the other
core busy.  A tmsim that moves work onto the second core would have part
of that slowdown taken off its reference seconds, so such a change has to
report the plain wall times (``job_wall_s``) as well.  Python runs the
handler between bytecodes, so a long call into numpy delays it; that
slice is then scaled by the probe taken just after it.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.05  # wall seconds between probes
REFERENCE_LOOP_S = 0.001  # the loop's thread time on the reference host (definition of the unit)


def reference_loop() -> None:
    """Fixed work: an integer loop and a few small numpy operations."""
    import numpy as np

    total = 0
    for i in range(8000):
        total += i * i
    a = np.arange(64.0).reshape(8, 8)
    for _ in range(60):
        a = (a @ a.T) / (1.0 + a.sum())


class HostSpeed:
    """Record probes while installed; convert wall intervals to reference seconds."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float, float]] = []  # (wall start, wall end, thread time)
        self._previous = None

    def install(self) -> "HostSpeed":
        reference_loop()  # warm: first call imports numpy
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _probe(self, _signum, _frame) -> None:
        w0, c0 = time.perf_counter(), time.thread_time()
        reference_loop()
        c1 = time.thread_time()
        self.probes.append((w0, time.perf_counter(), c1 - c0))

    def reference_s(self, start: float, end: float) -> float:
        """Reference seconds of the work done in wall interval [start, end].

        Probe time inside the interval is excluded; each stretch of work
        is scaled by the next probe (the last stretch by the last one
        before ``end``).
        """
        inside = [p for p in self.probes if start <= p[0] and p[1] <= end]
        if not inside:
            later = [p for p in self.probes if p[0] >= end]
            earlier = [p for p in self.probes if p[1] <= start]
            nearest = later[:1] or earlier[-1:]
            if not nearest:
                raise RuntimeError("no host-speed probe near the interval")
            return (end - start) * REFERENCE_LOOP_S / nearest[0][2]
        total, cursor = 0.0, start
        for w0, w1, cpu in inside:
            total += (w0 - cursor) * REFERENCE_LOOP_S / cpu
            cursor = w1
        total += (end - cursor) * REFERENCE_LOOP_S / inside[-1][2]
        return total

    def probe_s(self, start: float, end: float) -> list[float]:
        """Probe thread times inside [start, end], for the record."""
        return [cpu for w0, w1, cpu in self.probes if start <= w0 and w1 <= end]
