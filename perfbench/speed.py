"""CPU-speed probes, so that times can be read at one reference speed.

A shared host gives the benchmark a varying share of its CPU: a fixed
pure-Python loop runs up to half again as long at one minute as at the
next, in CPU time as well as in wall time.  So a pass starts a timer
that interrupts it PROBE_HZ times a second and runs a short fixed loop
(``probe_loop``) in the signal handler, recording how long the loop
took.  Over any stretch of the pass, the mean probe time says how fast
the CPU ran; ``SpeedProbe.scale`` turns a time measured there into the
time the same work takes when the probe runs in REF_PROBE_S, after
taking out the time the probes themselves used.

Probes run in the main thread between bytecodes, so they also land in
the middle of the program's own Python code; garbage collection is
switched off while one runs, so that a collection the probe's
allocations would trigger happens in the program, where it belongs.
"""

from __future__ import annotations

import gc
import signal
from contextlib import nullcontext
from statistics import fmean
from time import perf_counter

PROBE_HZ = 50
# About the mean time of one probe_loop() on a 2-core x86-64 VM of a shared host,
# the machine the benchmark was written on.  Scaled times are in seconds
# at that speed.
REF_PROBE_S = 2.0e-4
# A stretch with fewer probes than this is scaled by the pass's mean.
MIN_PROBES = 10
WARMUP_PROBES = 20


def probe_loop(n: int = 400) -> int:
    """A fixed mix of dict, str and int work, as the program does.

    It makes one container, so that the probes hardly move the garbage
    collector's allocation count, and with it when the program collects
    and how much memory it holds at its peak.
    """
    d: dict = {}
    acc = 0
    for i in range(n):
        k = (i * 7919) % 1009 * 16 + (i & 15)
        d[k] = d.get(k, 0) + 1
        acc += len(str(i)) * (i % 13)
    return acc + len(d)


class SpeedProbe:
    """Runs probe_loop on a timer signal and keeps each probe's time.

    ``span``, when set, is a context-manager factory called as
    ``span("probe")`` around each probe, so that a span recorder sees
    probes as spans of their own and leaves them out of the layers'
    self times.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.span = None
        self._busy = False

    def start(self) -> None:
        """Take WARMUP_PROBES probes at once, then one per timer tick."""
        for _ in range(WARMUP_PROBES):
            self._probe()
        signal.signal(signal.SIGALRM, self._handle)
        interval = 1 / PROBE_HZ
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _handle(self, signum, frame) -> None:
        if self._busy:  # a tick that came while a probe ran
            return
        self._busy = True
        try:
            with self.span("probe") if self.span else nullcontext():
                self._probe()
        finally:
            self._busy = False

    def _probe(self) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            probe_loop()
            self.times.append(perf_counter() - start)
        finally:
            if collecting:
                gc.enable()

    def mark(self) -> int:
        """A position in the probe record: a stretch runs from one to another."""
        return len(self.times)

    def factor(self, start: int = 0, stop: int | None = None) -> float:
        """REF_PROBE_S over the mean probe time between two marks."""
        times = self.times[start:stop]
        if len(times) < MIN_PROBES:
            times = self.times
        return REF_PROBE_S / fmean(times)

    def scale(self, start: int, stop: int, wall: float) -> tuple[float, float]:
        """(wall less the probes in it, that at the reference speed).

        ``wall`` is the time measured between the marks start and stop.
        """
        net = wall - sum(self.times[start:stop])
        return net, net * self.factor(start, stop)
