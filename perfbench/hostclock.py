"""Host-speed clock: scales wall times to a fixed reference host speed.

The benchmark runs on shared virtual machines whose single-core speed
drifts by up to about 1.6x in phases of 10 s to a minute.  A wall time
alone then measures the phase as much as the program.  `HostClock` samples
the host's speed while the timed code runs: an interval timer
(`SIGALRM`, every `PERIOD` seconds) interrupts the main thread and times
one fixed pure-Python chunk of integer arithmetic.  `scaled` turns a wall
time into seconds at the reference speed: the wall time times
`REF_CHUNK_S` over the mean chunk time seen while it ran.  A program that
gets faster or slower changes the wall time and not the chunk, so the
scaled time moves with it; a host that slows down lengthens both.

The chunks cost about 1% of the timed wall time and are part of it on
every commit alike.  `icrt_lab` installs no signal handlers and the
benchmark runs it single-threaded, so the timer only ever interrupts the
main thread between bytecodes.
"""
from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.05
CHUNK_N = 8000
# Mean chunk time on the 2-vCPU Xeon VM the benchmark was built on; a
# constant, so scaled times compare across runs and commits.
REF_CHUNK_S = 500e-6


def chunk(n: int = CHUNK_N) -> int:
    s = 0
    for i in range(n):
        s += i * i
    return s


class HostClock:
    def __init__(self):
        self.samples: list[float] = []
        self._old = None

    def _tick(self, signum, frame):
        t = time.perf_counter()
        chunk()
        self.samples.append(time.perf_counter() - t)

    def start(self) -> None:
        self.samples = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> float:
        """Stop sampling; returns the mean chunk time, or `REF_CHUNK_S`
        when the timed code ended before the first tick."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)
        return statistics.fmean(self.samples) if self.samples else REF_CHUNK_S

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.mean_chunk_s = self.stop()
        return False

    @staticmethod
    def scaled(wall_s: float, mean_chunk_s: float) -> float:
        return wall_s * REF_CHUNK_S / mean_chunk_s
