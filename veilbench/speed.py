"""Measuring time on a machine whose speed drifts.

The benchmark runs on shared machines whose speed drifts by up to 2x within
a minute (other tenants, frequency changes), far more than the changes it
must resolve.  A fixed pure-Python probe -- dict updates, big-int modular
products, building, deep-copying and sorting a dict of tuples, the kinds of
work veil does -- runs at the start of every timed phase and, during a
timed operation, from a SIGALRM handler every PROBE_INTERVAL_S (no thread
is started; the handler runs in the main thread between bytecodes and skips
its probe while the program has worker threads, which would contend for the
interpreter lock).  An operation's time is its wall time minus the probes run
inside it, scaled by REFERENCE_PROBE_S / (median of the probes run during it
and of the WINDOW probes before it).  Times are thus reported in seconds of a
machine on which the probe takes REFERENCE_PROBE_S.  The probe is benchmark
code, so a change to veil cannot move it; a slower program still reads
slower.
"""
from __future__ import annotations

import copy
import gc
import signal
import statistics
import threading
import time
from contextlib import contextmanager

REFERENCE_PROBE_S = 0.0016
PROBE_INTERVAL_S = 0.2
WINDOW = 9
_P = (1 << 255) - 19


def probe() -> float:
    """Seconds the fixed probe work takes right now, without the collector
    (whose cost depends on the program's heap, not on machine speed).  Half
    of it is interpreter arithmetic, half allocating and copying
    containers, so it slows with both the processor and the memory system."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        acc = 1
        for i in range(800):
            table[i % 97] = table.get(i % 97, 0) + i
            acc = acc * (i + 3) % _P
        rows = {i: (acc >> i, f"{i:x}") for i in range(300)}
        rows = sorted(copy.deepcopy(rows).items(), key=lambda kv: -kv[0])
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if len(table) != 97 or len(rows) != 300:
        raise AssertionError("speed probe computed a wrong result")
    return elapsed


class Measured:
    seconds = 0.0  # at reference speed, set when the measurement ends


class Speed:
    def __init__(self):
        self.samples = []
        self.during = True  # probe inside operations too (off while tracing)
        self._spent = 0.0  # seconds spent in probes so far
        self._busy = False

    def _probe(self):
        start = time.perf_counter()
        self.samples.append(probe())
        self._spent += time.perf_counter() - start

    def sample(self, n: int = 1):
        for _ in range(n):
            self._probe()

    def _on_alarm(self, _signum, _frame):
        if self._busy or threading.active_count() > 1:
            return
        self._busy = True
        try:
            self._probe()
        finally:
            self._busy = False

    @contextmanager
    def measure(self):
        """Time the enclosed operation; the result's `seconds` is its wall
        time without the probes, at reference speed."""
        result = Measured()
        first, spent = len(self.samples), self._spent
        if self.during:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                             PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            yield result
        finally:
            elapsed = time.perf_counter() - start
            if self.during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        window = self.samples[max(0, first - WINDOW):]
        result.seconds = (elapsed - (self._spent - spent)) * \
            REFERENCE_PROBE_S / statistics.median(window)

    def run_factor(self) -> float:
        """Reference-speed factor over every probe of the run."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)
