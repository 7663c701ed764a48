"""The host's speed, sampled while a workload runs, so times can be given at a fixed speed.

On a shared virtual machine the same pass of the same code can take 1.9
times as long from one second to the next, and stay slow for minutes, as
other tenants load the physical cores and caches under it.  Neither the
median nor the fastest of a run's passes is then steady from run to run.

So while a pass runs, a fixed probe -- a short loop of small-array NumPy
calls, the kind of work treeiso's DP merges do, but no treeiso code -- is
timed every few milliseconds from a SIGALRM handler.  The probe slows down
with the host: a pass's time divided by the mean probe time during it,
times the probe's fixed reference time, is the pass's time at the
reference speed.  The probes' own time is taken out of the pass's time.
"""
from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Seconds between probes, and the probe's time at the reference speed: about
# its time on a quiet core of a 2-vCPU Xeon virtual machine.  Being a
# constant, REFERENCE_PROBE_S only sets the unit of every reported time.
INTERVAL_S = 0.004
REFERENCE_PROBE_S = 0.0001

_A = np.arange(200.0)
_B = np.empty(200)


def probe() -> float:
    """Seconds taken by a fixed loop of small-array NumPy calls."""
    start = perf_counter()
    for _ in range(60):
        np.add(_A, 1.0, out=_B)
        np.minimum(_A, _B, out=_B)
    return perf_counter() - start


class Sampler:
    """Probe times taken during one timed block, and the hook told of each."""

    def __init__(self, on_probe=None):
        self.probes = []
        self.on_probe = on_probe
        self._busy = False

    def _handler(self, signum, frame):
        # A tick that arrives while a slow probe still runs is dropped, not nested.
        if self._busy:
            return
        self._busy = True
        try:
            seconds = probe()
            self.probes.append(seconds)
            if self.on_probe is not None:
                self.on_probe(seconds)
        finally:
            self._busy = False

    @contextmanager
    def sampling(self):
        """Probe every INTERVAL_S seconds of wall time while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args):
        """Run fn(*args) while sampling; returns (result, seconds without the probes)."""
        with self.sampling():
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
        return result, elapsed - sum(self.probes)

    def probe_s(self) -> float:
        """Mean probe time; a block too short for a timer tick is probed once now."""
        if not self.probes:
            self.probes.append(probe())
        return sum(self.probes) / len(self.probes)

    def at_reference(self, seconds: float) -> float:
        """`seconds` measured during the block, at the reference speed."""
        return seconds * REFERENCE_PROBE_S / self.probe_s()
