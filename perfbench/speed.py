"""Machine-speed probes, so that times can be compared across a noisy host.

On a shared host the speed of one virtual CPU can change by a factor of
two within seconds, and a probe process on the other CPU does not see it.
So the worker measures its own CPU: a SIGALRM timer interrupts the
running case every ``INTERVAL_S`` seconds of wall time and runs a fixed
reference computation twice, keeping the faster run.  The reference
must slow down as the workload does: interpreter-bound code and
vectorised numpy code react differently to a busy neighbour, so each
workload names the reference that resembles its work.  A time span
[a, b] is then reported as its busy time (probe time removed) multiplied
by the mean of ``NOMINAL_S / reference run`` over the probes taken in it
or within ``WINDOW_S`` of it, so that even a short span has a few on
either side.  The result is in seconds of a machine whose reference run
takes ``NOMINAL_S``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.15
WINDOW_S = 3 * INTERVAL_S
NOMINAL_S = 0.002


def interpreter_reference():
    """Interpreter-bound work in the program's style: tuples, dicts, ints."""
    seen = {}
    acc = 0
    for i in range(5000):
        key = (i % 61, i * 7 % 13)
        seen[key] = seen.get(key, 0) + 1
        acc += key[0] * key[1] % 97
    a = np.arange(48 * 48, dtype=np.int64).reshape(48, 48)
    return acc + int(((a @ a) % 7).sum())


def numpy_reference():
    """Vectorised work in the style of the matrix scans: a batched product."""
    a = (np.arange(4096 * 16, dtype=np.int64) % 5).reshape(4096, 4, 4)
    return int((np.einsum("aij,ajk->aik", a, a) % 5).any(axis=(1, 2)).sum())


REFERENCES = {"interpreter": interpreter_reference, "numpy": numpy_reference}


class SpeedProbe:
    def __init__(self, reference):
        self.reference = reference
        self.samples = []  # (start, end, fastest reference run) in seconds

    def sample(self, *_):
        """Run the reference twice; keep the faster run as the speed sample.

        The collector is paused meanwhile: the reference frees all it
        allocates, so the program's collections happen where they would
        without probes.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.reference()
            mid = time.perf_counter()
            self.reference()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append((start, end, min(mid - start, end - mid)))

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, samples):
        return statistics.fmean(NOMINAL_S / best for _, _, best in samples)

    def scaled(self, a, b):
        """Busy seconds in [a, b], scaled to the nominal machine speed."""
        busy = (b - a) - sum(end - start for start, end, _ in self.samples if a <= start and end <= b)
        near = [s for s in self.samples if a - WINDOW_S <= s[0] <= b + WINDOW_S]
        return busy * self.factor(near)
