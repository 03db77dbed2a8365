"""How fast the host runs right now, from a fixed slice of reference work.

The benchmark host's speed drifts by up to 2x over tens of seconds (other
tenants share its cores), and process CPU time drifts with it. Every timed
figure is therefore scaled to a nominal host speed: a run measures the
reference slice between its operations, and a time t becomes
t * NOMINAL_S / median(slice times). The slice shares no code with curv4, so
a change to curv4 cannot move it. A workload whose pool runs two threads is
measured against two concurrent slices: its speed depends on both cores and
on handing the interpreter lock between threads, which one slice alone does
not see.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Median time of one slice on the 2-core host the reference figures were
# taken on, run alone and run as two concurrent threads (which share the
# interpreter lock and both cores, as scan's pool does).
NOMINAL_S = {1: 2.5e-3, 2: 7.0e-3}

_A = np.arange(16.0).reshape(4, 4) / 10.0 + np.eye(4)


def _slice():
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150):
        b = _A + i * 1e-3
        c = np.einsum("ij,jk->ik", b, b)
        acc += float(np.linalg.det(c)) + sum(float(v) for v in c[0])
    return time.perf_counter() - t0


class Reference:
    """Times the slice in as many threads as the workload runs at once."""

    def __init__(self, threads=1):
        self.threads = threads
        self._pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None

    def sample(self):
        """Wall time of one slice per thread, all started together."""
        if self._pool is None:
            return _slice()
        t0 = time.perf_counter()
        list(self._pool.map(lambda _: _slice(), range(self.threads)))
        return time.perf_counter() - t0

    def slowdown(self, samples):
        """How many times slower than nominal the host ran while the samples were taken."""
        return statistics.median(samples) / NOMINAL_S[self.threads]

    def close(self):
        if self._pool is not None:
            self._pool.shutdown()
