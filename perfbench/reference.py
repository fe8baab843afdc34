"""Fixed pure-Python reference workloads: how fast the machine is now.

The benchmark's timing metrics come from pure-Python code on shared
virtual CPUs whose speed drifts by 20-50% over minutes: an engine build
took 0.29-0.34 s in one quarter hour and 0.40-0.57 s in the next, with
every layer slowed alike.  No statistic of one run escapes that, so
every timing metric is reported at a *nominal* machine speed: measured
time times ``REF_NOMINAL_S`` over the time of a reference sampled
interleaved with the measured work.  The references live in the
benchmark, not in the code under test, so a change to the engine moves
the metrics and never the scale.

Each kind of measured work has the reference that follows it best:

- An engine build runs on one thread.  :func:`reference_unit` runs
  before and after every build, and each build's time is scaled by the
  mean of those two samples.  Over ten processes that drifted between
  the two states above, the median build time spread 0.26 (quartile
  distance over median); the median of the paired ratios 0.09.
- A batch fans out to the engine's executor threads, and when the host
  is contended the hand-offs between threads slow down more than a
  single thread does.  :func:`fanout_reference_unit` runs the same
  kind of work through a pool as wide as the executor, a batch of
  tasks at a time.
  Over eight runs, throughput spread 0.109 as measured, 0.075 scaled
  by the one-thread reference and 0.029 scaled by the fan-out one.
"""

from __future__ import annotations

import gc
import random
import statistics
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Callable, List

#: A reference's time on the nominal machine: a round figure near the
#: median of both references on a 2.0 GHz Xeon vCPU (Python 3.11).
REF_NOMINAL_S = 0.025


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key = key
        self.value = value
        self.next = nxt


def _work(n: int, seed: int) -> int:
    """Work shaped like the engine's: tuples, a sort, a dict, small
    objects and block-sized filtered scans."""
    rng = random.Random(seed)
    pts = [(rng.random(), rng.random()) for _ in range(n)]
    pts.sort()
    where = {p: i for i, p in enumerate(pts)}
    head = None
    for p in pts:
        head = _Node(p[0], where[p], head)
    found = 0
    for i in range(0, len(pts), 32):
        found += len([p for p in pts[i:i + 32] if p[1] > 0.5])
    return found


def reference_unit() -> int:
    return _work(15_000, 0)


def fanout_reference_unit(pool: ThreadPoolExecutor) -> int:
    """Eight batches of four tasks through ``pool``, waiting for each."""
    found = 0
    for batch in range(8):
        tasks = [pool.submit(_work, 470, 4 * batch + j) for j in range(4)]
        found += sum(t.result() for t in tasks)
    return found


class Speedometer:
    """Reference samples taken between stretches of measured work.

    For :meth:`nominal`, take a sample before the first stretch and
    after every stretch: stretch ``j`` ran between samples ``j - 1``
    and ``j``.
    """

    def __init__(self, unit: Callable[[], int] = reference_unit) -> None:
        self._unit = unit
        self.samples: List[float] = []

    def sample(self) -> None:
        # without the collector: its passes would scan whatever the run
        # holds (an engine, or none), and the references make no cycles
        gc.disable()
        try:
            t0 = perf_counter()
            self._unit()
            self.samples.append(perf_counter() - t0)
        finally:
            gc.enable()

    def nominal(self, seconds: float, mark: int) -> float:
        """``seconds`` measured in stretch ``mark``, at the nominal speed."""
        ref = (self.samples[mark - 1] + self.samples[mark]) / 2.0
        return seconds * REF_NOMINAL_S / ref

    def median(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """The factor taking a time measured in this run to the nominal
        machine, from the median of all samples."""
        return REF_NOMINAL_S / self.median()
