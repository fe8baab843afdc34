"""Workload definitions, seeded input generation and the answer oracle.

Every input a run uses -- the initial point set and the whole operation
trace -- is generated here from the ``--seed`` argument before any
timing starts.  The engine receives only the generated inputs.

The trace generator keeps the live set in a list plus an index map, so
picking and removing a random live point is O(1).  (The repository's
``repro.workloads.traces.generate_trace`` sorts the live set on every
delete, which takes seconds for tens of thousands of points.)
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

Point = Tuple[float, float]
Op = Tuple[str, tuple]

#: Points, trace and engine share one extent.
EXTENT = 1000.0

#: Settings common to every workload.
BLOCK_SIZE = 32
BATCH_OPS = 8


@dataclass(frozen=True)
class Workload:
    """One traffic mix plus the engine configuration it runs against."""

    name: str
    n_points: int
    engine: Dict[str, object] = field(default_factory=dict)
    # (insert, delete, q3, q4) weights
    mix: Tuple[float, float, float, float] = (0.0, 0.0, 1.0, 0.0)
    # largest x-span (and q4 y-span) as a share of the extent
    span: float = 0.02
    # q3 thresholds are uniform in [y_floor * EXTENT, EXTENT]
    y_floor: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Log backend behind a 2Q pool holding the whole working set: core
        # query CPU (static-index catalog scans) dominates, the store chain
        # below the pool idles.
        Workload(
            name="query_log_cached",
            n_points=40_000,
            engine=dict(
                n_shards=4,
                backend="log",
                pool_capacity=2048,
                pool_policy="2q",
                replication_factor=1,
            ),
            mix=(0.06, 0.04, 0.75, 0.15),
            span=0.02,
        ),
        # PST backend without a pool, high-threshold 3-sided scans: every
        # block crosses Snapshot -> Checksummed -> BlockStore; the static
        # index and replicated writes are bypassed.
        Workload(
            name="scan_pst_uncached",
            n_points=40_000,
            engine=dict(n_shards=4, backend="pst", replication_factor=1),
            mix=(0.03, 0.02, 0.95, 0.0),
            span=0.05,
            y_floor=0.9,
        ),
        # Write-heavy PST at replication factor 2: every write fans out to
        # both replicas inside a COW epoch with flush and a CRC sweep.
        Workload(
            name="churn_pst_rf2",
            n_points=20_000,
            engine=dict(n_shards=2, backend="pst", replication_factor=2),
            mix=(0.45, 0.35, 0.20, 0.0),
            span=0.02,
        ),
    )
}


def make_points(w: Workload, seed: int) -> List[Point]:
    """``w.n_points`` distinct uniform points in the square extent."""
    rng = random.Random(f"{w.name}/points/{seed}")
    seen = set()
    out: List[Point] = []
    while len(out) < w.n_points:
        p = (rng.uniform(0, EXTENT), rng.uniform(0, EXTENT))
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


def make_trace(w: Workload, seed: int, initial: Sequence[Point], n_ops: int) -> List[Op]:
    """A self-consistent trace: every delete hits a live point and no
    insert repeats one."""
    rng = random.Random(f"{w.name}/trace/{seed}")
    live = list(initial)
    where = {p: i for i, p in enumerate(live)}
    w_ins, w_del, w_q3, w_q4 = w.mix
    total = w_ins + w_del + w_q3 + w_q4
    span = w.span * EXTENT
    ops: List[Op] = []
    while len(ops) < n_ops:
        r = rng.random() * total
        if r < w_ins or not live:
            p = (rng.uniform(0, EXTENT), rng.uniform(0, EXTENT))
            if p in where:
                continue
            where[p] = len(live)
            live.append(p)
            ops.append(("ins", p))
        elif r < w_ins + w_del:
            i = rng.randrange(len(live))
            p = live[i]
            last = live.pop()
            if i < len(live):
                live[i] = last
                where[last] = i
            del where[p]
            ops.append(("del", p))
        elif r < w_ins + w_del + w_q3:
            a = rng.uniform(0, EXTENT - span)
            b = a + rng.uniform(0, span)
            c = rng.uniform(w.y_floor * EXTENT, EXTENT)
            ops.append(("q3", (a, b, c)))
        else:
            a = rng.uniform(0, EXTENT - span)
            b = a + rng.uniform(0, span)
            c = rng.uniform(0, EXTENT - span)
            d = c + rng.uniform(0, span)
            ops.append(("q4", (a, b, c, d)))
    return ops


class Oracle:
    """Independent in-memory answer model: one sorted point list.

    Shares no code with the engine; answers are exactly what
    ``ServingEngine.execute`` documents: ``None`` for inserts, presence
    for deletes, sorted point lists for queries.
    """

    def __init__(self, points: Sequence[Point]):
        self._pts: List[Point] = sorted(points)

    def apply(self, kind: str, arg: tuple) -> object:
        pts = self._pts
        if kind == "ins":
            i = bisect.bisect_left(pts, arg)
            if i == len(pts) or pts[i] != arg:
                pts.insert(i, arg)
            return None
        if kind == "del":
            i = bisect.bisect_left(pts, arg)
            if i < len(pts) and pts[i] == arg:
                del pts[i]
                return True
            return False
        a, b = arg[0], arg[1]
        lo = bisect.bisect_left(pts, (a, float("-inf")))
        hi = bisect.bisect_right(pts, (b, float("inf")))
        if kind == "q3":
            c = arg[2]
            return [p for p in pts[lo:hi] if p[1] >= c]
        c, d = arg[2], arg[3]
        return [p for p in pts[lo:hi] if c <= p[1] <= d]
