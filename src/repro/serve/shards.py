"""Slab sharding: partition the plane into contiguous x-slabs.

The serving tier scales the paper's single-structure indexes the same
way the Theorem 5 construction scales 3-sided structures into a
4-sided one: cut the x-axis into contiguous slabs and put a complete
3-sided structure in each.  A query ``[a, b]`` touches only the shards
whose slab intersects it; interior shards are *fully spanned* (their
whole slab lies inside ``[a, b]``), so for 4-sided queries they can
answer from a y-ordered directory without touching the 3-sided
structure at all -- exactly the role the ``Y``-sets play inside one
Theorem 5 level, lifted to the serving layer.

Each :class:`Shard` is a :class:`~repro.serve.replication.ReplicaSet`
of ``replication_factor`` private store chains

    ``BlockStore -> Checksummed -> Snapshot [-> Faulty -> Retrying]
    [-> BufferPool]``

so shards fail, retry, cache and snapshot independently, and their I/O
counters never interleave.  With ``replication_factor=1`` (the
default) the shard is exactly the pre-replication serving tier plus
the zero-I/O checksum frame; with more, writes fan out to every live
replica and reads fall over to a peer on a fault or checksum mismatch.
A writer-preferring :class:`~repro.serve.locks.ReadWriteLock` per
shard gives the executor its single-writer / multi-reader discipline.
:class:`SlabRouter` maps points and x-ranges to shards via bisection
on the slab boundaries.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.external_pst import ExternalPrioritySearchTree
from repro.core.log_method import LogMethodThreeSidedIndex
from repro.obs.metrics import counter
from repro.resilience.retry import RetryPolicy
from repro.serve.deadline import Deadline
from repro.serve.locks import ReadWriteLock
from repro.serve.replication import Replica, ReplicaSet, ReplicaSpec
from repro.serve.snapshots import ShardSnapshot

Point = Tuple[float, float]

# Backend registry: (build, attach) per selectable 3-sided structure.
# Both present the same surface: query(a, b, c), insert(x, y),
# delete(x, y) -> bool, count, all_points(), snapshot_meta()/attach().
BACKENDS: Dict[str, Tuple[Callable, Callable]] = {
    "pst": (
        lambda store, pts, kw: ExternalPrioritySearchTree(store, pts, **kw),
        ExternalPrioritySearchTree.attach,
    ),
    "log": (
        lambda store, pts, kw: LogMethodThreeSidedIndex(store, pts, **kw),
        LogMethodThreeSidedIndex.attach,
    ),
}


class Shard:
    """One contiguous x-slab: replica set, 3-sided structure, y-list.

    The shard does no locking itself -- callers (the batch executor and
    the engine facade) hold :attr:`lock` appropriately.  ``x_lo`` /
    ``x_hi`` bound the owned slab as ``[x_lo, x_hi)``; the router makes
    the outermost shards open-ended.

    ``fault_schedules`` (one per replica, ``None`` entries allowed)
    gives every copy its own deterministic fault stream.  Per-replica
    chains and structures live on :attr:`replica_set`; :attr:`primary`
    is the replica currently serving first.
    """

    def __init__(
        self,
        shard_id: int,
        x_lo: float,
        x_hi: float,
        *,
        block_size: int = 32,
        backend: str = "pst",
        points: Sequence[Point] = (),
        pool_capacity: int = 0,
        pool_policy: str = "lru",
        readahead_window: int = 0,
        coalesce_writes: bool = False,
        fault_schedules: Optional[Sequence] = None,
        retry_policy: Optional[RetryPolicy] = None,
        io_latency: float = 0.0,
        backend_kwargs: Optional[dict] = None,
        replication_factor: int = 1,
        breaker_threshold: int = 3,
        breaker_probe_after: int = 8,
        auto_rebuild: bool = True,
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}"
            )
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        schedules = (
            [None] * replication_factor
            if fault_schedules is None else list(fault_schedules)
        )
        if len(schedules) != replication_factor:
            raise ValueError(
                "need one fault schedule entry per replica "
                f"({len(schedules)} != {replication_factor})"
            )
        self.shard_id = shard_id
        self.x_lo = x_lo
        self.x_hi = x_hi
        self.backend = backend
        self.lock = ReadWriteLock()

        spec = ReplicaSpec(
            block_size,
            pool_capacity=pool_capacity,
            pool_policy=pool_policy,
            readahead_window=readahead_window,
            coalesce_writes=coalesce_writes,
            retry_policy=retry_policy,
            io_latency=io_latency,
            breaker_threshold=breaker_threshold,
            breaker_probe_after=breaker_probe_after,
        )
        mine = sorted(
            (float(p[0]), float(p[1])) for p in points
        )
        build, self._attach = BACKENDS[backend]
        replicas = []
        for j in range(replication_factor):
            r = Replica(
                j,
                spec,
                fault_schedule=schedules[j],
                labels={"shard": str(shard_id), "replica": str(j)},
            )
            # provision below the chaos: the bulk load runs with fault
            # injection disarmed (no schedule draws), so every replica is
            # born healthy and the hostile environment tests serving only
            if r.faulty is not None:
                r.faulty.armed = False
            r.structure = build(r.store, mine, backend_kwargs or {})
            r.flush()
            if r.faulty is not None:
                r.faulty.armed = True
            replicas.append(r)
        self.replica_set = ReplicaSet(
            shard_id, replicas, attach=self._attach, auto_rebuild=auto_rebuild
        )
        # y-ordered directory for fully-spanned 4-sided queries: kept in
        # memory like the static index's catalog (O(n) words), it turns
        # an interior shard's q4 into zero disk I/O.
        self._ylist: List[Tuple[float, float]] = sorted(
            (y, x) for (x, y) in mine
        )

    # ------------------------------------------------------------------
    @property
    def primary(self) -> Replica:
        """The replica currently serving as primary."""
        return self.replica_set.primary

    @property
    def count(self) -> int:
        """Live records in this shard."""
        return self.primary.structure.count

    def owns(self, x: float) -> bool:
        """Whether ``x`` falls in this shard's slab ``[x_lo, x_hi)``."""
        return self.x_lo <= x < self.x_hi

    def covered_by(self, a: float, b: float) -> bool:
        """Whether the whole slab lies inside ``[a, b]`` (fully spanned)."""
        return a <= self.x_lo and self.x_hi <= b

    # ------------------------------------------------------------------
    # operations (caller holds the appropriate lock)
    # ------------------------------------------------------------------
    def insert(self, p: Point) -> bool:
        """Insert; returns False if the point is already present.

        The mutation fans out to every live replica before it is
        acknowledged (see :meth:`ReplicaSet.apply_write`); the shared
        y-directory updates only on an acknowledged apply.
        """
        x, y = float(p[0]), float(p[1])
        i = bisect.bisect_left(self._ylist, (y, x))
        if i < len(self._ylist) and self._ylist[i] == (y, x):
            return False
        self.replica_set.apply_write(lambda s: s.insert(x, y))
        self._ylist.insert(i, (y, x))
        counter("shard_ops", layer="serve", kind="ins").inc()
        return True

    def delete(self, p: Point) -> bool:
        """Delete; returns whether the point was present."""
        x, y = float(p[0]), float(p[1])
        ok = bool(self.replica_set.apply_write(lambda s: s.delete(x, y)))
        if ok:
            i = bisect.bisect_left(self._ylist, (y, x))
            if i < len(self._ylist) and self._ylist[i] == (y, x):
                self._ylist.pop(i)
        counter("shard_ops", layer="serve", kind="del").inc()
        return ok

    def query3(
        self,
        a: float,
        b: float,
        c: float,
        *,
        deadline: Optional[Deadline] = None,
    ) -> List[Point]:
        """3-sided query, served by the first replica that can answer."""
        counter("shard_ops", layer="serve", kind="q3").inc()
        return self.replica_set.read_any(
            lambda s: s.query(a, b, c), deadline=deadline
        )

    def query4(
        self,
        a: float,
        b: float,
        c: float,
        d: float,
        *,
        spanned: bool = False,
        deadline: Optional[Deadline] = None,
    ) -> List[Point]:
        """4-sided query.  ``spanned=True`` (slab inside ``[a, b]``)
        answers from the in-memory y-directory -- zero disk I/O; the
        boundary shards fall back to a 3-sided probe plus a y filter."""
        counter("shard_ops", layer="serve", kind="q4").inc()
        if spanned:
            lo = bisect.bisect_left(self._ylist, (c, float("-inf")))
            hi = bisect.bisect_right(self._ylist, (d, float("inf")))
            return [(x, y) for (y, x) in self._ylist[lo:hi]]
        return self.replica_set.read_any(
            lambda s: [p for p in s.query(a, b, c) if p[1] <= d],
            deadline=deadline,
        )

    def all_points(self) -> List[Point]:
        """Every live point of the slab, served like a query (caller
        holds the reader lock)."""
        return self.replica_set.read_any(lambda s: s.all_points())

    # ------------------------------------------------------------------
    def heal(self, *, locked: bool = False) -> int:
        """Rebuild any dead replicas from a healthy peer.

        Takes the writer lock unless the caller already holds it and
        passes ``locked=True``.  Returns the number rebuilt.
        """
        if locked:
            return self.replica_set.rebuild_dead()
        with self.lock.write_locked():
            return self.replica_set.rebuild_dead()

    # ------------------------------------------------------------------
    def snapshot(self, *, locked: bool = False) -> ShardSnapshot:
        """Open a frozen-epoch read view of this shard.

        Takes the writer lock (unless the caller already holds it and
        passes ``locked=True``) so the captured meta and the epoch's
        pre-images are mutually consistent, flushes any buffer-pool
        frames down to disk, then opens the COW epoch.
        """
        if locked:
            return self._snapshot_locked()
        with self.lock.write_locked():
            return self._snapshot_locked()

    def _snapshot_locked(self) -> ShardSnapshot:
        primary = self.primary
        primary.flush()
        meta = primary.structure.snapshot_meta()
        epoch = primary.snapstore.open_epoch()
        counter("snapshots_opened", layer="serve").inc()
        return ShardSnapshot(
            primary.snapstore, epoch, meta, self._attach, self.x_lo, self.x_hi
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Shard health: counts, physical I/O, cache and snapshot state."""
        primary = self.primary
        pool = primary.pool
        out = {
            "shard": self.shard_id,
            "backend": self.backend,
            "count": self.count,
            "x_lo": self.x_lo,
            "x_hi": self.x_hi,
            "reads": primary.base_store.stats.reads,
            "writes": primary.base_store.stats.writes,
            "open_epochs": len(primary.snapstore.open_epochs),
            "replication": self.replica_set.stats(),
        }
        if pool is not None:
            out["pool_hits"] = pool.hits
            out["pool_misses"] = pool.misses
            out["pool_hit_rate"] = pool.hit_rate
            out["pool_policy"] = pool.policy.name
            out["pool_prefetch_hits"] = pool.prefetch_hits
            out["pool_prefetch_waste"] = pool.prefetch_waste
            out["pool_coalesced_writes"] = pool.coalesced_writes
        return out

    def __repr__(self) -> str:
        return (
            f"Shard({self.shard_id}, [{self.x_lo}, {self.x_hi}), "
            f"backend={self.backend}, count={self.count})"
        )


class SlabRouter:
    """Route points and x-ranges to contiguous slab shards.

    ``boundaries`` holds the interior cut points; shard ``i`` owns
    ``[boundaries[i-1], boundaries[i])`` with the outermost shards
    open-ended.  A point exactly on a boundary belongs to the shard on
    its right, matching :meth:`Shard.owns`.
    """

    def __init__(self, shards: Sequence[Shard], boundaries: Sequence[float]):
        if len(boundaries) != len(shards) - 1:
            raise ValueError("need exactly len(shards) - 1 boundaries")
        if list(boundaries) != sorted(boundaries):
            raise ValueError("boundaries must be sorted")
        self.shards = list(shards)
        self.boundaries = [float(b) for b in boundaries]

    @staticmethod
    def quantile_boundaries(
        points: Sequence[Point], n_shards: int, *, extent: float = 1000.0
    ) -> List[float]:
        """Interior cut points splitting ``points`` into equal-count
        slabs; falls back to uniform cuts of ``[0, extent]`` when there
        are too few points to estimate quantiles."""
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if n_shards == 1:
            return []
        xs = sorted(float(p[0]) for p in points)
        if len(xs) < n_shards:
            return [extent * i / n_shards for i in range(1, n_shards)]
        return [xs[(len(xs) * i) // n_shards] for i in range(1, n_shards)]

    # ------------------------------------------------------------------
    def shard_for_x(self, x: float) -> Shard:
        """The unique shard owning x-coordinate ``x``."""
        return self.shards[bisect.bisect_right(self.boundaries, x)]

    def shards_for_range(self, a: float, b: float) -> List[Shard]:
        """Every shard whose slab intersects ``[a, b]`` (in slab order)."""
        if b < a:
            return []
        lo = bisect.bisect_right(self.boundaries, a)
        hi = bisect.bisect_right(self.boundaries, b)
        return self.shards[lo:hi + 1]

    @property
    def total_count(self) -> int:
        """Live records across all shards."""
        return sum(s.count for s in self.shards)

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    def __repr__(self) -> str:
        return f"SlabRouter({len(self.shards)} shards, cuts={self.boundaries})"
