"""The serving facade: shards + router + executor + admission.

:class:`ServingEngine` is the one object a client holds.  Construction
partitions the initial point set into equal-count x-slabs (quantile
cuts), builds one :class:`~repro.serve.shards.Shard` per slab -- each
with its own store chain, optionally faulty/retrying/cached, each
running the selected 3-sided backend -- and wires the
:class:`~repro.serve.executor.BatchExecutor` and
:class:`~repro.serve.admission.AdmissionController` over them.

The public surface is deliberately small:

- :meth:`execute` -- admission-gated concurrent batch execution;
- :meth:`execute_serial` -- the one-op-at-a-time oracle loop;
- :meth:`insert` / :meth:`delete` / :meth:`query3` / :meth:`query4` --
  single-op conveniences with correct locking;
- :meth:`snapshot` -- an engine-wide frozen view (all shard writer
  locks taken in shard order, so the cut is consistent and
  deadlock-free);
- :meth:`stats` -- per-shard I/O, cache, admission, replication and
  snapshot state.

With ``replication_factor > 1`` every shard keeps that many full
replica chains (checksummed, snapshot-capable, independently faulty):
writes fan out before acknowledging, reads fail over on corruption or
I/O faults, dead replicas rebuild online from a healthy peer, and
:meth:`scrub` repairs silently rotten blocks in place.  ``deadline=``
on :meth:`execute` bounds a batch's waits -- admission and shard locks
-- and returns a :class:`~repro.serve.executor.PartialResult` naming
the served and missing x-slabs instead of hanging.  A shard that
starts runs its whole queue, so a batch is late by at most one shard
queue and a missing slab applied none of its ops.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.resilience.faults import FaultSchedule
from repro.serve.admission import AdmissionController, EngineOverloaded
from repro.serve.deadline import Deadline
from repro.serve.executor import (
    BatchExecutor,
    BatchResult,
    Op,
    PartialResult,
    merge_slabs,
)
from repro.serve.replication import ReplicaSpec
from repro.serve.scrub import Scrubber
from repro.serve.shards import Shard, SlabRouter
from repro.serve.snapshots import ShardSnapshot

Point = Tuple[float, float]


class EngineSnapshot:
    """A consistent frozen view across every shard.

    Holds one :class:`~repro.serve.snapshots.ShardSnapshot` per shard,
    all cut at the same instant (no writer could run between the first
    and last capture because the engine held every writer lock).
    Queries scatter to the frozen shards and merge sorted, mirroring
    live execution.
    """

    def __init__(self, router: SlabRouter, snaps: List[ShardSnapshot]):
        self._router = router
        self._snaps = snaps

    def query3(self, a: float, b: float, c: float) -> List[Point]:
        """3-sided query against the frozen cut."""
        return merge_slabs(
            self._snaps[sh.shard_id].query3(a, b, c)
            for sh in self._router.shards_for_range(a, b)
        )

    def query4(self, a: float, b: float, c: float, d: float) -> List[Point]:
        """4-sided query against the frozen cut."""
        return merge_slabs(
            self._snaps[sh.shard_id].query4(a, b, c, d)
            for sh in self._router.shards_for_range(a, b)
        )

    @property
    def count(self) -> int:
        """Live records in the frozen cut."""
        return sum(snap.count for snap in self._snaps)

    def all_points(self) -> List[Point]:
        """Every point in the frozen cut, sorted."""
        return merge_slabs(snap.all_points() for snap in self._snaps)

    def close(self) -> None:
        """Release every shard epoch (idempotent)."""
        for snap in self._snaps:
            snap.close()

    def __enter__(self) -> "EngineSnapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"EngineSnapshot({len(self._snaps)} shards)"


class ServingEngine:
    """Sharded concurrent query-serving engine over the paper's indexes."""

    def __init__(
        self,
        points: Sequence[Point] = (),
        *,
        n_shards: int = 4,
        block_size: int = 32,
        backend: str = "pst",
        pool_capacity: int = 0,
        pool_policy: str = "lru",
        readahead_window: int = 0,
        max_workers: Optional[int] = None,
        io_latency: float = 0.0,
        max_inflight: Optional[int] = None,
        max_queue: int = 16,
        admission_policy: str = "block",
        fault_seed: Optional[int] = None,
        fault_rates: Optional[dict] = None,
        extent: float = 1000.0,
        replication_factor: int = 1,
    ):
        pts = [(float(p[0]), float(p[1])) for p in points]
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if fault_rates is not None and fault_seed is None:
            raise ValueError("fault_rates needs a fault_seed")
        boundaries = SlabRouter.quantile_boundaries(
            pts, n_shards, extent=extent
        )
        edges = [float("-inf")] + boundaries + [float("inf")]
        spec = ReplicaSpec(
            block_size,
            pool_capacity=pool_capacity,
            pool_policy=pool_policy,
            readahead_window=readahead_window,
            io_latency=io_latency,
        )
        shards: List[Shard] = []
        for i in range(n_shards):
            lo, hi = edges[i], edges[i + 1]
            mine = [p for p in pts if lo <= p[0] < hi]
            schedules = None
            if fault_seed is not None:
                # shard keeps its historical seed; each replica draws
                # from its own stream of it, so replica 0 with factor 1
                # reproduces the pre-replication fault log byte for byte
                schedules = [
                    FaultSchedule(
                        seed=fault_seed + i, stream=j, **(fault_rates or {})
                    )
                    for j in range(replication_factor)
                ]
            shards.append(
                Shard(
                    i, lo, hi, spec,
                    backend=backend,
                    points=mine,
                    fault_schedules=schedules,
                    replication_factor=replication_factor,
                )
            )
        self.router = SlabRouter(shards, boundaries)
        self.executor = BatchExecutor(self.router, max_workers=max_workers)
        self.admission = AdmissionController(
            max_inflight=(
                max_inflight
                if max_inflight is not None
                else self.executor.max_workers
            ),
            max_queue=max_queue,
            policy=admission_policy,
        )
        self.scrubber = Scrubber(shards)

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def execute(
        self, ops: Sequence[Op], *, deadline: Optional[Deadline] = None
    ) -> BatchResult:
        """Run one batch through admission control and the executor.

        Without a deadline this raises :class:`EngineOverloaded` when
        the controller sheds the batch -- callers decide whether to
        retry, back off, or drop.  With one, the deadline bounds the
        waits: the admission wait and each shard-lock wait are capped
        by the remaining budget, and a shard whose task would start
        late runs none of its ops.  Such a batch comes back as a
        :class:`~repro.serve.executor.PartialResult` naming the served
        and missing x-slabs -- it never hangs and never raises for
        lateness; it finishes at most one shard queue after its
        deadline.
        """
        t0 = time.perf_counter()
        if not self.admission.acquire(Deadline.remaining_of(deadline)):
            if deadline is None:
                raise EngineOverloaded(
                    f"batch of {len(ops)} ops shed "
                    f"(policy={self.admission.policy!r})"
                )
            # shed while waiting: nothing was served, report it as a
            # degraded (empty) result rather than an exception, timed
            # by the wait it spent in the admission queue
            return PartialResult.nothing_served(
                ops, self.executor.route(ops),
                wall_s=time.perf_counter() - t0,
                deadline_expired=deadline.expired,
            )
        try:
            return self.executor.execute(ops, deadline=deadline)
        finally:
            self.admission.release()

    def execute_serial(self, ops: Sequence[Op]) -> BatchResult:
        """The one-op-at-a-time oracle loop (no admission, no pool)."""
        return self.executor.execute_serial(ops)

    # ------------------------------------------------------------------
    # single-op conveniences
    # ------------------------------------------------------------------
    def insert(self, x: float, y: float) -> bool:
        """Insert one point; False if it was already present."""
        sh = self.router.shard_for_x(float(x))
        with sh.lock.write_locked():
            return sh.insert((x, y))

    def delete(self, x: float, y: float) -> bool:
        """Delete one point; False if it was absent."""
        sh = self.router.shard_for_x(float(x))
        with sh.lock.write_locked():
            return sh.delete((x, y))

    def _read_slabs(self, shards, answer) -> List[Point]:
        """Merge ``answer(shard)`` over ``shards``, each under its
        reader lock."""
        parts = []
        for sh in shards:
            with sh.lock.read_locked():
                parts.append(answer(sh))
        return merge_slabs(parts)

    def query3(self, a: float, b: float, c: float) -> List[Point]:
        """3-sided query ``a <= x <= b, y >= c`` across shards."""
        return self._read_slabs(
            self.router.shards_for_range(a, b),
            lambda sh: sh.query3(a, b, c),
        )

    def query4(self, a: float, b: float, c: float, d: float) -> List[Point]:
        """4-sided query ``a <= x <= b, c <= y <= d`` across shards."""
        return self._read_slabs(
            self.router.shards_for_range(a, b),
            lambda sh: sh.query4(a, b, c, d, spanned=sh.covered_by(a, b)),
        )

    # ------------------------------------------------------------------
    def snapshot(self) -> EngineSnapshot:
        """Open a consistent frozen view across every shard.

        Writer locks are taken in shard order (total order, so
        concurrent snapshots cannot deadlock; shard tasks only ever
        hold one lock) and released once every epoch is open.
        """
        for sh in self.router.shards:
            sh.lock.acquire_write()
        try:
            snaps = [sh.snapshot(locked=True) for sh in self.router.shards]
        finally:
            for sh in self.router.shards:
                sh.lock.release_write()
        return EngineSnapshot(self.router, snaps)

    # ------------------------------------------------------------------
    # self-healing surface
    # ------------------------------------------------------------------
    def scrub(self) -> dict:
        """One scrub pass: verify every replica block, repair rot from
        healthy peers, rebuild dead replicas.  Returns the pass
        summary; cumulative totals live on :attr:`scrubber`."""
        return self.scrubber.scrub_once()

    def heal(self) -> int:
        """Rebuild every dead replica across all shards; returns how
        many were rebuilt."""
        return sum(sh.heal() for sh in self.router.shards)

    def kill_replica(
        self, shard_id: int, replica_index: int, reason: str = "injected kill"
    ) -> None:
        """Force-fail one replica (chaos testing).  The next write,
        :meth:`heal` or :meth:`scrub` rebuilds it from a live peer."""
        sh = self.router.shards[shard_id]
        with sh.lock.write_locked():
            sh.replica_set.kill(replica_index, reason)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Live records across all shards."""
        return self.router.total_count

    def all_points(self) -> List[Point]:
        """Every live point across all shards, sorted (replica
        failover and in-place healing as for queries)."""
        return self._read_slabs(self.router.shards, lambda sh: sh.all_points())

    def stats(self) -> Dict[str, object]:
        """Engine health: per-shard I/O and cache, admission,
        replication, scrub and shed-rate totals.

        ``total_reads`` / ``total_writes`` count the *primary* replica
        chains only (the served I/O the benchmarks gate);
        ``total_replica_reads`` / ``total_replica_writes`` count every
        copy, so the redundancy overhead is visible as their ratio.
        """
        admission = self.admission.snapshot()
        shards = self.router.shards
        shard_stats = [sh.stats() for sh in shards]
        per_shard = [st["replication"] for st in shard_stats]
        replication = {
            "factor": max(rs["factor"] for rs in per_shard),
            "live_replicas": sum(rs["live"] for rs in per_shard),
        }
        for key in ("failovers", "rebuilds", "rebuild_failures",
                    "read_fallbacks", "write_aborts", "block_repairs",
                    "writes_rejected", "breaker_opened", "crc_mismatches",
                    "pre_image_reads"):
            replication[key] = sum(rs[key] for rs in per_shard)
        return {
            "count": self.count,
            "n_shards": len(self.router),
            "boundaries": list(self.router.boundaries),
            "shards": shard_stats,
            "admission": admission,
            "shed_rate": admission["shed_rate"],
            "replication": replication,
            "scrub": self.scrubber.summary(),
            "total_reads": sum(st["reads"] for st in shard_stats),
            "total_writes": sum(st["writes"] for st in shard_stats),
            "total_replica_reads": sum(
                r.base_store.stats.reads
                for sh in shards
                for r in sh.replica_set.replicas
            ),
            "total_replica_writes": sum(
                r.base_store.stats.writes
                for sh in shards
                for r in sh.replica_set.replicas
            ),
        }

    def close(self) -> None:
        """Shut the executor pool down (idempotent)."""
        self.executor.close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ServingEngine(shards={len(self.router)}, count={self.count}, "
            f"workers={self.executor.max_workers})"
        )
