"""Batch executor: route, fan out, merge deterministically.

A *batch* is a list of trace-format operations (``("ins", p)``,
``("del", p)``, ``("q3", (a, b, c))``, ``("q4", (a, b, c, d))`` -- the
same vocabulary :mod:`repro.workloads.traces` generates).  Execution:

1. **Route.**  Each op is appended to the queue of every shard it
   touches, tagged with its batch index.  Point ops hit exactly one
   shard; range queries hit every shard their x-range intersects, and
   4-sided ops are tagged *spanned* on interior shards so those answer
   from the y-directory.
2. **Fan out.**  One thread-pool task per non-empty shard queue.  A
   task takes its shard's writer lock iff its queue contains a
   mutation, else the reader lock -- so disjoint shards always run
   concurrently, and a read-only batch runs concurrently even against
   one shard.  Once a task holds its lock it runs its whole queue: a
   deadline gates the waits before that point, never the work after.
3. **Merge.**  Per-shard partial results are recombined by batch
   index.  Query partials concatenate in shard order and are sorted;
   since slabs are disjoint, the merged answer is exactly what a
   single structure would return, independent of thread scheduling.

Determinism argument: within one shard the queue preserves batch
order, and across shards the ops in one batch touching different
shards commute (a point op lives in exactly one slab; a query's
per-slab answer depends only on that slab's points).  The executor
therefore equals the serial oracle *per batch*; callers who need
cross-batch ordering submit dependent ops in the same batch or in
separate batches.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.serve.deadline import Deadline
from repro.serve.shards import Shard, SlabRouter

Op = Tuple[str, object]

_WRITES = ("ins", "del")
_QUERIES = ("q3", "q4")


class ShardTaskError(RuntimeError):
    """An operation failed inside a shard task (original attached)."""

    def __init__(self, shard_id: int, cause: BaseException):
        super().__init__(f"shard {shard_id}: {cause!r}")
        self.shard_id = shard_id
        self.cause = cause


@dataclass
class BatchResult:
    """Merged results of one batch, plus execution metadata.

    ``results[i]`` corresponds to ``ops[i]``: ``None`` for inserts, a
    bool for deletes (was the point present), a sorted point list for
    queries.  ``wall_s`` is the executor's time for the batch, from
    routing to merge; a batch the engine's admission control shed after
    it waited in the queue reports that wait instead.
    """

    results: List[object]
    wall_s: float
    n_ops: int
    shards_touched: int
    counts: Dict[str, int] = field(default_factory=dict)


@dataclass
class PartialResult(BatchResult):
    """A batch answer that may be degraded by an expired deadline.

    Returned whenever a batch runs with a deadline.  ``complete`` is
    True when every routed shard ran its queue -- then the payload is
    identical to a plain :class:`BatchResult`.  When the deadline
    expired first, ``served_slabs`` / ``missing_slabs`` name the shard
    ids (x-slabs) that did / did not run their queue.  A slab runs its
    whole queue or none of it, so the result says exactly what
    happened: an op routed to a missing slab was not applied (its
    ``results`` entry is None), and a query touching one lacks exactly
    that slab's points.
    """

    complete: bool = True
    served_slabs: List[int] = field(default_factory=list)
    missing_slabs: List[int] = field(default_factory=list)
    deadline_expired: bool = False

    @classmethod
    def nothing_served(
        cls,
        ops: Sequence[Op],
        slabs: Iterable[int],
        *,
        wall_s: float,
        deadline_expired: bool,
    ) -> "PartialResult":
        """The result of a batch that never reached its shards
        (``slabs`` are the x-slabs it was routed to)."""
        return cls(
            results=_unanswered(ops),
            wall_s=wall_s,
            n_ops=len(ops),
            shards_touched=0,
            counts=count_kinds(ops),
            complete=False,
            missing_slabs=sorted(slabs),
            deadline_expired=deadline_expired,
        )


def count_kinds(ops: Sequence[Op]) -> Dict[str, int]:
    """Ops per kind, in order of first appearance."""
    counts: Dict[str, int] = {}
    for kind, _arg in ops:
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def _unanswered(ops: Sequence[Op]) -> List[object]:
    """The results of a batch before any shard answers: ``[]`` for a
    query (no slab's points yet), None for a mutation."""
    return [[] if kind in _QUERIES else None for kind, _arg in ops]


def merge_slabs(parts: Iterable[Iterable[tuple]]) -> List[tuple]:
    """One query's answer from its per-slab answers.

    Slabs are disjoint, so the sorted concatenation is exactly what a
    single structure would return, whatever order the slabs answered in.
    """
    return sorted(chain.from_iterable(parts))


class BatchExecutor:
    """Fan a batch of ops out across slab shards and merge the answers."""

    def __init__(self, router: SlabRouter, *, max_workers: Optional[int] = None):
        self._router = router
        self._n = max_workers if max_workers is not None else len(router)
        if self._n < 1:
            raise ValueError("need at least one worker")
        self._pool = ThreadPoolExecutor(
            max_workers=self._n, thread_name_prefix="serve"
        )

    @property
    def max_workers(self) -> int:
        """Size of the shard-task thread pool."""
        return self._n

    # ------------------------------------------------------------------
    def route(
        self, ops: Sequence[Op]
    ) -> Dict[int, List[Tuple[int, str, tuple, bool]]]:
        """Build per-shard op queues: ``shard_id -> [(batch index, kind,
        args, spanned)]``.  Exposed for tests and the serial oracle."""
        queues: Dict[int, List[Tuple[int, str, tuple, bool]]] = {}
        for idx, (kind, arg) in enumerate(ops):
            if kind in _WRITES:
                sh = self._router.shard_for_x(float(arg[0]))
                queues.setdefault(sh.shard_id, []).append(
                    (idx, kind, tuple(arg), False)
                )
            elif kind in _QUERIES:
                a, b = arg[0], arg[1]
                for sh in self._router.shards_for_range(a, b):
                    queues.setdefault(sh.shard_id, []).append(
                        (idx, kind, tuple(arg),
                         kind == "q4" and sh.covered_by(a, b))
                    )
            else:
                raise ValueError(f"unknown op kind {kind!r}")
        return queues

    @staticmethod
    def _run_queue(
        shard: Shard,
        queue: List[Tuple[int, str, tuple, bool]],
        deadline: Optional[Deadline],
    ) -> Optional[Dict[int, object]]:
        """One shard's task: its results by batch index, or None when
        the deadline expired before the queue started.

        Takes the writer lock iff the queue holds a mutation, else the
        reader lock.  Without a deadline the lock blocks.  With one, the
        lock wait is bounded by the remaining budget and the deadline is
        checked once more with the lock held; a task that fails either
        runs none of its ops.  Past that check the whole queue runs, so
        a batch finishes at most one shard queue after its deadline.
        """
        lock = shard.lock
        timeout = Deadline.remaining_of(deadline)
        if any(kind in _WRITES for _idx, kind, _a, _s in queue):
            acquired, release = lock.acquire_write(timeout), lock.release_write
        else:
            acquired, release = lock.acquire_read(timeout), lock.release_read
        if not acquired:
            return None
        try:
            if deadline is not None and deadline.expired:
                return None
            partial: Dict[int, object] = {}
            for idx, kind, arg, spanned in queue:
                if kind == "ins":
                    shard.insert(arg)
                    partial[idx] = None
                elif kind == "del":
                    partial[idx] = shard.delete(arg)
                elif kind == "q3":
                    partial[idx] = shard.query3(*arg)
                else:
                    partial[idx] = shard.query4(*arg, spanned=spanned)
            return partial
        finally:
            release()

    # ------------------------------------------------------------------
    def execute(
        self, ops: Sequence[Op], *, deadline: Optional[Deadline] = None
    ) -> BatchResult:
        """Run one batch concurrently; results merge deterministically.

        With a ``deadline`` the batch never waits past it: a shard whose
        lock is not free in budget, or whose task starts after expiry,
        runs none of its ops, and the answer comes back as a
        :class:`PartialResult` naming the served and missing x-slabs.
        A started shard queue always runs whole, so the batch is late by
        at most one queue.  Without a deadline it returns a plain
        :class:`BatchResult`.  A failing shard task raises
        :class:`ShardTaskError` once every task ended.
        """
        t0 = time.perf_counter()
        queues = self.route(ops)
        counts = count_kinds(ops)
        if deadline is not None and deadline.expired:
            # budget was gone before fan-out: nothing is served
            return PartialResult.nothing_served(
                ops, queues, wall_s=time.perf_counter() - t0,
                deadline_expired=True,
            )
        shards_by_id = {sh.shard_id: sh for sh in self._router}
        futures = [
            (sid, self._pool.submit(
                self._run_queue, shards_by_id[sid], queues[sid], deadline
            ))
            for sid in sorted(queues)
        ]
        # an entry no shard task fills keeps its unanswered value: a
        # query whose x-range is empty (b < a) routes to no shard
        results = _unanswered(ops)
        query_parts: Dict[int, List[list]] = {}
        served: List[int] = []
        missing: List[int] = []
        error: Optional[ShardTaskError] = None
        for shard_id, fut in futures:  # shard order
            try:
                partial = fut.result()
            except BaseException as exc:  # noqa: BLE001 - annotate and rethrow
                if error is None:
                    error = ShardTaskError(shard_id, exc)
                continue
            if partial is None:
                missing.append(shard_id)
                continue
            served.append(shard_id)
            for idx, value in partial.items():
                if ops[idx][0] in _QUERIES:
                    query_parts.setdefault(idx, []).append(value)
                else:
                    results[idx] = value
        if error is not None:
            raise error
        for idx, parts in query_parts.items():
            results[idx] = merge_slabs(parts)
        wall = time.perf_counter() - t0
        if deadline is None:
            return BatchResult(results, wall, len(ops), len(queues), counts)
        return PartialResult(
            results, wall, len(ops), len(queues), counts,
            complete=not missing,
            served_slabs=served,
            missing_slabs=missing,
            deadline_expired=bool(missing),
        )

    def execute_serial(self, ops: Sequence[Op]) -> BatchResult:
        """One-op-at-a-time oracle loop over the same shards.

        Identical routing and locking semantics, zero concurrency --
        the baseline the batch executor's throughput is measured
        against, and the reference answer for correctness tests.
        """
        t0 = time.perf_counter()
        results: List[object] = [None] * len(ops)
        touched = set()
        for idx, (kind, arg) in enumerate(ops):
            if kind in _WRITES:
                sh = self._router.shard_for_x(float(arg[0]))
                touched.add(sh.shard_id)
                with sh.lock.write_locked():
                    if kind == "ins":
                        sh.insert(arg)
                    else:
                        results[idx] = sh.delete(arg)
            elif kind in _QUERIES:
                a, b = arg[0], arg[1]
                parts = []
                for sh in self._router.shards_for_range(a, b):
                    touched.add(sh.shard_id)
                    with sh.lock.read_locked():
                        if kind == "q3":
                            parts.append(sh.query3(*arg))
                        else:
                            parts.append(
                                sh.query4(*arg, spanned=sh.covered_by(a, b))
                            )
                results[idx] = merge_slabs(parts)
            else:
                raise ValueError(f"unknown op kind {kind!r}")
        return BatchResult(
            results=results,
            wall_s=time.perf_counter() - t0,
            n_ops=len(ops),
            shards_touched=len(touched),
            counts=count_kinds(ops),
        )

    def close(self) -> None:
        """Shut the thread pool down (idempotent)."""
        self._pool.shutdown(wait=True)

    def __repr__(self) -> str:
        return f"BatchExecutor(workers={self._n}, shards={len(self._router)})"
