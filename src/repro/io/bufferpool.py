"""Policy-pluggable write-back buffer pool with readahead and coalescing.

The paper's Section 3.1 keeps ``O(1)`` "catalog" blocks resident in main
memory; :meth:`BufferPool.pin` models exactly that.  Reads served from the
pool cost no disk I/O; evictions of dirty frames cost a write.  The pool
presents the same storage protocol as :class:`BlockStore`, so any structure
can run with or without caching -- ablation A2 quantifies the difference.

Beyond the classic pool, three hot-path features are selectable (all off
by default, under which the pool is bit-for-bit the original LRU pool --
the gated experiment baselines depend on that):

``policy=``
    Frame replacement strategy: ``"lru"`` (default), scan-resistant
    ``"2q"``, or ``"clock"`` -- see :mod:`repro.io.policies`.  A policy
    only orders the unpinned frames; the pool owns the frame table,
    dirty set and pin set.

``readahead_window=``
    CONT-chain readahead.  Structures with sequential block runs
    (:class:`~repro.substrates.blocked_list.BlockedSequence` chains, the
    static indexes' slab lists, the PST's spill chains) announce them
    via :func:`repro.io.hooks.prefetch_hint`; the pool learns the
    successor of each hinted block and, on a logical miss, batch-fetches
    up to ``readahead_window`` further blocks down the learned chain.
    Counters: ``prefetch_issued`` (blocks fetched ahead of demand),
    ``prefetch_hits`` (later reads served from a prefetched frame),
    ``prefetch_waste`` (prefetched frames evicted, dropped or
    overwritten before any read).  ``issued == hits + waste +
    still-resident-untouched`` at all times.

``coalesce_writes=``
    Group flush: when an eviction must write back a dirty victim, the
    *entire* dirty set is written in one block-id-sorted batch (the
    sequential pass a real disk absorbs in one seek), leaving the
    survivors resident but clean.  ``coalesced_writes`` counts the
    writes that rode along with a batch leader.  The failure discipline
    is unchanged: a frame is unmarked only after its own write
    succeeded, so a mid-batch failure leaves exactly the unflushed
    frames dirty.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.io.blockstore import (
    Block,
    BlockCapacityError,
    BlockStore,
    StorageError,
    StoreObserver,
)
from repro.io.layer import StoreLayer
from repro.io.policies import ReplacementPolicy, make_policy


class BufferPool(StoreLayer):
    """Write-back cache over a block store with pluggable replacement.

    Parameters
    ----------
    store:
        The underlying simulated disk (or a wrapper chain over one).
    capacity:
        Number of unpinned frames the pool may hold.  Pinned frames are
        accounted separately (the paper's resident catalog blocks).
    policy:
        Replacement policy: a name from
        :data:`repro.io.policies.POLICIES`, a policy class, or a ready
        instance.  Default ``"lru"`` reproduces the original pool's
        eviction sequence exactly.
    readahead_window:
        Maximum blocks fetched ahead per logical miss along a learned
        CONT chain.  ``0`` (default) disables readahead entirely:
        hints are ignored and no extra physical reads ever happen.
    coalesce_writes:
        Flush the whole dirty set, block-id-sorted, whenever an
        eviction or :meth:`flush` writes back.  Default off.

    Every hit returns a private copy of the cached frame, so a caller
    can never corrupt the pool through a returned block.
    """

    def __init__(
        self,
        store: BlockStore,
        capacity: int,
        *,
        policy: "Union[str, ReplacementPolicy, type]" = "lru",
        readahead_window: int = 0,
        coalesce_writes: bool = False,
    ):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if readahead_window < 0:
            raise ValueError("readahead_window must be non-negative")
        super().__init__(store)
        self._capacity = capacity
        self._policy = make_policy(policy, capacity)
        self._window = int(readahead_window)
        self._coalesce = bool(coalesce_writes)
        # bid -> records for the unpinned resident frames; victim choice
        # is the policy's job, the table itself is unordered
        self._frames: Dict[int, List[Any]] = {}
        self._dirty: set[int] = set()
        self._pinned: dict[int, List[Any]] = {}
        self._pinned_dirty: set[int] = set()
        # readahead state: learned successor per hinted block, plus the
        # resident frames that were prefetched and not yet touched
        self._succ: Dict[int, int] = {}
        self._prefetched: set[int] = set()
        self.hits = 0
        self.misses = 0
        self.logical_writes = 0
        self.evictions = 0
        self.prefetch_issued = 0
        self.prefetch_hits = 0
        self.prefetch_waste = 0
        self.coalesced_writes = 0
        # every read now mutates policy state, so concurrent readers
        # (the serving tier's shared read lock admits them) serialize on
        # this lock; single-threaded callers pay one uncontended acquire
        self._lock = threading.RLock()
        self._observers: List[StoreObserver] = []
        # registry counters only when the features needing them are on,
        # so default pools add no metric keys (import is lazy to keep
        # repro.io free of an import-time obs dependency)
        self._m_issued = self._m_phits = self._m_waste = None
        self._m_coalesced = None
        if self._window > 0 or self._coalesce:
            from repro.obs.metrics import counter as _counter

            labels = {"structure": "bufferpool", "policy": self._policy.name}
            if self._window > 0:
                self._m_issued = _counter("prefetch_issued", **labels)
                self._m_phits = _counter("prefetch_hits", **labels)
                self._m_waste = _counter("prefetch_waste", **labels)
            if self._coalesce:
                self._m_coalesced = _counter("coalesced_writes", **labels)

    # ------------------------------------------------------------------
    # Storage protocol
    # ------------------------------------------------------------------
    @property
    def policy(self) -> ReplacementPolicy:
        """The replacement policy instance ordering the frames."""
        return self._policy

    def add_observer(self, callback: StoreObserver) -> None:
        """Subscribe ``callback(op, bid)`` to *pool-level* events.

        Hook point for the observability layer: ``op`` is ``"hit"``,
        ``"miss"``, ``"evict"`` or ``"prefetch"`` -- the cache behaviour
        the physical counters cannot see.  Physical reads/writes are
        observed on :attr:`physical_store` instead.
        """
        self._observers.append(callback)

    def remove_observer(self, callback: StoreObserver) -> None:
        """Unsubscribe a previously added pool observer."""
        try:
            self._observers.remove(callback)
        except ValueError:
            pass

    def _emit(self, op: str, bid: int) -> None:
        for cb in self._observers:
            cb(op, bid)

    # allocation passes straight through (no I/O); defined on the class so
    # the per-layer tracer (perfbench/tracing.py) finds it in its __dict__
    alloc = StoreLayer.alloc

    def read(self, bid: int) -> Block:
        """Read through the cache; hits cost no physical I/O."""
        with self._lock:
            if bid in self._pinned:
                self.hits += 1
                if self._observers:
                    self._emit("hit", bid)
                return Block(bid, list(self._pinned[bid]))
            if bid in self._frames:
                self.hits += 1
                self._policy.record_hit(bid)
                if bid in self._prefetched:
                    self._prefetched.discard(bid)
                    self.prefetch_hits += 1
                    if self._m_phits is not None:
                        self._m_phits.inc()
                if self._observers:
                    self._emit("hit", bid)
                return Block(bid, list(self._frames[bid]))
            self.misses += 1
            if self._observers:
                self._emit("miss", bid)
            block = self._store.read(bid)
            if self._capacity > 0:
                self._evict_to_fit()
                self._frames[bid] = list(block.records)
                self._policy.record_insert(bid)
                if self._window > 0:
                    self._readahead(bid)
            return block

    def write(self, bid: int, records: Iterable[Any]) -> None:
        """Write into the cache (write-back; flushed on eviction).

        Over-capacity record lists raise :class:`BlockCapacityError`
        up front, before any frame-table mutation or physical traffic:
        the block is invalid no matter where it would eventually land.
        """
        data = list(records)
        if len(data) > self.block_size:
            raise BlockCapacityError(
                f"block {bid}: {len(data)} records > block size "
                f"{self.block_size}"
            )
        with self._lock:
            self.logical_writes += 1
            if bid in self._pinned:
                self._pinned[bid] = data
                self._pinned_dirty.add(bid)
                return
            if self._capacity == 0:
                # degenerate pool: pure write-through
                self._store.write(bid, data)
                return
            if bid in self._frames:
                self._policy.record_hit(bid)
                if bid in self._prefetched:
                    # overwritten before any read: the fetched data was
                    # never used, so the prefetch was wasted
                    self._prefetched.discard(bid)
                    self.prefetch_waste += 1
                    if self._m_waste is not None:
                        self._m_waste.inc()
            else:
                self._evict_to_fit()
                self._policy.record_insert(bid)
            self._frames[bid] = data
            self._dirty.add(bid)

    def free(self, bid: int) -> None:
        """Drop any cached frame and free the block on the store.

        The store free runs first: if it fails, the cached frame (and
        its dirty mark) survive untouched.
        """
        with self._lock:
            if bid in self._pinned:
                raise StorageError(f"cannot free pinned block {bid}")
            self._store.free(bid)
            if bid in self._frames:
                del self._frames[bid]
                self._policy.record_remove(bid)
            self._dirty.discard(bid)
            if bid in self._prefetched:
                self._prefetched.discard(bid)
                self.prefetch_waste += 1
                if self._m_waste is not None:
                    self._m_waste.inc()
            self._succ.pop(bid, None)

    def invalidate(self, bid: int) -> None:
        """Drop any cached frame for ``bid`` without writing it back.

        For out-of-band repair channels (the scrubber) that rewrote the
        block beneath the pool: the resident frame -- clean or dirty --
        no longer describes the disk and must not be served or flushed.
        Pinned frames cannot be invalidated (they are the structure's
        resident state, not a cache of the disk).
        """
        with self._lock:
            if bid in self._pinned:
                raise StorageError(f"cannot invalidate pinned block {bid}")
            if bid in self._frames:
                del self._frames[bid]
                self._policy.record_remove(bid)
            self._dirty.discard(bid)
            self._prefetched.discard(bid)

    def discard_all(self) -> None:
        """Drop every resident frame -- dirty, prefetched and pinned --
        without any write-back.

        The abort path of a replica-level rollback: the store beneath
        the pool has been rewound to a pre-operation state, so every
        frame (including the structure's pinned catalog frames, whose
        owning structure instance is about to be re-attached) describes
        a world that no longer exists.
        """
        with self._lock:
            for bid in list(self._frames):
                self._policy.record_remove(bid)
            self._frames.clear()
            self._dirty.clear()
            self._pinned.clear()
            self._pinned_dirty.clear()
            self._prefetched.clear()

    # ------------------------------------------------------------------
    # Readahead
    # ------------------------------------------------------------------
    def prefetch_hint(self, bids: Iterable[int]) -> None:
        """Announce a sequential run of block ids (a CONT chain).

        Called through :func:`repro.io.hooks.prefetch_hint` by the
        structures that know their layout.  The pool learns each
        consecutive pair as a successor link; a later logical miss on a
        hinted block batch-fetches down the chain.  With
        ``readahead_window=0`` this is a no-op, so hints are free on
        pools that did not opt in.
        """
        if self._window <= 0:
            return
        with self._lock:
            succ = self._succ
            prev: Optional[int] = None
            for bid in bids:
                if prev is not None and bid != prev:
                    succ[prev] = bid
                prev = bid

    def _readahead(self, bid: int) -> None:
        """Fetch up to ``readahead_window`` blocks down the learned chain.

        Every chain step consumes window budget (resident blocks are
        skipped but still counted), so a cyclic or stale successor map
        cannot loop.  A broken link (freed block) ends the chain.
        """
        succ = self._succ
        nxt = succ.get(bid)
        for _ in range(self._window):
            if nxt is None:
                break
            if nxt in self._frames or nxt in self._pinned:
                nxt = succ.get(nxt)
                continue
            try:
                block = self._store.read(nxt)
            except StorageError:
                break
            self._evict_to_fit()
            self._frames[nxt] = list(block.records)
            self._policy.record_insert(nxt)
            self._prefetched.add(nxt)
            self.prefetch_issued += 1
            if self._m_issued is not None:
                self._m_issued.inc()
            if self._observers:
                self._emit("prefetch", nxt)
            nxt = succ.get(nxt)

    # ------------------------------------------------------------------
    # Pinning (the paper's resident catalog blocks)
    # ------------------------------------------------------------------
    def pin(self, bid: int) -> None:
        """Make a block memory-resident: later reads/writes are free."""
        with self._lock:
            self._pin_locked(bid)

    def _pin_locked(self, bid: int) -> None:
        if bid in self._pinned:
            return
        if bid in self._frames:
            records = self._frames.pop(bid)
            self._policy.record_remove(bid)
            if bid in self._prefetched:
                # pinning found the block already fetched: the prefetch
                # saved the physical read the pin would have issued
                self._prefetched.discard(bid)
                self.prefetch_hits += 1
                if self._m_phits is not None:
                    self._m_phits.inc()
            if bid in self._dirty:
                self._dirty.discard(bid)
                self._pinned_dirty.add(bid)
        else:
            records = list(self._store.read(bid).records)
        self._pinned[bid] = records

    def unpin(self, bid: int) -> None:
        """Release a pinned block back to disk (writing it if dirty).

        If the write-back fails the block stays pinned and dirty.
        """
        with self._lock:
            if bid not in self._pinned:
                return
            if bid in self._pinned_dirty:
                self._store.write(bid, self._pinned[bid])
                self._pinned_dirty.discard(bid)
            self._pinned.pop(bid)

    @property
    def pinned_blocks(self) -> List[int]:
        """Ids of the memory-resident blocks."""
        return list(self._pinned)

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write back every dirty frame (pinned frames stay resident).

        Writes go out in block-id order.  A frame is unmarked only
        after its write succeeds, so a failed write leaves exactly the
        unflushed frames dirty for a retry.
        """
        with self._lock:
            pending = sorted(self._dirty)
            if not pending:
                return
            # under coalescing the first write of the batch is the leader
            # the pool had to issue anyway; the rest rode along
            self._write_batch(pending, leader=pending[0])

    def _write_batch(self, pending: List[int], leader: int) -> None:
        for bid in pending:
            self._store.write(bid, self._frames[bid])
            self._dirty.discard(bid)
            if self._coalesce and bid != leader:
                self.coalesced_writes += 1
                if self._m_coalesced is not None:
                    self._m_coalesced.inc()

    def drop(self) -> None:
        """Flush then empty the cache (pinned frames stay resident)."""
        with self._lock:
            self.flush()
            if self._prefetched:
                self.prefetch_waste += len(self._prefetched)
                if self._m_waste is not None:
                    self._m_waste.inc(len(self._prefetched))
                self._prefetched.clear()
            self._frames.clear()
            self._policy.clear()

    def close(self) -> None:
        """Flush everything including pinned frames."""
        with self._lock:
            self.flush()
            for bid in list(self._pinned):
                self.unpin(bid)

    def peek(self, bid: int) -> List[Any]:
        """Inspect a block without charging an I/O (dirty frames included).

        Invariant checkers peek through the pool so they see write-back
        state the physical store has not received yet.
        """
        with self._lock:
            if bid in self._pinned:
                return list(self._pinned[bid])
            if bid in self._frames:
                return list(self._frames[bid])
            return self._store.peek(bid)

    @property
    def hit_rate(self) -> float:
        """Fraction of reads served without touching the disk."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """Machine-readable cache state for the observability exporters."""
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> Dict[str, Any]:
        snap: Dict[str, Any] = {
            "capacity": self._capacity,
            "policy": self._policy.name,
            "frames": len(self._frames),
            "pinned": len(self._pinned),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
        if self._window > 0:
            snap["readahead_window"] = self._window
            snap["prefetch_issued"] = self.prefetch_issued
            snap["prefetch_hits"] = self.prefetch_hits
            snap["prefetch_waste"] = self.prefetch_waste
        if self._coalesce:
            snap["coalesced_writes"] = self.coalesced_writes
        policy_snap = getattr(self._policy, "snapshot", None)
        if policy_snap is not None:
            snap["policy_queues"] = policy_snap()
        return snap

    # ------------------------------------------------------------------
    def _evict_to_fit(self) -> None:
        while len(self._frames) >= self._capacity:
            victim = self._policy.peek_victim()
            if victim is None:
                # nothing evictable (policy exhausted / all frames held):
                # fail loudly instead of spinning forever
                raise BlockCapacityError(
                    f"buffer pool exhausted: {len(self._frames)} frames "
                    f"resident, none evictable (capacity {self._capacity})"
                )
            self._evict(victim)

    def _evict(self, victim: int) -> None:
        if victim in self._dirty:
            # flush BEFORE dropping: if the write fails the frame must
            # stay resident and dirty, not silently vanish
            if self._coalesce:
                self._write_batch(sorted(self._dirty), leader=victim)
            else:
                self._store.write(victim, self._frames[victim])
                self._dirty.discard(victim)
        del self._frames[victim]
        self._policy.evicted(victim)
        if victim in self._prefetched:
            self._prefetched.discard(victim)
            self.prefetch_waste += 1
            if self._m_waste is not None:
                self._m_waste.inc()
        self.evictions += 1
        if self._observers:
            self._emit("evict", victim)

    def __repr__(self) -> str:
        return (
            f"BufferPool(capacity={self._capacity}, "
            f"policy={self._policy.name!r}, frames={len(self._frames)}, "
            f"pinned={len(self._pinned)}, hit_rate={self.hit_rate:.2f})"
        )
