"""Unit tests for the LRU buffer pool (repro.io.bufferpool)."""

import pytest

from repro.io import BlockStore, BufferPool, StorageError


def _mk(capacity=2, B=4):
    store = BlockStore(B)
    pool = BufferPool(store, capacity)
    return store, pool


class TestCaching:
    def test_repeat_read_hits_cache(self):
        store, pool = _mk()
        bid = store.alloc()
        store.write(bid, [1])
        pool.read(bid)
        base = store.stats.reads
        pool.read(bid)
        assert store.stats.reads == base
        assert pool.hits == 1

    def test_lru_eviction_order(self):
        store, pool = _mk(capacity=2)
        bids = [store.alloc() for _ in range(3)]
        for b in bids:
            store.write(b, [b])
        pool.read(bids[0])
        pool.read(bids[1])
        pool.read(bids[2])        # evicts bids[0]
        base = store.stats.reads
        pool.read(bids[1])        # still cached
        assert store.stats.reads == base
        pool.read(bids[0])        # miss
        assert store.stats.reads == base + 1

    def test_write_back_on_eviction(self):
        store, pool = _mk(capacity=1)
        a, b = store.alloc(), store.alloc()
        store.write(a, [0])
        store.write(b, [0])
        base_writes = store.stats.writes
        pool.write(a, [42])               # cached dirty, no physical write
        assert store.stats.writes == base_writes
        pool.read(b)                      # evicts a -> physical write
        assert store.stats.writes == base_writes + 1
        assert store.peek(a) == (42,)

    def test_flush_writes_dirty_frames(self):
        store, pool = _mk()
        bid = store.alloc()
        store.write(bid, [0])
        pool.write(bid, [7])
        pool.flush()
        assert store.peek(bid) == (7,)

    def test_capacity_zero_is_write_through(self):
        store, pool = _mk(capacity=0)
        bid = store.alloc()
        pool.write(bid, [5])
        assert store.peek(bid) == (5,)
        base = store.stats.reads
        pool.read(bid)
        pool.read(bid)
        assert store.stats.reads == base + 2  # nothing cached


class TestPinning:
    def test_pinned_reads_are_free(self):
        store, pool = _mk(capacity=1)
        bid = store.alloc()
        store.write(bid, [1])
        pool.pin(bid)
        base = store.stats.reads
        for _ in range(5):
            pool.read(bid)
        assert store.stats.reads == base

    def test_pinned_survives_eviction_pressure(self):
        store, pool = _mk(capacity=1)
        pinned = store.alloc()
        store.write(pinned, [1])
        pool.pin(pinned)
        for _ in range(5):
            other = store.alloc()
            store.write(other, [0])
            pool.read(other)
        base = store.stats.reads
        pool.read(pinned)
        assert store.stats.reads == base

    def test_unpin_writes_back_dirty(self):
        store, pool = _mk()
        bid = store.alloc()
        store.write(bid, [0])
        pool.pin(bid)
        pool.write(bid, [9])
        pool.unpin(bid)
        assert store.peek(bid) == (9,)

    def test_cannot_free_pinned(self):
        store, pool = _mk()
        bid = store.alloc()
        store.write(bid, [0])
        pool.pin(bid)
        with pytest.raises(StorageError):
            pool.free(bid)

    def test_close_unpins_everything(self):
        store, pool = _mk()
        bid = store.alloc()
        store.write(bid, [0])
        pool.pin(bid)
        pool.write(bid, [3])
        pool.close()
        assert pool.pinned_blocks == []
        assert store.peek(bid) == (3,)


class TestProtocolParity:
    def test_alloc_passthrough(self):
        store, pool = _mk()
        bid = pool.alloc()
        assert store.blocks_in_use == 1
        pool.write(bid, [1])
        assert pool.read(bid).records == (1,)

    def test_free_drops_cached_frame(self):
        store, pool = _mk()
        bid = pool.alloc()
        pool.write(bid, [1])
        pool.free(bid)
        with pytest.raises(StorageError):
            pool.read(bid)

    def test_hit_rate(self):
        store, pool = _mk()
        bid = store.alloc()
        store.write(bid, [1])
        pool.read(bid)
        pool.read(bid)
        assert pool.hit_rate == pytest.approx(0.5)

    def test_block_size_passthrough(self):
        store, pool = _mk(B=8)
        assert pool.block_size == 8


def _mk_faulty(capacity=1, B=4):
    """A pool over a fault-injectable store; faults start disabled and
    are toggled by mutating the schedule's rates mid-test."""
    from repro.resilience import FaultSchedule, FaultyStore

    raw = BlockStore(B)
    schedule = FaultSchedule(0)
    pool = BufferPool(FaultyStore(raw, schedule), capacity)
    return raw, schedule, pool


class TestWriteFailureSemantics:
    """A failed write-back must never lose the dirty frame."""

    def test_eviction_flush_failure_keeps_dirty_frame(self):
        from repro.resilience import TransientIOError

        raw, schedule, pool = _mk_faulty(capacity=1)
        a, b = raw.alloc(), raw.alloc()
        raw.write(a, ["old"])
        raw.write(b, ["other"])
        pool.write(a, ["new"])          # dirty frame, cached only
        schedule.write_error_rate = 1.0
        with pytest.raises(TransientIOError):
            pool.read(b)                # eviction flush of a fails
        assert raw.peek(a) == ("old",)   # disk untouched
        # the frame survived: a cache read still serves the new data
        base = raw.stats.reads
        assert pool.read(a).records == ("new",)
        assert raw.stats.reads == base
        schedule.write_error_rate = 0.0
        pool.flush()                    # still marked dirty => flushed
        assert raw.peek(a) == ("new",)

    def test_flush_failure_keeps_exactly_unflushed_frames_dirty(self):
        from repro.resilience import TransientIOError

        raw, schedule, pool = _mk_faulty(capacity=4)
        bids = [raw.alloc() for _ in range(3)]
        for bid in bids:
            raw.write(bid, ["old"])
        for bid in bids:
            pool.write(bid, ["new"])
        schedule.write_error_rate = 1.0
        with pytest.raises(TransientIOError):
            pool.flush()                 # dies on the first dirty frame
        schedule.write_error_rate = 0.0
        pool.flush()                     # the rest are still dirty
        for bid in bids:
            assert raw.peek(bid) == ("new",)

    def test_unpin_failure_keeps_block_pinned_dirty(self):
        from repro.resilience import TransientIOError

        raw, schedule, pool = _mk_faulty(capacity=2)
        bid = raw.alloc()
        raw.write(bid, ["old"])
        pool.pin(bid)
        pool.write(bid, ["new"])
        schedule.write_error_rate = 1.0
        with pytest.raises(TransientIOError):
            pool.unpin(bid)
        assert bid in pool.pinned_blocks   # still resident
        assert raw.peek(bid) == ("old",)
        schedule.write_error_rate = 0.0
        pool.unpin(bid)
        assert raw.peek(bid) == ("new",)

    def test_free_failure_keeps_cached_frame(self):
        from repro.resilience import SimulatedCrash

        raw, schedule, pool = _mk_faulty(capacity=2)
        bid = raw.alloc()
        raw.write(bid, ["old"])
        pool.write(bid, ["new"])
        schedule.crash_at_ops.add(schedule.ops_seen)  # die on the free
        with pytest.raises(SimulatedCrash):
            pool.free(bid)
        # frame and dirty mark intact; the block is still allocated
        assert pool.read(bid).records == ("new",)
        pool.flush()
        assert raw.peek(bid) == ("new",)
        pool.free(bid)  # crash site consumed: succeeds


class TestObserverParity:
    def test_pool_observer_detached_mid_run_stops_firing(self):
        store, pool = _mk(capacity=1)
        events = []
        pool.add_observer(lambda op, bid: events.append((op, bid)))
        bid = store.alloc()
        store.write(bid, [1])
        pool.read(bid)                       # miss
        assert events == [("miss", bid)]
        cb = pool._observers[0]
        pool.remove_observer(cb)
        pool.read(bid)                       # hit, but nobody listens
        assert events == [("miss", bid)]
        pool.remove_observer(cb)             # double-remove is a no-op

    def test_pool_and_store_observers_are_independent_layers(self):
        store, pool = _mk(capacity=1)
        pool_events, store_events = [], []

        def pool_cb(op, bid):
            pool_events.append(op)

        def store_cb(op, bid):
            store_events.append(op)

        pool.add_observer(pool_cb)
        store.add_observer(store_cb)
        bid = pool.alloc()
        pool.write(bid, [1])
        pool.read(bid)
        store.remove_observer(store_cb)
        pool.read(bid)
        assert "hit" in pool_events          # pool layer saw cache events
        assert "alloc" in store_events       # store layer saw physical ops
        assert "hit" not in store_events     # layers never cross
        n = len(store_events)
        pool.read(bid)
        assert len(store_events) == n        # detached: no more events


# ---------------------------------------------------------------------------
# Policy-pluggable pool: eviction guard, over-capacity writes, 2Q/CLOCK
# behaviour, readahead, coalescing, defensive copies on hits.
# ---------------------------------------------------------------------------

from repro.io import (  # noqa: E402
    BlockCapacityError,
    ClockPolicy,
    LRUPolicy,
    ReplacementPolicy,
    TwoQPolicy,
    make_policy,
)


class _ExhaustedPolicy(ReplacementPolicy):
    """A policy that tracks frames but refuses to name a victim."""

    name = "exhausted"

    def __init__(self, capacity):
        super().__init__(capacity)
        self._members = set()

    def record_insert(self, bid):
        self._members.add(bid)

    def record_hit(self, bid):
        pass

    def peek_victim(self):
        return None

    def record_remove(self, bid):
        self._members.discard(bid)

    def clear(self):
        self._members.clear()


class TestEvictionGuard:
    """_evict_to_fit must fail loudly, never spin, when nothing is
    evictable (satellite 1: the infinite-loop hazard)."""

    def test_no_evictable_frame_raises(self):
        store = BlockStore(4)
        pool = BufferPool(store, 1, policy=_ExhaustedPolicy(1))
        a, b = store.alloc(), store.alloc()
        store.write(a, [1])
        store.write(b, [2])
        pool.read(a)                    # fills the single frame
        with pytest.raises(BlockCapacityError):
            pool.read(b)                # needs a victim; policy has none

    def test_error_names_the_pressure(self):
        store = BlockStore(4)
        pool = BufferPool(store, 1, policy=_ExhaustedPolicy(1))
        bid = store.alloc()
        store.write(bid, [1])
        pool.read(bid)
        other = store.alloc()
        with pytest.raises(BlockCapacityError, match="none evictable"):
            pool.write(other, [2])

    def test_pool_and_store_state_survive_the_raise(self):
        store = BlockStore(4)
        pool = BufferPool(store, 1, policy=_ExhaustedPolicy(1))
        a, b = store.alloc(), store.alloc()
        store.write(a, [1])
        store.write(b, [2])
        pool.read(a)
        with pytest.raises(BlockCapacityError):
            pool.read(b)
        # the resident frame still serves hits; the store is untouched
        base = store.stats.reads
        assert pool.read(a).records == (1,)
        assert store.stats.reads == base
        assert store.peek(b) == (2,)

    def test_pinning_never_consumes_frame_capacity(self):
        """Pinned blocks live outside the frame table, so heavy pinning
        cannot create the none-evictable deadlock under normal policies."""
        store = BlockStore(4)
        pool = BufferPool(store, 1)
        pins = [store.alloc() for _ in range(4)]
        for bid in pins:
            store.write(bid, [bid])
            pool.pin(bid)
        # frame capacity is still fully available
        extra = store.alloc()
        store.write(extra, [99])
        pool.read(extra)
        assert pool.read(extra).records == (99,)


class TestOverCapacityWrite:
    """Satellite 2: an over-capacity write must raise BEFORE any frame
    table mutation or physical traffic."""

    def test_raises_block_capacity_error(self):
        store, pool = _mk(capacity=2, B=4)
        bid = store.alloc()
        with pytest.raises(BlockCapacityError):
            pool.write(bid, [0, 1, 2, 3, 4])

    def test_frame_table_unchanged_after_raise(self):
        store, pool = _mk(capacity=2, B=4)
        bid = store.alloc()
        store.write(bid, [1])
        pool.read(bid)                      # cached clean
        with pytest.raises(BlockCapacityError):
            pool.write(bid, list(range(5)))
        # the cached frame kept its old contents and is not dirty
        base = store.stats.writes
        pool.flush()
        assert store.stats.writes == base   # nothing was dirtied
        assert pool.read(bid).records == (1,)

    def test_uncached_block_stays_uncached(self):
        store, pool = _mk(capacity=2, B=4)
        bid = store.alloc()
        store.write(bid, [7])
        with pytest.raises(BlockCapacityError):
            pool.write(bid, list(range(9)))
        base = store.stats.reads
        assert pool.read(bid).records == (7,)
        assert store.stats.reads == base + 1   # was never admitted

    def test_pinned_block_keeps_old_records(self):
        store, pool = _mk(capacity=2, B=4)
        bid = store.alloc()
        store.write(bid, [1])
        pool.pin(bid)
        with pytest.raises(BlockCapacityError):
            pool.write(bid, list(range(5)))
        assert pool.read(bid).records == (1,)
        pool.unpin(bid)
        assert store.peek(bid) == (1,)       # never marked pinned-dirty

    def test_write_through_pool_never_touches_store(self):
        store, pool = _mk(capacity=0, B=4)
        bid = store.alloc()
        base = store.stats.writes
        with pytest.raises(BlockCapacityError):
            pool.write(bid, list(range(5)))
        assert store.stats.writes == base


class TestTwoQBehaviour:
    def test_scan_does_not_displace_protected_blocks(self):
        """The headline property: promoted hot blocks survive a flood of
        first-touch blocks larger than the pool."""
        store = BlockStore(4)
        pool = BufferPool(store, 8, policy="2q")
        hot = [store.alloc() for _ in range(2)]
        for bid in hot:
            store.write(bid, [bid])
        # touch, evict through A1in into the ghost, touch again -> Am
        for bid in hot:
            pool.read(bid)
        # enough first-touch traffic to push the hot pair out of A1in
        # (but not out of the bounded ghost queue)
        flood1 = [store.alloc() for _ in range(8)]
        for bid in flood1:
            store.write(bid, [bid])
            pool.read(bid)
        for bid in hot:
            pool.read(bid)              # ghost re-admission -> protected
        snap = pool.policy.snapshot()
        assert snap["am"] == len(hot)
        # now a fresh scan flood: hot blocks must remain resident
        flood2 = [store.alloc() for _ in range(12)]
        for bid in flood2:
            store.write(bid, [bid])
            pool.read(bid)
        base = store.stats.reads
        for bid in hot:
            pool.read(bid)
        assert store.stats.reads == base    # all hits: scan resistance

    def test_a1in_hits_do_not_promote(self):
        pol = TwoQPolicy(8)
        pol.record_insert(1)
        pol.record_hit(1)               # correlated touch while probationary
        assert pol.snapshot() == {"a1in": 1, "a1out": 0, "am": 0}

    def test_ghost_readmission_promotes(self):
        pol = TwoQPolicy(8)
        pol.record_insert(1)
        assert pol.peek_victim() == 1
        pol.evicted(1)
        assert pol.snapshot()["a1out"] == 1
        pol.record_insert(1)            # back from the ghost queue
        assert pol.snapshot() == {"a1in": 0, "a1out": 0, "am": 1}

    def test_ghost_queue_is_bounded(self):
        pol = TwoQPolicy(4, kout=2)
        for bid in range(5):
            pol.record_insert(bid)
            pol.evicted(bid)
        assert pol.snapshot()["a1out"] == 2

    def test_record_remove_forgets_the_ghost(self):
        pol = TwoQPolicy(8)
        pol.record_insert(1)
        pol.evicted(1)                  # ghosted
        pol.record_remove(1)            # freed: id may be re-allocated
        pol.record_insert(1)
        assert pol.snapshot()["am"] == 0    # no spurious promotion

    def test_victim_prefers_overfull_a1in(self):
        pol = TwoQPolicy(8)             # kin = 2
        pol.record_insert(1)
        pol.evicted(1)
        pol.record_insert(1)            # 1 -> Am
        for bid in (2, 3, 4):
            pol.record_insert(bid)      # A1in over its share
        assert pol.peek_victim() == 2   # FIFO head of A1in, not Am


class TestClockBehaviour:
    def test_referenced_frame_gets_second_chance(self):
        pol = ClockPolicy(4)
        pol.record_insert(1)
        pol.record_insert(2)
        pol.record_hit(1)               # ref bit set
        assert pol.peek_victim() == 2   # hand skips 1, clears its bit

    def test_full_rotation_falls_back(self):
        pol = ClockPolicy(4)
        for bid in (1, 2):
            pol.record_insert(bid)
            pol.record_hit(bid)
        victim = pol.peek_victim()      # every bit set: sweep clears all
        assert victim in (1, 2)

    def test_pool_end_to_end_with_clock(self):
        store = BlockStore(4)
        pool = BufferPool(store, 2, policy="clock")
        bids = [store.alloc() for _ in range(3)]
        for bid in bids:
            store.write(bid, [bid])
        pool.read(bids[0])
        pool.read(bids[1])
        pool.read(bids[0])              # second chance for bids[0]
        pool.read(bids[2])              # must evict bids[1]
        base = store.stats.reads
        pool.read(bids[0])
        assert store.stats.reads == base


class TestMakePolicy:
    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            make_policy("mru", 4)

    def test_accepts_instance_rejects_class(self):
        inst = TwoQPolicy(4)
        assert make_policy(inst, 99) is inst
        with pytest.raises(ValueError, match="unknown replacement policy"):
            make_policy(LRUPolicy, 4)

    def test_pool_rejects_negative_window(self):
        store = BlockStore(4)
        with pytest.raises(ValueError):
            BufferPool(store, 4, readahead_window=-1)


class TestReadahead:
    def _chain(self, store, n=5):
        bids = [store.alloc() for _ in range(n)]
        for bid in bids:
            store.write(bid, [bid])
        return bids

    def test_hint_plus_miss_prefetches_chain(self):
        store = BlockStore(4)
        pool = BufferPool(store, 8, readahead_window=3)
        bids = self._chain(store)
        pool.prefetch_hint(bids)
        base = store.stats.reads
        pool.read(bids[0])              # one logical miss ...
        assert store.stats.reads == base + 4   # ... four physical reads
        assert pool.prefetch_issued == 3
        # the prefetched frames now serve hits without I/O
        for bid in bids[1:4]:
            pool.read(bid)
        assert store.stats.reads == base + 4
        assert pool.prefetch_hits == 3
        assert pool.misses == 1

    def test_window_zero_ignores_hints(self):
        store = BlockStore(4)
        pool = BufferPool(store, 8)     # readahead off (default)
        bids = self._chain(store)
        pool.prefetch_hint(bids)
        base = store.stats.reads
        pool.read(bids[0])
        assert store.stats.reads == base + 1
        assert pool.prefetch_issued == 0

    def test_counter_identity_issued_eq_hits_plus_waste(self):
        store = BlockStore(4)
        pool = BufferPool(store, 8, readahead_window=4)
        bids = self._chain(store)
        pool.prefetch_hint(bids)
        pool.read(bids[0])              # prefetches 1..4
        pool.read(bids[1])              # hit
        pool.drop()                     # 2..4 never touched -> waste
        assert pool.prefetch_issued == 4
        assert pool.prefetch_hits == 1
        assert pool.prefetch_waste == 3

    def test_overwrite_before_read_counts_as_waste(self):
        store = BlockStore(4)
        pool = BufferPool(store, 8, readahead_window=2)
        bids = self._chain(store, n=3)
        pool.prefetch_hint(bids)
        pool.read(bids[0])
        pool.write(bids[1], ["new"])    # clobbered before any read
        assert pool.prefetch_waste == 1
        assert pool.read(bids[1]).records == ("new",)
        assert pool.prefetch_hits == 0  # the data fetched was never used

    def test_broken_chain_stops_cleanly(self):
        store = BlockStore(4)
        pool = BufferPool(store, 8, readahead_window=4)
        bids = self._chain(store, n=3)
        pool.prefetch_hint(bids)
        store.free(bids[2])             # chain tail vanishes
        pool.read(bids[0])
        assert pool.prefetch_issued == 1    # fetched bids[1], then stopped

    def test_cyclic_hints_cannot_loop(self):
        store = BlockStore(4)
        pool = BufferPool(store, 8, readahead_window=4)
        bids = self._chain(store, n=2)
        pool.prefetch_hint([bids[0], bids[1], bids[0]])   # a -> b -> a
        pool.read(bids[0])              # window budget bounds the walk
        assert pool.prefetch_issued <= 4

    def test_readahead_respects_capacity(self):
        store = BlockStore(4)
        pool = BufferPool(store, 2, readahead_window=4)
        bids = self._chain(store)
        pool.prefetch_hint(bids)
        pool.read(bids[0])
        # never more frames than capacity, whatever was prefetched
        assert pool.snapshot()["frames"] <= 2


class TestCoalescing:
    def test_eviction_drains_whole_dirty_set(self):
        store = BlockStore(4)
        pool = BufferPool(store, 3, coalesce_writes=True)
        bids = [store.alloc() for _ in range(4)]
        for bid in bids[:3]:
            pool.write(bid, [bid])      # three dirty frames
        base = store.stats.writes
        pool.read(bids[3])              # one eviction triggers the batch
        assert store.stats.writes == base + 3
        assert pool.coalesced_writes == 2   # leader + two riders
        for bid in bids[:3]:
            assert store.peek(bid) == (bid,)

    def test_batch_goes_out_in_block_id_order(self):
        store = BlockStore(4)
        pool = BufferPool(store, 3, coalesce_writes=True)
        bids = [store.alloc() for _ in range(4)]
        order = []
        store.add_observer(
            lambda op, bid: order.append(bid) if op == "write" else None
        )
        for bid in reversed(bids[:3]):  # dirty in descending order
            pool.write(bid, [bid])
        pool.read(bids[3])
        assert order == sorted(bids[:3])

    def test_flush_counts_riders(self):
        store = BlockStore(4)
        pool = BufferPool(store, 4, coalesce_writes=True)
        bids = [store.alloc() for _ in range(3)]
        for bid in bids:
            pool.write(bid, [bid])
        pool.flush()
        assert pool.coalesced_writes == 2

    def test_mid_batch_failure_keeps_unflushed_dirty(self):
        from repro.resilience import FaultSchedule, FaultyStore, TransientIOError

        raw = BlockStore(4)
        schedule = FaultSchedule(0)
        pool = BufferPool(
            FaultyStore(raw, schedule), 3, coalesce_writes=True
        )
        bids = sorted(raw.alloc() for _ in range(3))
        for bid in bids:
            raw.write(bid, ["old"])
        for bid in bids:
            pool.write(bid, ["new"])
        # fail the SECOND write of the batch
        fired = []

        def arm(op, bid):
            if op == "write":
                fired.append(bid)
                if len(fired) == 1:
                    schedule.write_error_rate = 1.0

        raw.add_observer(arm)
        with pytest.raises(TransientIOError):
            pool.flush()
        schedule.write_error_rate = 0.0
        assert raw.peek(bids[0]) == ("new",)     # the leader landed
        assert raw.peek(bids[1]) == ("old",)     # the rest stayed dirty
        pool.flush()
        for bid in bids:
            assert raw.peek(bid) == ("new",)

    def test_off_by_default(self):
        store = BlockStore(4)
        pool = BufferPool(store, 3)
        bids = [store.alloc() for _ in range(4)]
        for bid in bids[:3]:
            pool.write(bid, [bid])
        base = store.stats.writes
        pool.read(bids[3])              # plain pool: only the victim
        assert store.stats.writes == base + 1
        assert pool.coalesced_writes == 0

