"""Unit tests for the simulated disk (repro.io.blockstore)."""

import pytest

from repro.io import Block, BlockCapacityError, BlockStore, StorageError
from repro.io.blockstore import blocks_needed


class TestAllocFree:
    def test_alloc_returns_distinct_ids(self):
        store = BlockStore(8)
        bids = [store.alloc() for _ in range(10)]
        assert len(set(bids)) == 10

    def test_alloc_counts_space_not_io(self):
        store = BlockStore(8)
        store.alloc()
        assert store.stats.allocs == 1
        assert store.stats.ios == 0

    def test_free_releases_space(self):
        store = BlockStore(8)
        bid = store.alloc()
        assert store.blocks_in_use == 1
        store.free(bid)
        assert store.blocks_in_use == 0

    def test_double_free_raises(self):
        store = BlockStore(8)
        bid = store.alloc()
        store.free(bid)
        with pytest.raises(StorageError):
            store.free(bid)

    def test_freed_id_not_reused_implicitly(self):
        store = BlockStore(8)
        a = store.alloc()
        store.free(a)
        b = store.alloc()
        assert b != a


class TestReadWrite:
    def test_write_then_read_round_trips(self):
        store = BlockStore(4)
        bid = store.alloc()
        store.write(bid, [(1, 2), (3, 4)])
        assert store.read(bid).records == ((1, 2), (3, 4))

    def test_each_read_and_write_costs_one_io(self):
        store = BlockStore(4)
        bid = store.alloc()
        store.write(bid, [1])
        store.read(bid)
        store.read(bid)
        assert store.stats.writes == 1
        assert store.stats.reads == 2
        assert store.stats.ios == 3

    def test_overfull_write_rejected(self):
        store = BlockStore(4)
        bid = store.alloc()
        with pytest.raises(BlockCapacityError):
            store.write(bid, list(range(5)))

    def test_exactly_full_write_allowed(self):
        store = BlockStore(4)
        bid = store.alloc()
        store.write(bid, list(range(4)))
        assert len(store.read(bid)) == 4

    def test_read_unallocated_raises(self):
        store = BlockStore(4)
        with pytest.raises(StorageError):
            store.read(99)

    def test_write_unallocated_raises(self):
        store = BlockStore(4)
        with pytest.raises(StorageError):
            store.write(99, [1])

    def test_write_source_mutation_harmless(self):
        store = BlockStore(4)
        bid = store.alloc()
        data = [1, 2]
        store.write(bid, data)
        data.append(3)
        assert store.read(bid).records == (1, 2)

    def test_peek_costs_nothing(self):
        store = BlockStore(4)
        bid = store.alloc()
        store.write(bid, [7])
        before = store.stats.copy()
        assert store.peek(bid) == (7,)
        assert store.stats.ios == before.ios


class TestAccounting:
    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            BlockStore(1)

    def test_occupancy(self):
        store = BlockStore(4)
        a, b = store.alloc(), store.alloc()
        store.write(a, [1, 2, 3, 4])
        store.write(b, [1, 2])
        assert store.occupancy() == pytest.approx(0.75)

    def test_occupancy_empty_store(self):
        assert BlockStore(4).occupancy() == 0.0

    def test_blocks_needed(self):
        assert blocks_needed(0, 8) == 0
        assert blocks_needed(1, 8) == 1
        assert blocks_needed(8, 8) == 1
        assert blocks_needed(9, 8) == 2

    def test_blocks_needed_negative_raises(self):
        with pytest.raises(ValueError):
            blocks_needed(-1, 8)

    def test_block_repr_and_iter(self):
        block = Block(3, [1, 2])
        assert list(block) == [1, 2]
        assert "3" in repr(block)


class TestObservers:
    def test_observer_sees_all_operation_kinds(self):
        store = BlockStore(4)
        events = []
        store.add_observer(lambda op, bid: events.append(op))
        bid = store.alloc()
        store.write(bid, [1])
        store.read(bid)
        store.free(bid)
        assert events == ["alloc", "write", "read", "free"]

    def test_observer_detached_mid_run_stops_firing(self):
        store = BlockStore(4)
        events = []

        def cb(op, bid):
            events.append((op, bid))

        store.add_observer(cb)
        bid = store.alloc()
        store.write(bid, [1])
        assert len(events) == 2
        store.remove_observer(cb)
        store.read(bid)
        store.free(bid)
        assert len(events) == 2          # nothing after detach
        store.remove_observer(cb)        # double-remove is a no-op
