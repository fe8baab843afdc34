"""JournaledStore: atomicity, the C-record commit point, recovery.

The crash tests inject ``SimulatedCrash`` at exact operation indices by
appending to the schedule's ``crash_at_ops`` mid-run: the ops counter
of the live schedule tells us where the next commit's journal append
will land, so each test dies at a *chosen* step of the commit protocol.
"""

import pytest

from repro.io import BlockStore
from repro.io.blockstore import BlockCapacityError, StorageError
from repro.resilience import (
    FaultSchedule,
    FaultyStore,
    JournaledStore,
    RecoveryError,
    SimulatedCrash,
)


def make_stack(B=16, **schedule_kw):
    raw = BlockStore(B)
    schedule = FaultSchedule(0, **schedule_kw)
    faulty = FaultyStore(raw, schedule)
    js = JournaledStore(faulty)
    return raw, schedule, faulty, js


class TestTransactions:
    def test_writes_buffered_until_commit(self):
        raw, _, _, js = make_stack()
        b = js.alloc()
        js.write(b, ["committed"])
        js.begin()
        js.write(b, ["pending"])
        assert raw.peek(b) == ("committed",)        # disk unchanged
        assert list(js.read(b).records) == ["pending"]  # read-your-writes
        assert js.peek(b) == ("pending",)
        js.commit()
        assert raw.peek(b) == ("pending",)

    def test_meta_travels_with_commit(self):
        _, _, faulty, js = make_stack()
        anchor = js.anchor_bids
        js.begin()
        b = js.alloc()
        js.write(b, [1])
        js.commit({"root": b, "count": 1})
        js2 = JournaledStore.attach(faulty, anchor)
        assert js2.recover() == {"root": b, "count": 1}

    def test_free_deferred_and_enforced(self):
        raw, _, _, js = make_stack()
        b = js.alloc()
        js.write(b, [1])
        js.begin()
        js.free(b)
        assert raw.peek(b) == (1,)  # still on disk mid-transaction
        with pytest.raises(StorageError):
            js.read(b)
        with pytest.raises(StorageError):
            js.free(b)  # double free
        js.commit()
        with pytest.raises(StorageError):
            raw.peek(b)  # applied at commit

    def test_abort_leaves_disk_untouched_and_reclaims_allocs(self):
        raw, _, _, js = make_stack()
        b = js.alloc()
        js.write(b, ["keep"])
        in_use = raw.blocks_in_use
        js.begin()
        js.write(b, ["discard"])
        extra = js.alloc()
        js.write(extra, ["discard too"])
        js.abort()
        assert raw.peek(b) == ("keep",)
        assert raw.blocks_in_use == in_use  # extra reclaimed

    def test_no_nesting_and_no_blind_commit(self):
        _, _, _, js = make_stack()
        js.begin()
        with pytest.raises(RuntimeError):
            js.begin()
        js.abort()
        with pytest.raises(RuntimeError):
            js.commit()

    def test_capacity_error_surfaces_in_transaction(self):
        _, _, _, js = make_stack(B=4)
        b = js.alloc()
        js.begin()
        with pytest.raises(BlockCapacityError):
            js.write(b, [1, 2, 3, 4, 5])
        js.abort()

    def test_transaction_contextmanager(self):
        raw, _, faulty, js = make_stack()
        b = js.alloc()
        with js.transaction(meta=lambda: "after"):
            js.write(b, ["done"])
        assert raw.peek(b) == ("done",)
        js2 = JournaledStore.attach(faulty, js.anchor_bids)
        assert js2.recover() == "after"
        # a plain exception aborts
        with pytest.raises(ValueError):
            with js.transaction():
                js.write(b, ["nope"])
                raise ValueError("boom")
        assert raw.peek(b) == ("done",)


class TestCrashRecovery:
    def _committed_setup(self):
        """A store with one committed transaction: block b == ['v1']."""
        raw, schedule, faulty, js = make_stack()
        js.begin()
        b = js.alloc()
        js.write(b, ["v1"])
        js.commit({"b": b, "v": 1})
        return raw, schedule, faulty, js, b

    def test_crash_mid_transaction_discards_buffer(self):
        raw, schedule, faulty, js, b = self._committed_setup()
        anchor = js.anchor_bids
        js.begin()
        js.write(b, ["v2"])
        # the process dies here; the buffered write never hits the disk
        js2 = JournaledStore.attach(faulty, anchor)
        assert js2.recover() == {"b": b, "v": 1}
        assert raw.peek(b) == ("v1",)

    def test_crash_before_commit_record_discards(self):
        raw, schedule, faulty, js, b = self._committed_setup()
        anchor = js.anchor_bids
        js.begin()
        js.write(b, ["v2"])
        # die on the journal-block write: alloc(jb) is the next op, the
        # write carrying the records (and C) is the one after
        schedule.crash_at_ops.add(schedule.ops_seen + 1)
        with pytest.raises(SimulatedCrash):
            js.commit({"b": b, "v": 2})
        js2 = JournaledStore.attach(faulty, anchor)
        assert js2.recover() == {"b": b, "v": 1}  # v2 never committed
        assert raw.peek(b) == ("v1",)

    def test_crash_after_commit_record_redoes(self):
        raw, schedule, faulty, js, b = self._committed_setup()
        anchor = js.anchor_bids
        js.begin()
        js.write(b, ["v2"])
        # ops at commit: alloc(jb), write(jb with W..C), write(anchor),
        # then the apply phase; dying on the first apply write leaves C
        # durable but the main block stale
        schedule.crash_at_ops.add(schedule.ops_seen + 3)
        with pytest.raises(SimulatedCrash):
            js.commit({"b": b, "v": 2})
        assert raw.peek(b) == ("v1",)  # apply never reached the block
        js2 = JournaledStore.attach(faulty, anchor)
        assert js2.recover() == {"b": b, "v": 2}  # C durable => redo
        assert raw.peek(b) == ("v2",)

    def test_crash_during_recovery_is_recoverable(self):
        raw, schedule, faulty, js, b = self._committed_setup()
        anchor = js.anchor_bids
        js.begin()
        js.write(b, ["v2"])
        schedule.crash_at_ops.add(schedule.ops_seen + 3)
        with pytest.raises(SimulatedCrash):
            js.commit({"b": b, "v": 2})
        # first recovery attempt dies mid-replay; sites are one-shot
        schedule.crash_at_ops.add(schedule.ops_seen + 2)
        with pytest.raises(SimulatedCrash):
            JournaledStore.attach(faulty, anchor).recover()
        js2 = JournaledStore.attach(faulty, anchor)
        assert js2.recover() == {"b": b, "v": 2}  # idempotent redo
        assert raw.peek(b) == ("v2",)

    def test_torn_anchor_slot_survived_by_dual_slot(self):
        raw, schedule, faulty, js, b = self._committed_setup()
        anchor = js.anchor_bids
        version = js._anchor_version
        # destroy the slot holding the NEWEST anchor (a torn superblock
        # write): attach must fall back to the surviving older slot
        raw.write(anchor[version % 2], [("JUNK",)])
        js2 = JournaledStore.attach(faulty, anchor)
        # the journal was checkpointed, so the older anchor still leads
        # to the committed meta block
        assert js2.recover() == {"b": b, "v": 1}

    def test_both_anchors_gone_is_fatal(self):
        raw, schedule, faulty, js, b = self._committed_setup()
        anchor = js.anchor_bids
        for slot in anchor:
            raw.write(slot, [("JUNK",)])
        with pytest.raises(RecoveryError):
            JournaledStore.attach(faulty, anchor)

    def test_logged_allocs_reclaimed_on_recovery(self):
        raw = BlockStore(16)
        faulty = FaultyStore(raw, FaultSchedule(0))
        js = JournaledStore(faulty, log_allocs=True)
        anchor = js.anchor_bids
        js.begin()
        b = js.alloc()
        js.write(b, [1])
        js.commit({"b": b})
        in_use = raw.blocks_in_use
        js.begin()
        leak1 = js.alloc()
        leak2 = js.alloc()
        js.write(leak1, ["lost"])
        # crash (abandon): allocs of the open txn are journaled as A
        # records with no C, so recovery must free them
        js2 = JournaledStore.attach(faulty, anchor, log_allocs=True)
        assert js2.recover() == {"b": b}
        assert raw.blocks_in_use == in_use
        with pytest.raises(StorageError):
            raw.peek(leak2)

    def test_recover_twice_is_clean(self):
        raw, schedule, faulty, js, b = self._committed_setup()
        js2 = JournaledStore.attach(faulty, js.anchor_bids)
        m1 = js2.recover()
        m2 = js2.recover()
        assert m1 == m2 == {"b": b, "v": 1}


class TestZeroOverhead:
    def test_passthrough_without_transactions(self):
        """After init, a transaction-free JournaledStore adds zero I/O."""
        plain = BlockStore(16)
        raw = BlockStore(16)
        js = JournaledStore(FaultyStore(raw, FaultSchedule(0)))
        base_reads, base_writes = raw.stats.reads, raw.stats.writes

        def workload(store):
            bids = [store.alloc() for _ in range(10)]
            for i, b in enumerate(bids):
                store.write(b, [i])
            for b in bids:
                store.read(b)

        workload(plain)
        workload(js)
        assert raw.stats.reads - base_reads == plain.stats.reads
        assert raw.stats.writes - base_writes == plain.stats.writes
