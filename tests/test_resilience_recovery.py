"""End-to-end crash-recovery verification of the external PST.

These are the acceptance tests of the resilience layer: an insert
workload of N >= 2000 points at B in {8, 16}, crashed at two dozen
sites (half between storage operations, half at named crash points in
the PST's own update paths), recovered after every crash, and the
recovered state checked with ``check_invariants()`` plus a 3-sided
query diff against an in-memory oracle.
"""

import random

import pytest

from repro.core.scheduling import CreditScheduler
from repro.io import BlockStore, BufferPool, ChecksummedStore, StorageError
from repro.core.external_pst import ExternalPrioritySearchTree
from repro.resilience import (
    FaultSchedule,
    FaultyStore,
    SimulatedCrash,
    pst_adapter,
    verify_recovery,
)
from repro.resilience.verifier import StructureAdapter
from repro.serve import SnapshotStore

N_POINTS = 2000


def workload(seed=2026, n=N_POINTS):
    rng = random.Random(seed)
    pts = dict.fromkeys(
        (round(rng.uniform(0, 5000), 3), round(rng.uniform(0, 5000), 3))
        for _ in range(n + 200)
    )
    return list(pts)[:n]


def _pooled_pst_adapter(capacity=8):
    """PST over a full cache stack (2q + readahead + coalescing) over
    whatever store the verifier supplies.  The pool is rebuilt at every
    (re-)attachment -- cache contents are process memory and die with
    the crash -- and ``snapshot`` flushes dirty frames so they land
    inside the journaled transaction before its commit."""

    def wrap(store):
        return BufferPool(
            store, capacity, policy="2q",
            readahead_window=2, coalesce_writes=True,
        )

    def snapshot(s):
        s._store.flush()
        return s.snapshot_meta()

    return StructureAdapter(
        build=lambda store: ExternalPrioritySearchTree(
            wrap(store), allow_spill=True
        ),
        attach=lambda store, meta: ExternalPrioritySearchTree.attach(
            wrap(store), meta
        ),
        snapshot=snapshot,
        insert=lambda s, p: s.insert(*p),
        query=lambda s, a, b, c: s.query(a, b, c),
        check=lambda s: s.check_invariants(),
    )


def _serving_chain_pst_adapter(capacity=8):
    """PST over the replicated serving tier's full per-replica chain --
    ``Checksummed -> Snapshot -> BufferPool`` -- over whatever
    (journaled) store the verifier supplies.  Every wrapper is process
    memory: a crash discards the pool's frames, the snapshot layer's
    open epochs and the CRC side table alike, and re-attachment builds
    a fresh chain whose checksums are re-learned trust-on-first-read.
    ``snapshot`` flushes the pool so dirty frames land inside the
    journaled transaction before its commit, exactly as
    ``Replica.flush`` does before an op is acked."""

    def wrap(store):
        return BufferPool(
            SnapshotStore(ChecksummedStore(store)), capacity,
            policy="2q", readahead_window=2, coalesce_writes=True,
        )

    def snapshot(s):
        s._store.flush()
        return s.snapshot_meta()

    return StructureAdapter(
        build=lambda store: ExternalPrioritySearchTree(
            wrap(store), allow_spill=True
        ),
        attach=lambda store, meta: ExternalPrioritySearchTree.attach(
            wrap(store), meta
        ),
        snapshot=snapshot,
        insert=lambda s, p: s.insert(*p),
        query=lambda s, a, b, c: s.query(a, b, c),
        check=lambda s: s.check_invariants(),
    )


class TestVerifyRecovery:
    @pytest.mark.parametrize("block_size", [8, 16])
    def test_insert_workload_recovers_everywhere(self, block_size):
        pts = workload()
        report = verify_recovery(
            pts, block_size=block_size, seed=11, n_crashes=24, n_queries=6
        )
        assert report.n_points == N_POINTS
        # the run must actually have been stressed, not trivially clean
        assert report.crashes >= 16
        assert report.recoveries == report.crashes - report.recovery_retries
        assert report.checks == report.recoveries + 1  # + the final check
        assert report.queries_diffed > report.checks  # oracle diffs ran
        kinds = {line.split(" kind=")[1].split(" ")[0] for line in report.fault_log}
        # both site families fired: between-op crashes AND named points
        assert kinds == {"crash-op", "crash-point"}

    def test_verifier_is_deterministic(self):
        """Same seed => byte-identical fault log AND identical report."""
        pts = workload(seed=7, n=600)
        a = verify_recovery(pts, block_size=16, seed=3, n_crashes=12)
        b = verify_recovery(pts, block_size=16, seed=3, n_crashes=12)
        assert a.fault_log == b.fault_log
        assert "\n".join(a.fault_log).encode() == "\n".join(b.fault_log).encode()
        assert (a.crashes, a.recoveries, a.commits, a.queries_diffed) == (
            b.crashes,
            b.recoveries,
            b.commits,
            b.queries_diffed,
        )

    def test_different_seed_schedules_different_crashes(self):
        pts = workload(seed=7, n=600)
        a = verify_recovery(pts, block_size=16, seed=3, n_crashes=12)
        b = verify_recovery(pts, block_size=16, seed=4, n_crashes=12)
        assert a.fault_log != b.fault_log

    def test_deferred_scheduler_adapter(self):
        """Recovery also holds under a pacing (credit) scheduler, whose
        Y-sets may legitimately be under-full at commit boundaries."""
        pts = workload(seed=5, n=600)
        adapter = pst_adapter(
            scheduler_factory=CreditScheduler, strict_ysets=False
        )
        report = verify_recovery(
            pts, block_size=16, seed=9, n_crashes=10, adapter=adapter
        )
        assert report.crashes >= 6
        assert report.recoveries >= 6

    def test_pooled_pst_with_coalescing_recovers_everywhere(self):
        """Crash consistency must survive the full cache stack: a 2Q
        pool with readahead and write coalescing between the PST and the
        journal.  The pool is volatile state -- every crash discards it
        -- and the snapshot flushes dirty frames into the transaction,
        so commit durability is unchanged."""
        pts = workload(seed=6, n=600)
        report = verify_recovery(
            pts, block_size=16, seed=13, n_crashes=10,
            adapter=_pooled_pst_adapter(),
        )
        assert report.n_points == 600
        assert report.crashes >= 6
        assert report.recoveries >= 6
        assert report.checks == report.recoveries + 1

    def test_serving_chain_recovers_everywhere(self):
        """Crash consistency must survive the *serving* chain too: the
        checksum layer, the copy-on-write snapshot layer and a 2Q pool
        with readahead and write coalescing stacked between the PST and
        the journal -- the exact per-replica chain the replicated
        engine runs in production."""
        pts = workload(seed=8, n=600)
        report = verify_recovery(
            pts, block_size=16, seed=17, n_crashes=10,
            adapter=_serving_chain_pst_adapter(),
        )
        assert report.n_points == 600
        assert report.crashes >= 6
        assert report.recoveries >= 6
        assert report.checks == report.recoveries + 1

    def test_report_summary_mentions_the_essentials(self):
        pts = workload(seed=7, n=300)
        report = verify_recovery(pts, block_size=16, seed=3, n_crashes=6)
        s = report.summary()
        assert "B=16" in s and "seed=3" in s and "crashes" in s


def _crash_inside_epoch(pts, site, *, rollback=False):
    """Insert ``pts`` one by one into a B=8 PST over
    ``FaultyStore(SnapshotStore(ChecksummedStore(BlockStore)))``, each
    insert inside a copy-on-write epoch, until the insert that reaches
    named crash point ``site`` dies.  On ``SimulatedCrash`` the epoch is
    closed, as ``ReplicaSet._apply_one`` does, or rolled back first
    when ``rollback`` is set.  Returns the surviving disk, the pre-op
    meta and the points inserted before the crash."""
    base = BlockStore(8)
    snap = SnapshotStore(ChecksummedStore(base))
    faulty = FaultyStore(snap, FaultSchedule(0, crash_at_points=(site,)))
    pst = ExternalPrioritySearchTree(faulty, allow_spill=True)
    for i, p in enumerate(pts):
        meta = pst.snapshot_meta()
        epoch = snap.open_epoch()
        try:
            pst.insert(*p)
        except SimulatedCrash:
            if rollback:
                snap.rollback_epoch(epoch)
            snap.close_epoch(epoch)
            return base, meta, pts[:i]
        snap.close_epoch(epoch)
    raise AssertionError(f"crash point {site} was never reached")


def _remount_is_sound(store, meta, live):
    """Attach from ``meta`` over ``store``; True iff the invariants hold
    and 3-sided queries match the oracle over ``live``."""
    try:
        pst = ExternalPrioritySearchTree.attach(store, meta)
        pst.check_invariants()
    except (AssertionError, StorageError):
        return False
    rng = random.Random(1)
    for _ in range(20):
        a, b = sorted((rng.uniform(0, 5000), rng.uniform(0, 5000)))
        c = rng.uniform(0, 5000)
        want = sorted(p for p in live if a <= p[0] <= b and p[1] >= c)
        if sorted(pst.query(a, b, c)) != want:
            return False
    return True


class TestEpochVersusJournal:
    """A snapshot epoch is an in-process undo log; only the journal is a
    durable redo log.  Both are needed."""

    def test_epoch_undo_does_not_survive_process_loss(self):
        pts = workload(n=300)
        counting = FaultSchedule(0)
        pst = ExternalPrioritySearchTree(
            FaultyStore(BlockStore(8), counting), allow_spill=True
        )
        for p in pts:
            pst.insert(*p)
        sites = range(0, counting.points_seen, 203)
        assert len(sites) >= 10
        for site in sites:
            # process loss: the epoch's pre-images die with the process,
            # so the pre-op meta is remounted over a half-applied disk
            assert not _remount_is_sound(*_crash_inside_epoch(pts, site))
        # in-process abort: rolling the epoch back restores the pre-op disk
        assert _remount_is_sound(
            *_crash_inside_epoch(pts, sites[1], rollback=True)
        )
        # the journal recovers the same structure at the same block size
        report = verify_recovery(pts, block_size=8, seed=11, n_crashes=12)
        assert report.crashes >= 10
        assert report.recoveries == report.crashes - report.recovery_retries
        assert report.checks == report.recoveries + 1


class TestSpillMode:
    """allow_spill: the PST at B < 4a+2 via node continuation blocks."""

    def test_b8_requires_spill(self):
        with pytest.raises(ValueError):
            ExternalPrioritySearchTree(BlockStore(8))

    def test_b8_spill_full_lifecycle(self):
        store = BlockStore(8)
        pst = ExternalPrioritySearchTree(store, allow_spill=True)
        rng = random.Random(1)
        model = set()
        for _ in range(500):
            p = (round(rng.uniform(0, 100), 2), round(rng.uniform(0, 100), 2))
            if p in model:
                continue
            pst.insert(*p)
            model.add(p)
        pst.check_invariants()
        for p in list(model)[::5]:
            assert pst.delete(*p)
            model.discard(p)
        pst.check_invariants()
        got = sorted(pst.query(20.0, 80.0, 30.0))
        want = sorted(p for p in model if 20 <= p[0] <= 80 and p[1] >= 30)
        assert got == want

    def test_spill_attach_roundtrip(self):
        store = BlockStore(8)
        pst = ExternalPrioritySearchTree(store, allow_spill=True)
        for i in range(300):
            pst.insert(float(i * 17 % 301), float(i * 13 % 97))
        meta = pst.snapshot_meta()
        again = ExternalPrioritySearchTree.attach(store, meta)
        again.check_invariants()
        assert again.count == pst.count
        assert sorted(again.query(0.0, 301.0, 50.0)) == sorted(
            pst.query(0.0, 301.0, 50.0)
        )

    def test_spill_space_accounted(self):
        """blocks_in_use must count continuation blocks (no leaks)."""
        store = BlockStore(8)
        pst = ExternalPrioritySearchTree(store, allow_spill=True)
        for i in range(400):
            pst.insert(float(i * 7 % 401), float(i * 31 % 89))
        pst.check_invariants()
        # every allocated block is owned by the structure
        assert pst.blocks_in_use() == store.blocks_in_use
