"""Serving tier: router, shards, batch executor, snapshots, admission.

Correctness baseline everywhere is a brute-force live-set oracle (the
"serial single-structure" reference): the sharded concurrent engine
must be observationally identical to one structure executing the trace
one op at a time.
"""

import random
import threading

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from tests.conftest import brute_3sided, brute_4sided, make_points
from repro.io.blockstore import BlockStore, StorageError
from repro.io.checksum import ChecksummedStore
from repro.serve import (
    AdmissionController,
    Deadline,
    EngineOverloaded,
    ReadWriteLock,
    ReplicaSpec,
    ServingEngine,
    Shard,
    SlabRouter,
    SnapshotStore,
)
from repro.workloads.traces import generate_trace


class _RacyDisk(BlockStore):
    """A disk that runs ``before_access`` once, just before the next
    read or peek reaches it: a writer slipping in between a snapshot
    reader's undo-map check and its live access."""

    before_access = None

    def _fire(self):
        hook, self.before_access = self.before_access, None
        if hook is not None:
            hook()

    def read(self, bid):
        self._fire()
        return super().read(bid)

    def peek(self, bid):
        self._fire()
        return super().peek(bid)


class _LateReadDisk(BlockStore):
    """A disk that runs ``after_read`` once, after the next read has
    fetched its payload and before that payload is returned: writers
    committing while an unlocked snapshot reader's read is in flight."""

    after_read = None

    def read(self, bid):
        block = super().read(bid)
        hook, self.after_read = self.after_read, None
        if hook is not None:
            hook()
        return block


def oracle_results(trace, initial):
    """Serial single-structure oracle: replay against a live set."""
    live = set(initial)
    out = []
    for kind, arg in trace:
        if kind == "ins":
            live.add(arg)
            out.append(None)
        elif kind == "del":
            out.append(arg in live)
            live.discard(arg)
        elif kind == "q3":
            out.append(brute_3sided(live, *arg))
        else:
            out.append(brute_4sided(live, *arg))
    return out, live


# ----------------------------------------------------------------------
# locks
# ----------------------------------------------------------------------
class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        inside = []
        barrier = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read_locked():
                barrier.wait()  # all three readers in simultaneously
                inside.append(1)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert len(inside) == 3

    def test_writer_excludes(self):
        lock = ReadWriteLock()
        log = []

        def writer():
            with lock.write_locked():
                log.append("w-in")
                log.append("w-out")

        lock.acquire_read()
        t = threading.Thread(target=writer)
        t.start()
        # give the writer a chance to (wrongly) enter
        t.join(timeout=0.05)
        assert "w-in" not in log
        lock.release_read()
        t.join(timeout=5)
        assert log == ["w-in", "w-out"]

    def test_writer_preference(self):
        """A waiting writer blocks new readers from entering."""
        lock = ReadWriteLock()
        order = []
        lock.acquire_read()
        w = threading.Thread(
            target=lambda: (lock.acquire_write(), order.append("w"),
                            lock.release_write())
        )
        w.start()
        while not lock._writers_waiting:  # wait until the writer queues
            pass
        r = threading.Thread(
            target=lambda: (lock.acquire_read(), order.append("r"),
                            lock.release_read())
        )
        r.start()
        r.join(timeout=0.05)
        assert order == []  # the late reader must wait behind the writer
        lock.release_read()
        w.join(timeout=5)
        r.join(timeout=5)
        assert order == ["w", "r"]


# ----------------------------------------------------------------------
# router + shards
# ----------------------------------------------------------------------
class TestSlabRouter:
    def test_quantile_boundaries_balance(self, rng):
        pts = make_points(rng, 400)
        cuts = SlabRouter.quantile_boundaries(pts, 4)
        assert len(cuts) == 3
        assert cuts == sorted(cuts)

    def test_every_point_routed_once(self, rng):
        pts = make_points(rng, 300)
        eng = ServingEngine(pts, n_shards=5, block_size=16, backend="log")
        assert sum(sh.count for sh in eng.router.shards) == len(pts)
        for p in pts:
            owners = [sh for sh in eng.router.shards if sh.owns(p[0])]
            assert len(owners) == 1
            assert owners[0] is eng.router.shard_for_x(p[0])
        eng.close()

    def test_range_routing_covers(self, rng):
        pts = make_points(rng, 200)
        eng = ServingEngine(pts, n_shards=4, block_size=16, backend="log")
        router = eng.router
        for _ in range(50):
            a = rng.uniform(0, 900)
            b = a + rng.uniform(0, 300)
            touched = router.shards_for_range(a, b)
            for sh in router.shards:
                hits = [p for p in pts if sh.owns(p[0]) and a <= p[0] <= b]
                if hits:
                    assert sh in touched
        eng.close()

    def test_bad_boundaries_rejected(self):
        with pytest.raises(ValueError):
            SlabRouter([], [1.0])

    def test_single_shard_degenerate(self, rng):
        pts = make_points(rng, 100)
        eng = ServingEngine(pts, n_shards=1, block_size=16, backend="log")
        assert eng.query3(0, 1000, 0) == sorted(pts)
        eng.close()


class TestShard:
    def test_spanned_query4_matches_boundary_path(self, rng):
        pts = make_points(rng, 150)
        sh = Shard(0, float("-inf"), float("inf"), ReplicaSpec(16),
                   backend="log", points=pts)
        for _ in range(25):
            a, b = sorted((rng.uniform(0, 1000), rng.uniform(0, 1000)))
            c, d = sorted((rng.uniform(0, 1000), rng.uniform(0, 1000)))
            spanned = sorted(sh.query4(a, b, c, d, spanned=True))
            filtered = sorted(sh.query4(a, b, c, d, spanned=False))
            want = brute_4sided(pts, float("-inf"), float("inf"), c, d)
            assert spanned == want  # spanned path ignores x on purpose
            assert filtered == brute_4sided(pts, a, b, c, d)

    def test_spanned_query4_costs_no_io(self, rng):
        pts = make_points(rng, 200)
        sh = Shard(0, float("-inf"), float("inf"), ReplicaSpec(16),
                   backend="log", points=pts)
        before = sh.primary.base_store.stats.copy()
        sh.query4(0, 1000, 100, 900, spanned=True)
        assert (sh.primary.base_store.stats - before).ios == 0

    def test_duplicate_insert_refused(self):
        sh = Shard(0, float("-inf"), float("inf"), ReplicaSpec(16),
                   backend="log", points=[(1.0, 2.0)])
        assert not sh.insert((1.0, 2.0))
        assert sh.count == 1
        assert sh.insert((3.0, 4.0))
        assert sh.count == 2

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            Shard(0, 0.0, 1.0, ReplicaSpec(16), backend="btree")


# ----------------------------------------------------------------------
# batch executor vs serial oracle
# ----------------------------------------------------------------------
class TestBatchExecutor:
    @pytest.mark.parametrize("backend", ["pst", "log"])
    def test_batch_equals_oracle_small(self, rng, backend):
        pts = make_points(rng, 300)
        trace = generate_trace(250, seed=21, q4_weight=0.2, initial=pts)
        eng = ServingEngine(pts, n_shards=4, block_size=16, backend=backend)
        got = eng.execute(trace)
        want, final = oracle_results(trace, pts)
        assert got.results == want
        assert eng.all_points() == sorted(final)
        eng.close()

    def test_batch_equals_serial_executor(self, rng):
        pts = make_points(rng, 400)
        # an empty x-range (a > b) routes to no shard and answers []
        empty = [("q3", (600.0, 400.0, 0.0)),
                 ("q4", (600.0, 400.0, 0.0, 1000.0))]
        trace = generate_trace(300, seed=22, q4_weight=0.15, initial=pts)
        trace += empty
        e1 = ServingEngine(pts, n_shards=4, block_size=16, backend="log")
        e2 = ServingEngine(pts, n_shards=4, block_size=16, backend="log")
        got = e1.execute(trace).results
        assert got == e2.execute_serial(trace).results
        assert got[-2:] == [[], []]
        timed = e1.execute(empty, deadline=Deadline.after(60.0))
        assert timed.complete and timed.results == [[], []]
        assert e1.query3(600.0, 400.0, 0.0) == []
        e1.close()
        e2.close()

    def test_acceptance_20k_points_mixed_trace(self):
        """Acceptance: 4 shards, 20k points, mixed trace == serial oracle."""
        rng = random.Random(99)
        pts = list({
            (round(rng.uniform(0, 1000), 4), round(rng.uniform(0, 1000), 4))
            for _ in range(20_000)
        })
        trace = generate_trace(
            800, seed=23, q4_weight=0.2, initial=pts, mix=(0.35, 0.25, 0.2)
        )
        eng = ServingEngine(pts, n_shards=4, block_size=32, backend="log")
        got = eng.execute(trace)
        want, final = oracle_results(trace, pts)
        assert got.results == want
        assert eng.count == len(final)
        eng.close()

    def test_multi_shard_query_merges_sorted(self, rng):
        pts = make_points(rng, 300)
        eng = ServingEngine(pts, n_shards=4, block_size=16, backend="log")
        res = eng.execute([("q3", (0.0, 1000.0, 0.0))]).results[0]
        assert res == sorted(pts)
        assert res == sorted(res)
        eng.close()

    def test_empty_batch(self, rng):
        eng = ServingEngine(make_points(rng, 50), n_shards=2,
                            block_size=16, backend="log")
        out = eng.execute([])
        assert out.results == [] and out.n_ops == 0
        eng.close()

    def test_unknown_op_kind(self, rng):
        eng = ServingEngine(make_points(rng, 50), n_shards=2,
                            block_size=16, backend="log")
        with pytest.raises(ValueError):
            eng.execute([("upsert", (1.0, 2.0))])
        eng.close()

    def test_faulty_shards_recover_transients(self, rng):
        """Per-shard fault injection + retry stays invisible to callers."""
        pts = make_points(rng, 200)
        trace = generate_trace(150, seed=25, q4_weight=0.1, initial=pts)
        eng = ServingEngine(
            pts, n_shards=3, block_size=16, backend="log",
            fault_seed=5,
            fault_rates={"read_error_rate": 0.01, "transient_fraction": 1.0},
        )
        want, _ = oracle_results(trace, pts)
        assert eng.execute(trace).results == want
        eng.close()

    def test_fault_rates_need_a_fault_seed(self, rng):
        """Rates without a seed would build fault-free replicas."""
        with pytest.raises(ValueError, match="fault_seed"):
            ServingEngine(make_points(rng, 20), n_shards=2, block_size=16,
                          fault_rates={"corrupt_rate": 1.0})


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
class TestSnapshots:
    def test_snapshot_frozen_under_writes(self, rng):
        pts = make_points(rng, 250)
        eng = ServingEngine(pts, n_shards=3, block_size=16, backend="log")
        snap = eng.snapshot()
        frozen = snap.all_points()
        assert frozen == sorted(pts)
        trace = generate_trace(300, seed=31, q4_weight=0.1, initial=pts)
        eng.execute(trace)
        # live state moved on; the snapshot did not
        assert snap.all_points() == frozen
        for _ in range(20):
            a, b = sorted((rng.uniform(0, 1000), rng.uniform(0, 1000)))
            c = rng.uniform(0, 1000)
            assert snap.query3(a, b, c) == brute_3sided(pts, a, b, c)
            d = rng.uniform(c, 1000)
            assert snap.query4(a, b, c, d) == brute_4sided(pts, a, b, c, d)
        snap.close()
        eng.close()

    def test_snapshot_readers_are_immutable(self, rng):
        pts = make_points(rng, 60)
        sh = Shard(0, float("-inf"), float("inf"), ReplicaSpec(16),
                   backend="log", points=pts)
        snap = sh.snapshot()
        reader = snap._reader
        with pytest.raises(StorageError):
            reader.write(0, [])
        with pytest.raises(StorageError):
            reader.alloc()
        with pytest.raises(StorageError):
            reader.free(0)
        snap.close()

    def test_closed_epoch_rejects_reads(self, rng):
        pts = make_points(rng, 60)
        sh = Shard(0, float("-inf"), float("inf"), ReplicaSpec(16),
                   backend="log", points=pts)
        snap = sh.snapshot()
        snap.close()
        with pytest.raises(StorageError):
            snap.query3(0, 1000, 0)

    def test_cow_pays_one_read_per_first_touch(self):
        from repro.io import BlockStore

        store = SnapshotStore(BlockStore(4))
        bid = store.alloc()
        store.write(bid, [1, 2])
        eid = store.open_epoch()
        before = store.stats.copy()
        store.write(bid, [3, 4])        # first touch: read-before-write
        store.write(bid, [5, 6])        # second touch: already preserved
        delta = store.stats - before
        assert delta.reads == 1 and delta.writes == 2
        assert store.reader(eid).read(bid).records == (1, 2)
        assert store.epoch_writes(eid) == [bid]
        store.close_epoch(eid)

    def test_read_then_write_takes_the_pre_image_from_the_read(self):
        store = SnapshotStore(BlockStore(4))
        read_first, blind, read_early = (store.alloc() for _ in range(3))
        for bid in (read_first, blind, read_early):
            store.write(bid, [bid])
        store.read(read_early)          # before the epoch: no use to it
        eid = store.open_epoch()
        before = store.stats.copy()
        assert store.read(read_first).records == (read_first,)
        store.write(read_first, ["new"])
        delta = store.stats - before
        assert (delta.reads, delta.writes) == (1, 1)   # the op's own read
        assert store.pre_image_reads == 0
        store.write(blind, ["new"])
        store.write(read_early, ["new"])
        assert store.pre_image_reads == 2
        reader = store.reader(eid)
        for bid in (read_first, blind, read_early):
            assert reader.read(bid).records == (bid,)
        assert store.rollback_epoch(eid) == 3
        for bid in (read_first, blind, read_early):
            assert store.peek(bid) == (bid,)

    def test_rot_between_read_and_write_is_undone_to_the_read(self):
        """Rot scribbled after an op read a block and before it wrote
        it: the op's own verified read is the pre-image, so the write
        lands, the rollback restores good bytes, and a snapshot opened
        before the op still reads them."""
        base = BlockStore(4)
        checked = ChecksummedStore(base)
        store = SnapshotStore(checked)
        bid = store.alloc()
        store.write(bid, [1, 2])
        frozen = store.reader(store.open_epoch())
        op = store.open_epoch()
        assert store.read(bid).records == (1, 2)
        base.scribble(bid, ["rot"])
        store.write(bid, [3, 4])
        assert store.pre_image_reads == 0
        assert frozen.read(bid).records == (1, 2)
        store.rollback_epoch(op)
        assert base.peek(bid) == (1, 2)
        assert checked.verify(bid)
        assert frozen.read(bid).records == (1, 2)

    def test_blocks_born_after_epoch_invisible(self):
        from repro.io import BlockStore

        store = SnapshotStore(BlockStore(4))
        eid = store.open_epoch()
        bid = store.alloc()
        store.write(bid, [1])
        with pytest.raises(StorageError):
            store.reader(eid).read(bid)
        store.close_epoch(eid)

    def test_engine_snapshot_consistent_cut(self, rng):
        """Writers racing the snapshot see either all-before or all-after."""
        pts = make_points(rng, 200)
        eng = ServingEngine(pts, n_shards=4, block_size=16, backend="log")
        stop = threading.Event()

        def churn():
            i = 0
            while not stop.is_set():
                eng.insert(2000.0 + i, 2000.0 + i)  # outside query extent
                i += 1

        t = threading.Thread(target=churn)
        t.start()
        try:
            for _ in range(5):
                with eng.snapshot() as snap:
                    total = snap.count
                    assert total == len(snap.all_points())
                    assert total >= len(pts)
        finally:
            stop.set()
            t.join(timeout=5)
        eng.close()

    def test_two_overlapping_epochs(self, rng):
        pts = make_points(rng, 120)
        eng = ServingEngine(pts, n_shards=2, block_size=16, backend="log")
        s1 = eng.snapshot()
        trace1 = generate_trace(100, seed=41, initial=pts)
        eng.execute(trace1)
        mid = eng.all_points()
        s2 = eng.snapshot()
        eng.execute(generate_trace(100, seed=42, initial=mid))
        assert s1.all_points() == sorted(pts)
        assert s2.all_points() == sorted(mid)
        s1.close()
        s2.close()
        eng.close()

    @pytest.mark.parametrize("access", ["read", "peek"])
    @pytest.mark.parametrize("mutation", ["overwrite", "free"])
    def test_reader_wins_race_with_writer(self, access, mutation):
        """A writer that preserves and then overwrites or frees a block
        between the reader's undo-map check and its live access must
        not leak post-epoch state into the frozen view."""
        disk = _RacyDisk(4)
        snap = SnapshotStore(disk)
        bid = snap.alloc()
        snap.write(bid, ["old"])
        reader = snap.reader(snap.open_epoch())
        if mutation == "overwrite":
            disk.before_access = lambda: snap.write(bid, ["new"])
        else:
            disk.before_access = lambda: snap.free(bid)
        if access == "read":
            assert reader.read(bid).records == ("old",)
        else:
            assert reader.peek(bid) == ("old",)
        assert disk.before_access is None   # the race really ran

    @pytest.mark.parametrize("op1_epoch", [True, False])
    def test_straddling_read_cannot_plant_a_stale_pre_image(self, op1_epoch):
        """A snapshot reader's read fetches ``v0``; before it returns, op
        1 overwrites the block with ``v1`` and commits (inside its own
        epoch or not), and op 2 opens.  The read must not become op 2's
        pre-image: op 2's rollback would then restore ``v0`` over the
        committed ``v1``."""
        disk = _LateReadDisk(4)
        snap = SnapshotStore(disk)
        bid = snap.alloc()
        snap.write(bid, ["v0"])
        reader = snap.reader(snap.open_epoch())
        op2 = []

        def commit_then_reopen():
            op1 = snap.open_epoch() if op1_epoch else None
            snap.write(bid, ["v1"])
            if op1_epoch:
                snap.close_epoch(op1)
            op2.append(snap.open_epoch())

        disk.after_read = commit_then_reopen
        assert reader.read(bid).records == ("v0",)
        assert op2                          # the race really ran
        snap.write(bid, ["v2"])
        snap.rollback_epoch(op2[0])
        assert disk.peek(bid) == ("v1",)
        assert reader.read(bid).records == ("v0",)


# ----------------------------------------------------------------------
# admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_admits_within_capacity(self):
        adm = AdmissionController(max_inflight=2, max_queue=4)
        assert adm.acquire() and adm.acquire()
        assert adm.snapshot()["inflight"] == 2
        adm.release()
        adm.release()
        assert adm.snapshot()["inflight"] == 0
        assert adm.admitted == 2

    def test_shed_policy_rejects_immediately(self):
        adm = AdmissionController(max_inflight=1, max_queue=4, policy="shed")
        assert adm.acquire()
        assert not adm.acquire()
        assert adm.sheds == 1
        adm.release()
        assert adm.acquire()

    def test_block_policy_queues_then_sheds_overflow(self):
        adm = AdmissionController(max_inflight=1, max_queue=1, policy="block")
        assert adm.acquire()
        admitted = []

        def waiter():
            admitted.append(adm.acquire())

        t = threading.Thread(target=waiter, daemon=True)
        t.start()
        deadline = Deadline.after(5.0)  # fail, not hang, if it never queues
        while adm.snapshot()["queue_depth"] == 0:
            assert not deadline.expired, "waiter never queued"
        assert not adm.acquire()  # queue full: overflow is shed
        adm.release()
        t.join(timeout=5)
        assert admitted == [True]
        adm.release()

    def test_engine_surfaces_shed_as_overloaded(self, rng):
        pts = make_points(rng, 100)
        eng = ServingEngine(
            pts, n_shards=2, block_size=16, backend="log",
            max_inflight=1, max_queue=0, admission_policy="shed",
            io_latency=0.0005,
        )
        shed = []
        trace = generate_trace(40, seed=51, initial=pts)

        def client():
            try:
                eng.execute(trace)
            except EngineOverloaded:
                shed.append(1)

        threads = [threading.Thread(target=client, daemon=True)
                   for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert shed  # contention on one slot must shed someone
        assert eng.admission.snapshot()["shed"] == len(shed)
        eng.close()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(policy="drop")
        with pytest.raises(ValueError):
            AdmissionController(max_queue=-1)


# ----------------------------------------------------------------------
# threaded stress: multi-reader vs single-writer per shard
# ----------------------------------------------------------------------
class TestThreadedStress:
    def test_concurrent_readers_with_writer(self, rng):
        """Readers racing a monotone writer: every answer is sandwiched
        between the initial and final states (no torn/phantom points)."""
        pts = make_points(rng, 300)
        initial = set(pts)
        eng = ServingEngine(pts, n_shards=4, block_size=16, backend="log",
                            max_inflight=8, max_queue=32)
        inserted = [
            (1000.0 + i * 0.25, rng.uniform(0, 1000)) for i in range(120)
        ]
        errors = []
        done = threading.Event()

        def writer():
            try:
                for p in inserted:
                    eng.execute([("ins", p)])
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)
            finally:
                done.set()

        def reader():
            try:
                while not done.is_set():
                    a, b = sorted((rng.uniform(0, 1200),
                                   rng.uniform(0, 1200)))
                    c = rng.uniform(0, 1000)
                    got = eng.execute([("q3", (a, b, c))]).results[0]
                    lower = brute_3sided(initial, a, b, c)
                    upper = set(brute_3sided(initial | set(inserted), a, b, c))
                    assert set(lower) <= set(got) <= upper
                    assert got == sorted(got)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        assert eng.count == len(initial) + len(inserted)
        want, _ = oracle_results([("q3", (0.0, 1200.0, 0.0))],
                                 initial | set(inserted))
        assert eng.query3(0.0, 1200.0, 0.0) == want[0]
        eng.close()

    def test_concurrent_disjoint_batches_equal_oracle(self, rng):
        """Commuting batches submitted from many threads land on the
        same final state the serial oracle reaches."""
        pts = make_points(rng, 200)
        eng = ServingEngine(pts, n_shards=4, block_size=16, backend="log",
                            max_inflight=8, max_queue=64)
        pools = [
            [(2000.0 + t * 100 + i, float(i)) for i in range(40)]
            for t in range(4)
        ]
        errors = []

        def client(pool):
            try:
                for i in range(0, len(pool), 8):
                    eng.execute([("ins", p) for p in pool[i:i + 8]])
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(p,)) for p in pools]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        final = set(pts) | {p for pool in pools for p in pool}
        assert eng.all_points() == sorted(final)
        for sh in eng.router.shards:
            sh.primary.structure.check_invariants()
        eng.close()


# ----------------------------------------------------------------------
# Hypothesis stateful machine
# ----------------------------------------------------------------------
coord = st.integers(min_value=0, max_value=30).map(float)
point = st.tuples(coord, coord)


class ServingMachine(RuleBasedStateMachine):
    """ServingEngine vs a set model under arbitrary op batches."""

    def __init__(self):
        super().__init__()
        self.engine = ServingEngine(
            n_shards=3, block_size=8, backend="log", extent=30.0
        )
        self.model = set()
        self.snaps = []  # (EngineSnapshot, frozen model copy)

    def teardown(self):
        for snap, _frozen in self.snaps:
            snap.close()
        self.engine.close()

    @rule(batch=st.lists(st.tuples(st.sampled_from(["ins", "del"]), point),
                         min_size=1, max_size=6))
    def writes(self, batch):
        # dedupe targets within one batch: concurrent per-shard queues
        # are only order-preserving per shard, so keep batches commuting
        seen = set()
        ops = []
        for kind, p in batch:
            if p in seen:
                continue
            seen.add(p)
            ops.append((kind, p))
        res = self.engine.execute(ops).results
        for (kind, p), r in zip(ops, res):
            if kind == "ins":
                self.model.add(p)
            else:
                assert r == (p in self.model)
                self.model.discard(p)

    @rule(a=coord, b=coord, c=coord)
    def query3(self, a, b, c):
        if a > b:
            a, b = b, a
        got = self.engine.execute([("q3", (a, b, c))]).results[0]
        assert got == brute_3sided(self.model, a, b, c)

    @rule(a=coord, b=coord, c=coord, d=coord)
    def query4(self, a, b, c, d):
        if a > b:
            a, b = b, a
        if c > d:
            c, d = d, c
        got = self.engine.execute([("q4", (a, b, c, d))]).results[0]
        assert got == brute_4sided(self.model, a, b, c, d)

    @rule()
    def open_snapshot(self):
        if len(self.snaps) < 2:
            self.snaps.append((self.engine.snapshot(), set(self.model)))

    @rule()
    def check_and_close_snapshot(self):
        if self.snaps:
            snap, frozen = self.snaps.pop(0)
            assert snap.all_points() == sorted(frozen)
            snap.close()

    @invariant()
    def counts_agree(self):
        assert self.engine.count == len(self.model)


TestServingMachine = ServingMachine.TestCase
TestServingMachine.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
