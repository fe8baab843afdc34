"""Self-healing replicated serving: checksums, failover, scrub, deadlines.

The correctness standard for every chaos test is the fault-free oracle:
a replicated engine under injected faults must be *observationally
identical* to the same engine with no faults -- zero wrong answers,
zero lost acknowledged writes -- because every fault is either healed
in place, rolled back, or failed over.
"""

import random
import threading

import pytest

from tests.conftest import brute_4sided, make_points
from repro.io import BlockStore, ChecksummedStore, CorruptBlockError
from repro.io.checksum import record_crc
from repro.resilience import FaultSchedule
from repro.serve import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    PartialResult,
    ReadWriteLock,
    ReplicaSetExhausted,
    Scrubber,
    ServingEngine,
    Shard,
)

CHAOS_RATES = {
    "corrupt_rate": 0.02,
    "read_error_rate": 0.02,
    "write_error_rate": 0.02,
    "transient_fraction": 0.5,
}


def make_shard(pts, factor=2, seed=None, rates=None, **kw):
    schedules = None
    if seed is not None:
        schedules = [
            FaultSchedule(seed=seed, stream=j, **(rates or CHAOS_RATES))
            for j in range(factor)
        ]
    return Shard(
        0, float("-inf"), float("inf"), block_size=16, backend="log",
        points=pts, replication_factor=factor, fault_schedules=schedules,
        **kw,
    )


def replica_image(r):
    """(bid -> payload) map of one replica's disk."""
    return {
        bid: r.base_store.peek(bid) for bid in r.base_store.block_ids()
    }


# ----------------------------------------------------------------------
# checksummed blocks
# ----------------------------------------------------------------------
class TestChecksummedStore:
    def test_detects_scribbled_rot(self):
        base = BlockStore(8)
        cs = ChecksummedStore(base)
        bid = cs.alloc()
        cs.write(bid, [1, 2, 3])
        assert cs.read(bid).records == [1, 2, 3]
        base.scribble(bid, [9, 9])
        with pytest.raises(CorruptBlockError) as exc:
            cs.read(bid)
        assert exc.value.bid == bid
        assert cs.mismatches == 1

    def test_verify_is_free_and_never_raises(self):
        base = BlockStore(8)
        cs = ChecksummedStore(base)
        bid = cs.alloc()
        cs.write(bid, ["x"])
        reads_before = base.stats.reads
        assert cs.verify(bid) is True
        base.scribble(bid, ["y"])
        assert cs.verify(bid) is False
        assert cs.verify(9999) is True  # unknown block: not the scrubber's call
        assert base.stats.reads == reads_before

    def test_place_with_crc_override_keeps_rot_detectable(self):
        base = BlockStore(8)
        cs = ChecksummedStore(base)
        good_crc = record_crc(["good"])
        cs.place(0, ["rotten"], crc=good_crc)
        assert cs.crc_of(0) == good_crc
        assert cs.verify(0) is False

    def test_trust_on_first_read(self):
        base = BlockStore(8)
        base.alloc()
        base.write(0, [5])
        cs = ChecksummedStore(base)
        assert cs.crc_of(0) is None
        cs.read(0)
        assert cs.crc_of(0) == record_crc([5])


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        br = CircuitBreaker(failure_threshold=3, probe_after=2)
        for _ in range(2):
            br.record_failure()
        assert br.state == CircuitBreaker.CLOSED
        br.record_success()
        for _ in range(2):
            br.record_failure()
        assert br.state == CircuitBreaker.CLOSED  # success reset the count
        br.record_failure()
        assert br.state == CircuitBreaker.OPEN
        assert br.times_opened == 1

    def test_half_open_probe_closes_or_reopens(self):
        br = CircuitBreaker(failure_threshold=1, probe_after=2)
        br.record_failure()
        assert br.state == CircuitBreaker.OPEN
        assert not br.allow()         # refusal 1
        assert br.allow()             # refusal 2 flips to half-open: probe
        assert br.state == CircuitBreaker.HALF_OPEN
        br.record_failure()
        assert br.state == CircuitBreaker.OPEN
        assert not br.allow()
        assert br.allow()             # the next probe
        br.record_success()
        assert br.state == CircuitBreaker.CLOSED


# ----------------------------------------------------------------------
# replica sets: mirrors, transactions, failover, rebuild
# ----------------------------------------------------------------------
class TestReplicaSet:
    def test_replicas_are_bid_mirrors(self, rng):
        sh = make_shard(make_points(rng, 120), factor=3)
        for i in range(60):
            sh.insert((rng.uniform(0, 1000), rng.uniform(0, 1000)))
        images = [replica_image(r) for r in sh.replica_set.replicas]
        assert images[0] == images[1] == images[2]

    def test_write_fans_out_read_falls_back(self, rng):
        pts = make_points(rng, 100)
        sh = make_shard(pts, factor=2)
        sh.insert((1.0, 2.0))
        live = {(1.0, 2.0)} | set(pts)
        want = brute_4sided(live, 0, 1000, 0, 1000)
        assert sorted(sh.query4(0, 1000, 0, 1000)) == want
        sh.replica_set.kill(0, "test kill")
        assert sorted(sh.query4(0, 1000, 0, 1000)) == want  # replica 1 serves
        assert sh.replica_set.stats()["failovers"] == 1

    def test_abort_rolls_back_to_pre_op_image(self, rng):
        sh = make_shard(make_points(rng, 80), factor=2)
        rs = sh.replica_set
        before = replica_image(rs.replicas[0])

        def doomed(structure):
            structure.insert(1.0, 1.0)
            raise CorruptBlockError(0, 1, 2)

        with pytest.raises(ReplicaSetExhausted):
            rs.apply_write(doomed)
        # both replicas rolled back: same blocks, same payloads, and a
        # retried clean op re-allocates the very same ids (mirror kept)
        assert replica_image(rs.replicas[0]) == before
        assert replica_image(rs.replicas[1]) == before
        rs.apply_write(lambda s: s.insert(2.0, 2.0))
        assert replica_image(rs.replicas[0]) == replica_image(rs.replicas[1])

    def test_rejected_write_is_not_visible(self, rng):
        pts = make_points(rng, 60)
        sh = make_shard(pts, factor=2)

        def doomed(structure):
            structure.insert(123.0, 456.0)
            raise CorruptBlockError(0, 1, 2)

        with pytest.raises(ReplicaSetExhausted):
            sh.replica_set.apply_write(doomed)
        assert (123.0, 456.0) not in sh.query4(0, 1000, 0, 1000)

    def test_kill_and_rebuild_restores_mirror(self, rng):
        sh = make_shard(make_points(rng, 100), factor=2)
        rs = sh.replica_set
        rs.kill(0, "chaos")
        for i in range(20):
            sh.insert((rng.uniform(0, 1000), rng.uniform(0, 1000)))
        assert rs.rebuild_dead() == 0  # auto_rebuild already healed it
        assert len(rs.live) == 2
        assert rs.rebuilds >= 1
        assert replica_image(rs.replicas[0]) == replica_image(rs.replicas[1])

    def test_repair_block_from_peer(self, rng):
        sh = make_shard(make_points(rng, 80), factor=2)
        rs = sh.replica_set
        r0 = rs.replicas[0]
        bid = sorted(r0.base_store.block_ids())[0]
        r0.checksummed.read(bid)  # learn the CRC
        r0.base_store.scribble(bid, ["rot"])
        assert not r0.checksummed.verify(bid)
        assert rs.repair_block(r0, bid)
        assert r0.checksummed.verify(bid)
        assert replica_image(r0)[bid] == replica_image(rs.replicas[1])[bid]

    def test_silent_write_rot_never_acked(self, rng):
        """Pre-ack CRC sweep: an acked op leaves no latent rot behind."""
        sh = make_shard(
            make_points(rng, 80), factor=2, seed=11,
            rates={"corrupt_rate": 0.2},
        )
        for i in range(40):
            sh.insert((rng.uniform(0, 1000), rng.uniform(0, 1000)))
        for r in sh.replica_set.replicas:
            r.flush()
            for bid in sorted(r.checksummed.block_ids()):
                assert r.checksummed.verify(bid), (r.replica_id, bid)


# ----------------------------------------------------------------------
# scrubbing
# ----------------------------------------------------------------------
class TestScrubber:
    def test_repairs_all_injected_rot(self, rng):
        sh = make_shard(make_points(rng, 150), factor=2)
        r0 = sh.replica_set.replicas[0]
        bids = sorted(r0.base_store.block_ids())[:5]
        for bid in bids:
            r0.checksummed.read(bid)
            r0.base_store.scribble(bid, ["rot", bid])
        scrubber = Scrubber([sh])
        out = scrubber.scrub_once()
        assert out["repairs"] == len(bids)
        assert out["unrepaired"] == 0
        for bid in bids:
            assert r0.checksummed.verify(bid)

    def test_scrub_rebuilds_dead_replicas(self, rng):
        sh = make_shard(make_points(rng, 100), factor=2, auto_rebuild=False)
        sh.replica_set.kill(1, "chaos")
        assert len(sh.replica_set.live) == 1
        Scrubber([sh]).scrub_once()
        assert len(sh.replica_set.live) == 2

    def test_bounded_lock_wait_skips_busy_shard(self, rng):
        sh = make_shard(make_points(rng, 50), factor=2)
        scrubber = Scrubber([sh])
        assert sh.lock.acquire_write(timeout=1.0)
        try:
            out = scrubber.scrub_once(lock_timeout=0.01)
        finally:
            sh.lock.release_write()
        assert out["shards_skipped"] == 1
        assert out["blocks_checked"] == 0

    def test_background_thread_start_stop(self, rng):
        sh = make_shard(make_points(rng, 50), factor=2)
        scrubber = Scrubber([sh])
        scrubber.start(interval=0.01)
        assert scrubber.running
        deadline = Deadline.after(5.0)
        while scrubber.cycles == 0 and not deadline.expired:
            pass
        scrubber.stop()
        assert not scrubber.running
        assert scrubber.cycles >= 1


# ----------------------------------------------------------------------
# deadlines and degraded reads
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_deadline_gives_empty_partial(self, rng):
        eng = ServingEngine(make_points(rng, 100), n_shards=2,
                            block_size=16, backend="log")
        out = eng.execute([("q4", (0, 1000, 0, 1000))],
                          deadline=Deadline(0.0))
        assert isinstance(out, PartialResult)
        assert not out.complete and out.deadline_expired
        assert out.served_slabs == []
        assert sorted(out.missing_slabs) == out.missing_slabs
        eng.close()

    def test_generous_deadline_matches_plain_result(self, rng):
        pts = make_points(rng, 150)
        eng = ServingEngine(pts, n_shards=3, block_size=16, backend="log")
        ops = [("q4", (0, 1000, 0, 1000)), ("ins", (5.0, 5.0)),
               ("q3", (0, 1000, 0))]
        plain = eng.execute(ops)
        eng2 = ServingEngine(pts, n_shards=3, block_size=16, backend="log")
        timed = eng2.execute(ops, deadline=Deadline.after(60.0))
        assert isinstance(timed, PartialResult) and timed.complete
        assert timed.results == plain.results
        assert timed.missing_slabs == []
        eng.close()
        eng2.close()

    def test_mutations_on_missing_slabs_unacked(self, rng):
        eng = ServingEngine(make_points(rng, 100), n_shards=2,
                            block_size=16, backend="log")
        out = eng.execute([("ins", (1.0, 1.0))], deadline=Deadline(0.0))
        assert not out.complete
        assert out.results == [None]
        # the insert was never applied: the point must not be served later
        assert (1.0, 1.0) not in eng.execute(
            [("q4", (0, 1000, 0, 1000))]
        ).results[0]
        eng.close()


# ----------------------------------------------------------------------
# lock timeouts and admission shedding (satellites)
# ----------------------------------------------------------------------
class TestLockTimeouts:
    def test_read_times_out_under_writer(self):
        lock = ReadWriteLock()
        assert lock.acquire_write(timeout=1.0)
        try:
            assert lock.acquire_read(timeout=0.01) is False
        finally:
            lock.release_write()
        assert lock.acquire_read(timeout=0.01) is True
        lock.release_read()

    def test_write_times_out_under_reader(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            assert lock.acquire_write(timeout=0.01) is False
        assert lock.acquire_write(timeout=0.01) is True
        lock.release_write()

    def test_timed_out_writer_does_not_starve_readers(self):
        lock = ReadWriteLock()
        with lock.read_locked():
            assert lock.acquire_write(timeout=0.01) is False
            # the withdrawn writer preference must not block new readers
            got = []
            t = threading.Thread(
                target=lambda: got.append(lock.acquire_read(timeout=1.0))
            )
            t.start()
            t.join(timeout=5.0)
            assert got == [True]
            lock.release_read()  # the thread's hold


class TestAdmissionShedding:
    def test_block_policy_sheds_past_max_wait(self):
        ac = AdmissionController(max_inflight=1, max_queue=0,
                                 policy="block", max_wait=0.02)
        assert ac.acquire()
        assert ac.acquire() is False  # timed out, shed
        ac.release()
        st = ac.snapshot()
        assert st["shed"] == 1
        assert st["shed_rate"] == pytest.approx(0.5)
        assert st["max_wait"] == pytest.approx(0.02)

    def test_shed_rate_in_engine_stats(self, rng):
        eng = ServingEngine(make_points(rng, 60), n_shards=2,
                            block_size=16, backend="log",
                            admission_max_wait=0.05)
        eng.execute([("q3", (0, 1000, 0))])
        st = eng.stats()
        assert st["shed_rate"] == 0.0
        assert st["admission"]["max_wait"] == pytest.approx(0.05)
        eng.close()


# ----------------------------------------------------------------------
# engine-level chaos: the oracle equivalence standard
# ----------------------------------------------------------------------
class TestEngineChaos:
    def _trace_run(self, factor, seed, kill=False):
        rng = random.Random(7)
        pts = [(rng.uniform(0, 1000), rng.uniform(0, 1000))
               for _ in range(200)]
        kw = {}
        if seed is not None:
            kw = dict(fault_seed=seed, fault_rates=dict(CHAOS_RATES))
        eng = ServingEngine(pts, n_shards=2, block_size=16, backend="log",
                            replication_factor=factor, **kw)
        answers = []
        acked = list(pts)
        for i in range(150):
            p = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            eng.insert(*p)
            acked.append(p)
            if i % 5 == 0:
                a, c = rng.uniform(0, 900), rng.uniform(0, 900)
                res = eng.execute([("q4", (a, a + 100, c, c + 100))])
                answers.append(res.results[0])
            if kill and i == 60:
                eng.kill_replica(0, 0, "chaos monkey")
                eng.heal()
            if seed is not None and i % 25 == 24:
                eng.scrub()
        final = eng.execute([("q4", (0, 1000, 0, 1000))]).results[0]
        stats = eng.stats()
        eng.close()
        return answers, final, acked, stats

    def test_chaos_run_matches_fault_free_oracle(self):
        oracle_answers, oracle_final, _, _ = self._trace_run(1, None)
        answers, final, acked, stats = self._trace_run(2, 3, kill=True)
        assert answers == oracle_answers           # zero wrong answers
        assert final == oracle_final
        assert final == sorted(set(acked))         # zero lost acked writes
        assert stats["replication"]["live_replicas"] == 4
        assert stats["replication"]["failovers"] >= 1
        assert stats["replication"]["rebuilds"] >= 1

    def test_chaos_run_is_deterministic(self):
        a1 = self._trace_run(2, 3, kill=True)
        a2 = self._trace_run(2, 3, kill=True)
        assert a1[0] == a2[0] and a1[1] == a2[1]

    def test_replication_factor_one_matches_plain_engine(self, rng):
        pts = make_points(rng, 150)
        e1 = ServingEngine(pts, n_shards=2, block_size=16, backend="log")
        e2 = ServingEngine(pts, n_shards=2, block_size=16, backend="log",
                           replication_factor=1)
        ops = [("ins", (1.0, 1.0)), ("q4", (0, 1000, 0, 1000)),
               ("q3", (0, 500, 100))]
        r1, r2 = e1.execute(ops), e2.execute(ops)
        assert r1.results == r2.results
        assert e1.stats()["total_reads"] == e2.stats()["total_reads"]
        assert e1.stats()["total_writes"] == e2.stats()["total_writes"]
        e1.close()
        e2.close()

    def test_stats_expose_breakers_scrub_and_replica_totals(self, rng):
        eng = ServingEngine(make_points(rng, 80), n_shards=2,
                            block_size=16, backend="log",
                            replication_factor=2)
        eng.insert(1.0, 2.0)
        eng.scrub()
        st = eng.stats()
        assert st["replication"]["factor"] == 2
        assert st["scrub"]["cycles"] == 1
        assert st["total_replica_writes"] > st["total_writes"]
        eng.close()

    def test_all_points_fails_over_like_queries(self, rng):
        """Rot on the primary must not break ``all_points`` while a
        healthy peer holds the block: it heals and answers like q3."""
        pts = make_points(rng, 600)
        eng = ServingEngine(pts, n_shards=2, block_size=16, backend="pst",
                            replication_factor=2)
        disk = eng.router.shards[0].primary.base_store
        read = []

        def watch(op, bid):
            if op == "read":
                read.append(bid)

        disk.add_observer(watch)
        assert eng.all_points() == sorted(pts)
        disk.remove_observer(watch)
        disk.scribble(read[-1], [("__bitrot__", 0)])   # CRC already known
        assert eng.all_points() == sorted(pts)
        assert eng.query3(float("-inf"), float("inf"),
                          float("-inf")) == sorted(pts)
        assert eng.stats()["replication"]["read_fallbacks"] >= 1
        eng.close()
