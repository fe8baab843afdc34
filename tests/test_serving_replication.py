"""Self-healing replicated serving: checksums, failover, scrub, deadlines.

The correctness standard for every chaos test is the fault-free oracle:
a replicated engine under injected faults must be *observationally
identical* to the same engine with no faults -- zero wrong answers,
zero lost acknowledged writes -- because every fault is either healed
in place, rolled back, or failed over.
"""

import random
import threading
import time

import pytest

from tests.conftest import brute_3sided, brute_4sided, make_points
from repro.io import BlockStore, ChecksummedStore, CorruptBlockError
from repro.io.checksum import record_crc
from repro.resilience import FaultSchedule, TransientIOError
from repro.serve import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    PartialResult,
    ReadWriteLock,
    ReplicaSetExhausted,
    ReplicaSpec,
    ServingEngine,
    Shard,
)
from repro.serve.replication import (
    BREAKER_PROBE_AFTER,
    BREAKER_THRESHOLD,
    OP_RETRY_BOUND,
)

CHAOS_RATES = {
    "corrupt_rate": 0.02,
    "read_error_rate": 0.02,
    "write_error_rate": 0.02,
    "transient_fraction": 0.5,
}


def make_shard(pts, factor=2, seed=None, rates=None, pool=0):
    schedules = None
    if seed is not None:
        schedules = [
            FaultSchedule(seed=seed, stream=j, **(rates or CHAOS_RATES))
            for j in range(factor)
        ]
    return Shard(
        0, float("-inf"), float("inf"), ReplicaSpec(16, pool_capacity=pool),
        backend="log", points=pts, replication_factor=factor,
        fault_schedules=schedules,
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
        assert cs.read(bid).records == (1, 2, 3)
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
        br = CircuitBreaker()
        for _ in range(BREAKER_THRESHOLD - 1):
            br.record_failure()
        assert br.state == CircuitBreaker.CLOSED
        br.record_success()
        for _ in range(BREAKER_THRESHOLD - 1):
            br.record_failure()
        assert br.state == CircuitBreaker.CLOSED  # success reset the count
        br.record_failure()
        assert br.state == CircuitBreaker.OPEN
        assert br.times_opened == 1

    def test_half_open_probe_closes_or_reopens(self):
        br = CircuitBreaker()
        for _ in range(BREAKER_THRESHOLD):
            br.record_failure()
        assert br.state == CircuitBreaker.OPEN
        for _ in range(BREAKER_PROBE_AFTER - 1):
            assert not br.allow()     # refused while open
        assert br.allow()             # the last refusal flips to half-open
        assert br.state == CircuitBreaker.HALF_OPEN
        br.record_failure()           # a failed probe re-opens at once
        assert br.state == CircuitBreaker.OPEN
        assert br.times_opened == 2
        for _ in range(BREAKER_PROBE_AFTER - 1):
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
        st = sh.replica_set.stats()
        # nothing to mend (the named block verifies): each replica
        # rolled back its one attempt and was retired at once
        assert st["writes_rejected"] == 1
        assert st["write_aborts"] == 2
        assert st["block_repairs"] == 0

    def test_write_rot_on_every_attempt_stops_at_the_retry_cap(self, rng):
        """Each attempt's write-rot is mended by its rollback, so every
        attempt earns a retry; the cap still ends the op, rejected, with
        both replicas back on their pre-op image."""
        sh = make_shard(make_points(rng, 60), factor=2, seed=5,
                        rates={"corrupt_rate": 1.0})
        rs = sh.replica_set
        before = replica_image(rs.replicas[0])
        with pytest.raises(ReplicaSetExhausted):
            sh.insert((1.0, 1.0))
        st = rs.stats()
        assert (st["writes_rejected"], st["block_repairs"]) == (1, 0)
        assert st["write_aborts"] == 2 * OP_RETRY_BOUND
        assert replica_image(rs.replicas[0]) == before
        assert replica_image(rs.replicas[1]) == before

    def test_counts_survive_a_rebuild(self, rng):
        """A rebuilt replica's predecessor keeps its place in the set's
        totals: checksum mismatches and breaker trips do not go back."""
        sh = make_shard(make_points(rng, 150), factor=2)
        rs = sh.replica_set
        r0 = rs.replicas[0]
        bid = sorted(r0.base_store.block_ids())[0]
        r0.checksummed.read(bid)
        r0.base_store.scribble(bid, ["rot"])
        with pytest.raises(CorruptBlockError):
            r0.checksummed.read(bid)
        for _ in range(BREAKER_THRESHOLD):
            r0.breaker.record_failure()
        want = (1, 1)
        st = rs.stats()
        assert (st["crc_mismatches"], st["breaker_opened"]) == want
        rs.kill(0)
        assert rs.rebuild_dead() == 1 and rs.replicas[0] is not r0
        st = rs.stats()
        assert (st["crc_mismatches"], st["breaker_opened"]) == want

    def test_heal_latched_rearms_every_block_it_can(self, rng):
        """One latched block with no verified copy anywhere does not
        keep the later ones latched."""
        sh = make_shard(make_points(rng, 150), factor=2, seed=1, rates={})
        rs = sh.replica_set
        r0 = rs.replicas[0]
        for r in rs.replicas:
            r.base_store.scribble(0, ["rot", r.replica_id])
        r0.faulty._broken_read.update((0, 3))
        assert r0.checksummed.verify(3)
        assert rs.heal_latched(r0) is False
        assert r0.faulty.broken_blocks == [0]

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
        out = sh.scrub()
        assert out["repairs"] == len(bids)
        assert out["unrepaired"] == 0
        for bid in bids:
            assert r0.checksummed.verify(bid)

    def test_scrub_rebuilds_dead_replicas(self, rng):
        sh = make_shard(make_points(rng, 100), factor=2)
        sh.replica_set.kill(1, "chaos")
        assert len(sh.replica_set.live) == 1
        sh.scrub()
        assert len(sh.replica_set.live) == 2


# ----------------------------------------------------------------------
# rot paths, most behind a buffer pool: each must reach the verified-copy
# primitive (ChecksummedStore.verified_payload) and the one repair write
# (Replica.rewrite), which drops the repaired block's pool frame
# ----------------------------------------------------------------------
def disk_matches_crcs(r):
    """Every block on ``r``'s disk hashes to its recorded CRC (checked
    here, not through the store's own verification)."""
    return all(
        record_crc(r.base_store.peek(bid)) == r.checksummed.crc_of(bid)
        for bid in r.base_store.block_ids()
    )


def read_is_a_miss(r, bid):
    """Reading ``bid`` through ``r``'s pool goes to disk (no stale frame)."""
    misses, reads = r.pool.misses, r.base_store.stats.reads
    r.store.read(bid)
    return r.pool.misses == misses + 1 and r.base_store.stats.reads == reads + 1


class TestRotPaths:
    def test_scrub_repairs_rot_at_rest(self, rng):
        pts = make_points(rng, 150)
        sh = make_shard(pts, pool=8)
        r0, r1 = sh.replica_set.replicas
        bid = sorted(r0.base_store.block_ids())[0]
        good = r0.store.read(bid).records    # now a resident pool frame
        r0.base_store.scribble(bid, ["rot"])
        out = sh.scrub()
        assert (out["repairs"], out["unrepaired"]) == (1, 0)
        assert sh.replica_set.block_repairs == 1
        assert r0.base_store.peek(bid) == good == r1.base_store.peek(bid)
        assert disk_matches_crcs(r0)
        assert read_is_a_miss(r0, bid)
        assert sorted(sh.query4(0, 1000, 0, 1000)) == brute_4sided(
            set(pts), 0, 1000, 0, 1000
        )

    def test_read_heals_rot_on_the_primary_in_place(self, rng):
        """A query that trips on a rotten primary block repairs it from
        the peer and retries on the primary: one fallback, one repair,
        no failover."""
        pts = make_points(rng, 150)
        sh = make_shard(pts)
        rs = sh.replica_set
        r0, r1 = rs.replicas
        read = []

        def watch(op, bid):
            if op == "read":
                read.append(bid)

        r0.base_store.add_observer(watch)
        assert sorted(sh.query4(0, 1000, 0, 1000)) == brute_4sided(
            set(pts), 0, 1000, 0, 1000
        )
        r0.base_store.remove_observer(watch)
        bid = read[-1]                          # its CRC is known now
        r0.base_store.scribble(bid, ["rot"])
        assert sorted(sh.query4(0, 1000, 0, 1000)) == brute_4sided(
            set(pts), 0, 1000, 0, 1000
        )
        st = rs.stats()
        assert (st["read_fallbacks"], st["block_repairs"]) == (1, 1)
        assert st["failovers"] == 0 and len(rs.live) == 2
        assert r0.base_store.peek(bid) == r1.base_store.peek(bid)
        assert disk_matches_crcs(r0)
        assert replica_image(r0) == replica_image(r1)

    def test_write_rot_is_swept_and_retried_before_ack(self, rng):
        pts = make_points(rng, 80)
        sh = make_shard(pts, seed=11, rates={"corrupt_rate": 0.2}, pool=8)
        live = set(pts)
        for _ in range(40):
            p = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            sh.insert(p)
            live.add(p)
        rs = sh.replica_set
        kinds = [e.kind for r in rs.replicas for e in r.schedule.events]
        assert "corrupt-block" in kinds
        # every abort answers one scribble, and the rollback itself
        # cures write-rot: no peer copy is needed, no write is lost
        st = rs.stats()
        assert 0 < st["write_aborts"] <= kinds.count("corrupt-block")
        assert (st["block_repairs"], st["writes_rejected"]) == (0, 0)
        assert len(rs.live) == 2
        for r in rs.replicas:
            r.flush()
            assert disk_matches_crcs(r), r.replica_id
        assert replica_image(rs.replicas[0]) == replica_image(rs.replicas[1])
        assert sorted(sh.query4(0, 1000, 0, 1000)) == brute_4sided(
            live, 0, 1000, 0, 1000
        )

    def test_rebuild_salvages_or_inherits_donor_rot(self, rng):
        sh = make_shard(make_points(rng, 150), pool=8)
        rs = sh.replica_set
        r0, r1 = rs.replicas
        salvaged, inherited = sorted(r1.base_store.block_ids())[:2]
        good = r1.store.read(salvaged).records   # resident on the donor
        want_crc = r1.checksummed.crc_of(inherited)
        r1.base_store.scribble(salvaged, ["rot"])
        for r in (r0, r1):    # both copies rotten: nothing to salvage
            r.base_store.scribble(inherited, ["rot", r.replica_id])
        rs.kill(0)
        assert rs.rebuild_dead() == 1
        fresh = rs.replicas[0]
        assert fresh is not r0
        # the dead copy was good: clone and donor both get it
        assert fresh.base_store.peek(salvaged) == good
        assert r1.base_store.peek(salvaged) == good
        assert rs.block_repairs == 1   # the donor, repaired in place
        assert read_is_a_miss(r1, salvaged)
        # no good copy anywhere: the clone keeps the donor's CRC, so the
        # inherited rot stays detectable
        assert fresh.base_store.peek(inherited) == ("rot", 1)
        assert fresh.checksummed.crc_of(inherited) == want_crc
        assert not fresh.checksummed.verify(inherited)
        with pytest.raises(CorruptBlockError):
            fresh.checksummed.read(inherited)

    def test_rotten_pre_image_is_repaired_before_a_write_lands(self, rng):
        """A write over a block whose live bytes rotted at rest must not
        land without a pre-image: the rollback could not undo it."""
        sh = make_shard(make_points(rng, 150), pool=8)
        rs = sh.replica_set
        r0, r1 = rs.replicas
        buf = r0.structure._buffer_bid
        r0.store.read(buf)                      # a resident pool frame
        r0.base_store.scribble(buf, ["rot"])    # then rot at rest

        def doomed(structure):
            structure.insert(1.0, 1.0)
            next(r for r in rs.replicas if r.structure is structure).flush()
            raise TransientIOError("fails after the flush")

        with pytest.raises(ReplicaSetExhausted):
            rs.apply_write(doomed)
        assert r0.base_store.peek(buf) == r1.base_store.peek(buf)
        assert r0.checksummed.verify(buf)
        assert replica_image(r0) == replica_image(r1)
        for r in rs.replicas:
            assert (1.0, 1.0) not in r.structure.query(0, 1000, 0)
        st = rs.stats()
        assert st["writes_rejected"] == 1
        # r0's first attempt fails on its rotten pre-image, repaired
        # from r1, which earns a retry; the transient error mends
        # nothing, so that retry and r1's one attempt are the last
        assert st["write_aborts"] == 3
        assert st["block_repairs"] == 1   # r0's rotten pre-image
        assert st["write_aborts"] <= 2 * (st["block_repairs"] + 1)

    def test_rot_between_an_ops_read_and_write_needs_no_repair(self, rng):
        """Rot landing on a block after an op read it and before the op
        wrote it: the write takes the op's own verified read as its
        pre-image, so the abort restores good bytes, the retry needs no
        peer copy, and a snapshot opened before the op keeps its cut.
        The attempt fails on write-rot that the pre-ack sweep catches;
        the rollback mends it, which is what earns the retry."""
        pts = make_points(rng, 150)
        sh = make_shard(pts)          # no pool: reads reach the snapshots
        rs = sh.replica_set
        r0, r1 = rs.replicas
        buf = r0.structure._buffer_bid
        good = r0.base_store.peek(buf)
        frozen = sh.snapshot()
        armed, seen_at_abort = [True], []

        def rot_after_read(op, bid):
            if op == "read" and bid == buf and armed:
                armed.clear()
                r0.base_store.scribble(buf, ["rot"])

        def rots_once_on_r0(structure):
            structure.insert(1.0, 1.0)
            if structure is r0.structure and not seen_at_abort:
                seen_at_abort.append(r0.base_store.peek(buf))
                r0.base_store.scribble(buf, ["write-rot"])

        r0.base_store.add_observer(rot_after_read)
        rs.apply_write(rots_once_on_r0)
        assert not armed and seen_at_abort[0] not in (good, ("rot",))
        st = rs.stats()
        assert (st["write_aborts"], st["block_repairs"]) == (1, 0)
        assert st["pre_image_reads"] == 0
        assert disk_matches_crcs(r0)
        assert replica_image(r0) == replica_image(r1)
        assert (1.0, 1.0) in r0.structure.query(0, 1000, 0)
        assert sorted(frozen.all_points()) == sorted(pts)
        frozen.close()

    def test_engine_stats_sum_the_recovery_counts(self, rng):
        """``ServingEngine.stats()["replication"]`` holds every count a
        replica set reports, summed over shards (the factor is the
        largest shard's), and ``stats()["scrub"]`` reads the scrub
        counts from it."""
        eng = ServingEngine(make_points(rng, 300), n_shards=2,
                            block_size=16, backend="log",
                            replication_factor=2, pool_capacity=8)
        for sh in eng.router.shards:
            r0 = sh.replica_set.replicas[0]
            r0.base_store.scribble(r0.structure._buffer_bid, ["rot"])

        def doomed(structure):
            structure.insert(1.0, 1.0)
            raise TransientIOError("fails after the insert")

        for sh in eng.router.shards:
            with pytest.raises(ReplicaSetExhausted):
                sh.replica_set.apply_write(doomed)
        for sh in eng.router.shards:
            r1 = sh.replica_set.replicas[1]
            r1.base_store.scribble(r1.structure._buffer_bid, ["rot"])
        assert eng.scrub()["repairs"] == 2
        st = eng.stats()
        repl = st["replication"]
        per_shard = [s["replication"] for s in st["shards"]]
        assert set(repl) == {
            k for k, v in per_shard[0].items() if isinstance(v, int)
        }
        for key in repl.keys() - {"factor"}:
            assert repl[key] == sum(rs[key] for rs in per_shard), key
        assert repl["factor"] == 2
        for key in ("write_aborts", "block_repairs", "writes_rejected",
                    "scrub_repairs"):
            assert all(rs[key] > 0 for rs in per_shard), key
        assert st["scrub"] == {
            "cycles": 1,
            "blocks_checked": repl["scrub_blocks_checked"],
            "repairs": repl["scrub_repairs"],
            "unrepaired": repl["scrub_unrepaired"],
        }
        eng.close()


# ----------------------------------------------------------------------
# deadlines and degraded reads
# ----------------------------------------------------------------------
class CountdownDeadline(Deadline):
    """A deadline whose first ``k`` expiry checks pass and every later
    one fails -- expiry at a chosen check, independent of the clock."""

    def __init__(self, k):
        super().__init__(float("inf"))
        self.left = k

    @property
    def expired(self):
        self.left -= 1
        return self.left < 0

    def remaining(self):
        return 60.0


def slab_of(eng, p):
    return eng.router.shard_for_x(p[0]).shard_id


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

    def test_a_slab_runs_its_whole_queue_or_none_of_it(self, rng):
        """Expiring at every check in turn: each op on a served slab took
        effect, each op on a missing slab did not, and a query lacks
        exactly the missing slabs' points."""
        n_shards = 4
        pts = make_points(rng, 300)
        fresh = make_points(random.Random(5), 12)
        # inserts first, so a cut after a slab's first op would show
        ops = [("ins", p) for p in fresh] + [("del", p) for p in pts[:12]]
        ops += [("q3", (0, 1000, 500)), ("q4", (100, 900, 0, 600)),
                ("ins", (1.0, 1.0)), ("q3", (0, 1000, 0))]

        def engine():
            return ServingEngine(pts, n_shards=n_shards, block_size=16,
                                 backend="log", max_workers=1)

        full = engine()
        want = full.execute(ops).results
        full.close()
        for k in range(n_shards + 2):
            eng = engine()
            slabs = sorted(eng.executor.route(ops))
            assert slabs == list(range(n_shards))
            out = eng.execute(ops, deadline=CountdownDeadline(k))
            assert sorted(out.served_slabs + out.missing_slabs) == slabs
            served = set(out.served_slabs)
            live = set(eng.all_points())
            for i, (kind, arg) in enumerate(ops):
                if kind == "ins":
                    assert (arg in live) == (slab_of(eng, arg) in served)
                elif kind == "del":
                    ran = slab_of(eng, arg) in served
                    assert (arg not in live) == ran
                    assert out.results[i] == (True if ran else None)
                else:
                    assert out.results[i] == [
                        p for p in want[i] if slab_of(eng, p) in served
                    ], (k, i)
            # one check before fan-out, then one per task in shard order
            n_served = max(0, min(k - 1, n_shards))
            assert out.served_slabs == slabs[:n_served], k
            assert out.complete == (n_served == n_shards)
            eng.close()

    def test_lock_wait_past_the_deadline_leaves_the_slab_untouched(self, rng):
        eng = ServingEngine(make_points(rng, 200), n_shards=2,
                            block_size=16, backend="log")
        cut = eng.router.boundaries[0]
        p0, p1 = (cut / 2, 1.0), ((cut + 1000.0) / 2, 1.0)
        busy = eng.router.shards[1].lock
        assert busy.acquire_write(timeout=1.0)
        try:
            out = eng.execute([("ins", p0), ("ins", p1)],
                              deadline=Deadline.after(0.5))
        finally:
            busy.release_write()
        assert (out.served_slabs, out.missing_slabs) == ([0], [1])
        assert out.deadline_expired and not out.complete
        live = eng.all_points()
        assert p0 in live and p1 not in live
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
        ac = AdmissionController(max_inflight=1, max_queue=1,
                                 policy="block")
        assert ac.acquire()
        assert ac.acquire(max_wait=0.02) is False  # waited, timed out, shed
        ac.release()
        st = ac.snapshot()
        assert (st["shed"], st["shed_timed_out"]) == (1, 1)
        assert st["shed_rate"] == pytest.approx(0.5)

    def test_shed_rate_in_engine_stats(self, rng):
        eng = ServingEngine(make_points(rng, 60), n_shards=2,
                            block_size=16, backend="log", max_inflight=1)
        eng.execute([("q3", (0, 1000, 0))])
        assert eng.stats()["shed_rate"] == 0.0
        assert eng.admission.acquire()  # hold the only slot
        try:
            out = eng.execute([("ins", (1.0, 1.0))],
                              deadline=Deadline.after(0.05))
        finally:
            eng.admission.release()
        # the batch deadline bounded the admission wait: shed, not run
        assert isinstance(out, PartialResult) and out.deadline_expired
        assert out.served_slabs == [] and out.results == [None]
        st = eng.stats()
        assert st["admission"]["shed_timed_out"] == 1
        assert st["shed_rate"] == pytest.approx(1 / 3)
        assert (1.0, 1.0) not in eng.all_points()
        eng.close()

    def test_shed_batch_reports_its_admission_wait(self, rng):
        """A batch shed after waiting out its deadline in the admission
        queue took that long: ``wall_s`` reports the wait."""
        eng = ServingEngine(make_points(rng, 60), n_shards=2,
                            block_size=16, backend="log", max_inflight=1)
        assert eng.admission.acquire()  # hold the only slot
        try:
            t0 = time.perf_counter()
            out = eng.execute([("q3", (0, 1000, 0))],
                              deadline=Deadline.after(0.1))
            waited = time.perf_counter() - t0
        finally:
            eng.admission.release()
        assert isinstance(out, PartialResult) and out.served_slabs == []
        # the deadline was set just before the clock started, so the
        # wait may come in a hair under its 0.1 s budget
        assert 0.09 <= out.wall_s <= waited
        # an admitted batch reports the executor's time
        done = eng.execute([("q3", (0, 1000, 0))],
                           deadline=Deadline.after(60.0))
        assert done.complete and done.wall_s > 0.0
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

    def test_chaos_run_recovery_vector_is_pinned(self):
        """Every recovery count of the seeded chaos run, exactly: a
        recovery-policy change that keeps the answers right but shifts
        the work behind them shows up here."""
        *_, st = self._trace_run(2, 3, kill=True)
        assert st["replication"] == {
            "factor": 2, "live_replicas": 4, "failovers": 1, "rebuilds": 1,
            "rebuild_failures": 0, "read_fallbacks": 0, "write_aborts": 15,
            "block_repairs": 0, "writes_rejected": 0,
            "scrub_blocks_checked": 384, "scrub_repairs": 0,
            "scrub_unrepaired": 0, "breaker_opened": 0,
            "crc_mismatches": 0, "pre_image_reads": 23,
        }
        assert st["scrub"] == {
            "cycles": 6, "blocks_checked": 384, "repairs": 0, "unrepaired": 0,
        }
        assert st["total_replica_reads"] + st["total_replica_writes"] == 886

    def test_chaos_run_is_deterministic(self):
        a1 = self._trace_run(2, 3, kill=True)
        a2 = self._trace_run(2, 3, kill=True)
        assert a1[0] == a2[0] and a1[1] == a2[1]

    def test_pooled_rebuild_keeps_the_replica_chain(self, rng):
        """A replica rebuilt behind a pool gets the same chain as its
        peer -- pool capacity, policy and readahead, the retry budget
        -- and keeps the dead copy's own fault stream."""
        pts = make_points(rng, 400)
        eng = ServingEngine(
            pts, n_shards=2, block_size=16, backend="pst",
            replication_factor=2, pool_capacity=24, pool_policy="2q",
            readahead_window=2, fault_seed=9,
            fault_rates={"read_error_rate": 0.01, "transient_fraction": 1.0},
        )
        live = set(pts)
        for _ in range(60):
            p = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            eng.insert(*p)
            live.add(p)
        rs = eng.router.shards[1].replica_set
        dead = rs.replicas[0]
        eng.kill_replica(1, 0)
        assert eng.heal() == 1
        fresh, peer = rs.replicas
        assert fresh is not dead and fresh.alive and rs.primary is fresh

        def chain(r):
            layers, store = [], r.store
            while store is not None:
                layers.append(type(store).__name__)
                store = getattr(store, "_store", None)
            return layers

        def pool(r):
            snap = r.pool.snapshot()
            return snap["capacity"], snap["policy"], snap["readahead_window"]

        assert chain(fresh) == chain(peer) == [
            "BufferPool", "RetryingStore", "FaultyStore", "SnapshotStore",
            "ChecksummedStore", "BlockStore",
        ]
        assert pool(fresh) == pool(peer) == (24, "2q", 2)
        assert fresh.pool._store.max_attempts == 4
        assert peer.pool._store.max_attempts == 4
        assert fresh.faulty.schedule is dead.schedule
        assert fresh.schedule.seed == peer.schedule.seed
        assert (fresh.schedule.stream, peer.schedule.stream) == (0, 1)
        # the rebuilt replica serves first: its answers match brute force
        for _ in range(30):
            a, b = sorted((rng.uniform(0, 1000), rng.uniform(0, 1000)))
            c, d = sorted((rng.uniform(0, 1000), rng.uniform(0, 1000)))
            assert eng.query3(a, b, c) == brute_3sided(live, a, b, c)
            assert eng.execute([("q4", (a, b, c, d))]).results == [
                brute_4sided(live, a, b, c, d)
            ]
        assert eng.all_points() == sorted(live)
        eng.close()

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


# ----------------------------------------------------------------------
# a held snapshot across primary loss
# ----------------------------------------------------------------------
class TestSnapshotAcrossPrimaryLoss:
    """A snapshot is pinned to the chain that was shard 0's primary when
    it opened.  Killing that replica and rebuilding it leaves the old
    chain retired: the snapshot still answers its frozen cut from it,
    and a fault there reaches the snapshot reader with no failover."""

    def held_snapshot(self, rng):
        pts = make_points(rng, 400)
        eng = ServingEngine(pts, n_shards=2, block_size=16, backend="pst",
                            replication_factor=2)
        snap = eng.snapshot()
        retired = eng.router.shards[0].primary
        eng.kill_replica(0, 0)
        live = set(pts)
        for _ in range(200):
            p = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            eng.insert(*p)
            live.add(p)
        rs = eng.router.shards[0].replica_set
        assert rs.rebuilds == 1 and rs.replicas[0] is not retired
        assert eng.all_points() == sorted(live)
        return eng, pts, snap, retired

    def test_retired_chain_still_answers_the_frozen_cut(self, rng):
        eng, pts, snap, _retired = self.held_snapshot(rng)
        assert snap.count == len(pts)
        assert snap.all_points() == sorted(pts)
        assert snap.query4(0, 1000, 0, 1000) == brute_4sided(
            set(pts), 0, 1000, 0, 1000
        )
        snap.close()
        eng.close()

    def test_rot_on_the_retired_chain_fails_loudly(self, rng):
        eng, pts, snap, retired = self.held_snapshot(rng)
        read = []

        def watch(op, bid):
            if op == "read":
                read.append(bid)

        retired.base_store.add_observer(watch)
        assert snap.all_points() == sorted(pts)
        retired.base_store.remove_observer(watch)
        retired.base_store.scribble(read[-1], [("__bitrot__", 0)])
        with pytest.raises(CorruptBlockError):
            snap.all_points()
        # the live shards are unaffected: only the snapshot is pinned
        assert len(eng.all_points()) == eng.count
        snap.close()
        eng.close()
