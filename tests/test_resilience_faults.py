"""FaultSchedule / FaultyStore: determinism, fault kinds, zero-I/O.

The fault layer's contract is that it is a *pure function* of
``(seed, configuration, operation sequence)``: the golden-replay test
pins the exact fault log bytes of a fixed drive, and the determinism
test asserts byte-identity across two independent runs.
"""

import pytest

from repro.io import BlockStore
from repro.resilience import (
    FaultSchedule,
    FaultyStore,
    PermanentIOError,
    SimulatedCrash,
    TransientIOError,
)
from repro.resilience.errors import FaultInjectionError


def drive(schedule, n=60):
    """A fixed op sequence; injected faults are swallowed so the
    sequence of *attempted* operations is identical across runs."""
    store = FaultyStore(BlockStore(8), schedule)
    bids = []
    for i in range(n):
        try:
            b = store.alloc()
            store.write(b, [("r", i), ("r", i + 1)])
            bids.append(b)
            if bids and i % 3 == 0:
                store.read(bids[i % len(bids)])
            if i % 5 == 4:
                store.crash_hook("drv.step")
        except (FaultInjectionError, SimulatedCrash):
            pass
    return store


def mixed_schedule(seed=42):
    return FaultSchedule(
        seed,
        read_error_rate=0.2,
        write_error_rate=0.15,
        torn_write_rate=0.1,
        crash_rate=0.02,
        transient_fraction=0.5,
        crash_at_points=(2, 7),
    )


GOLDEN_LOG = """\
00000 kind=write-transient at=4:write bid=1 detail=
00001 kind=crash-op at=9:read bid=0 detail=rate
00002 kind=torn-stale at=13:write bid=5 detail=
00003 kind=write-transient at=20:write bid=8 detail=
00004 kind=write-transient at=22:write bid=9 detail=
00005 kind=read-transient at=43:read bid=4 detail=
00006 kind=write-transient at=45:write bid=19 detail=
00007 kind=crash-op at=48:alloc bid=- detail=rate
00008 kind=crash-point at=2:point bid=- detail=drv.step
00009 kind=crash-op at=61:write bid=26 detail=rate
00010 kind=crash-op at=63:write bid=27 detail=rate
00011 kind=write-transient at=67:write bid=29 detail=
00012 kind=write-transient at=69:write bid=30 detail=
00013 kind=write-transient at=76:write bid=33 detail=
00014 kind=read-transient at=81:read bid=14 detail=
00015 kind=torn-stale at=90:write bid=39 detail=
00016 kind=torn-truncated at=97:write bid=42 detail=u=0.836028
00017 kind=write-transient at=101:write bid=44 detail=
00018 kind=write-transient at=112:write bid=49 detail=
00019 kind=write-permanent at=114:write bid=50 detail=
00020 kind=crash-point at=7:point bid=- detail=drv.step
00021 kind=crash-op at=131:alloc bid=- detail=rate
"""


class TestDeterminism:
    def test_same_seed_byte_identical_log(self):
        a, b = mixed_schedule(), mixed_schedule()
        drive(a)
        drive(b)
        assert a.log_bytes() == b.log_bytes()
        assert a.log_bytes()  # the mixed schedule does inject faults

    def test_different_seed_different_log(self):
        a, b = mixed_schedule(42), mixed_schedule(43)
        drive(a)
        drive(b)
        assert a.log_bytes() != b.log_bytes()

    def test_golden_replay(self):
        """Fixed seed => this exact fault log, byte for byte, forever."""
        s = mixed_schedule()
        drive(s)
        assert s.log_text() == GOLDEN_LOG
        assert s.ops_seen == 132
        assert s.points_seen == 8

    def test_event_render_roundtrip_stable(self):
        s = mixed_schedule()
        drive(s)
        assert s.log_lines() == [e.render() for e in s.events]
        assert s.log_text().encode("utf-8") == s.log_bytes()


class TestScheduleValidation:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultSchedule(0, read_error_rate=1.5)
        with pytest.raises(ValueError):
            FaultSchedule(0, transient_fraction=-0.1)

    def test_empty_schedule_never_faults(self):
        s = FaultSchedule(0)
        drive(s)
        assert s.events == []


class TestFaultKinds:
    def test_transient_read_then_success(self):
        s = FaultSchedule(0, read_error_rate=1.0, max_faults=1)
        store = FaultyStore(BlockStore(8), s)
        b = store.alloc()
        store.write(b, [1, 2])
        with pytest.raises(TransientIOError):
            store.read(b)
        assert list(store.read(b).records) == [1, 2]  # retry succeeds

    def test_permanent_read_latches(self):
        s = FaultSchedule(
            0, read_error_rate=1.0, transient_fraction=0.0, max_faults=1
        )
        store = FaultyStore(BlockStore(8), s)
        b = store.alloc()
        store.write(b, [1])
        with pytest.raises(PermanentIOError):
            store.read(b)
        # latched: fails forever, even though the fault budget is spent
        with pytest.raises(PermanentIOError):
            store.read(b)
        assert store.peek(b) == (1,)  # the data itself is intact

    def test_write_error_leaves_block_untouched(self):
        raw = BlockStore(8)
        s = FaultSchedule(0, write_error_rate=1.0, max_faults=1)
        store = FaultyStore(raw, s)
        b = store.alloc()
        raw.write(b, [1])  # seed the block below the fault layer
        with pytest.raises(TransientIOError):
            store.write(b, [2])
        assert store.peek(b) == (1,)
        store.write(b, [2])  # budget spent: goes through
        assert store.peek(b) == (2,)

    def test_torn_stale_write(self):
        raw = BlockStore(8)
        s = FaultSchedule(1, torn_write_rate=1.0, max_faults=1)
        store = FaultyStore(raw, s)
        b = store.alloc()
        raw.write(b, ["old"])  # seed the block below the fault layer
        # find the torn variant this seed draws; both crash the process
        with pytest.raises(SimulatedCrash):
            store.write(b, ["new1", "new2", "new3", "new4"])
        after = raw.peek(b)
        kind = s.events[-1].kind
        if kind == "torn-stale":
            assert after == ("old",)
        else:
            assert kind == "torn-truncated"
            assert after == ("new1", "new2", "new3", "new4")[: len(after)]
            assert len(after) < 4

    def test_torn_truncated_prefix(self):
        # scan seeds until the first torn write draws the truncated branch
        for seed in range(50):
            s = FaultSchedule(seed, torn_write_rate=1.0, max_faults=1)
            raw = BlockStore(8)
            store = FaultyStore(raw, s)
            b = store.alloc()
            raw.write(b, ["old"])
            with pytest.raises(SimulatedCrash):
                store.write(b, ["a", "b", "c", "d", "e", "f"])
            if s.events[-1].kind == "torn-truncated":
                after = store.peek(b)
                assert after == ("a", "b", "c", "d", "e", "f")[: len(after)]
                return
        pytest.fail("no seed in range drew the truncated branch")

    def test_crash_site_fires_once(self):
        s = FaultSchedule(0, crash_at_ops=(1,))
        store = FaultyStore(BlockStore(8), s)
        b = store.alloc()             # op 0
        with pytest.raises(SimulatedCrash):
            store.write(b, [1])       # op 1: dies before the write
        assert store.peek(b) == ()    # nothing reached the disk
        store.write(b, [1])           # site consumed: succeeds
        assert store.peek(b) == (1,)

    def test_crash_point_site_fires_once(self):
        s = FaultSchedule(0, crash_at_points=(1,))
        store = FaultyStore(BlockStore(8), s)
        store.crash_hook("a")         # point 0: survives
        with pytest.raises(SimulatedCrash) as ei:
            store.crash_hook("b")     # point 1: dies
        assert ei.value.site == ("point", 1, "b")
        store.crash_hook("c")         # consumed


class TestZeroOverhead:
    def test_no_faults_means_zero_added_physical_io(self):
        """The wrapper stack adds no physical I/O when nothing faults."""
        plain = BlockStore(16)
        raw = BlockStore(16)
        faulty = FaultyStore(raw, FaultSchedule(0))

        def workload(store):
            bids = [store.alloc() for _ in range(20)]
            for i, b in enumerate(bids):
                store.write(b, [i])
            for b in bids:
                store.read(b)
            for b in bids[::2]:
                store.free(b)

        workload(plain)
        workload(faulty)
        assert raw.stats.reads == plain.stats.reads
        assert raw.stats.writes == plain.stats.writes
        assert raw.stats.allocs == plain.stats.allocs
        assert raw.stats.frees == plain.stats.frees

    def test_fault_metrics_counted(self):
        s = FaultSchedule(0, read_error_rate=1.0, max_faults=2)
        store = FaultyStore(BlockStore(8), s)
        b = store.alloc()
        store.write(b, [1])
        for _ in range(2):
            with pytest.raises(TransientIOError):
                store.read(b)
        assert [e.kind for e in s.events] == ["read-transient"] * 2
