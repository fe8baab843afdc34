"""Tests for the access-trace recorder and the self-test harness."""

import pytest

from repro.io import BlockStore
from repro.io.trace import TraceRecorder
from repro.core.external_pst import ExternalPrioritySearchTree
from repro.selftest import run_selftest
from tests.conftest import make_points


class TestTraceRecorder:
    def test_protocol_passthrough(self):
        store = BlockStore(8)
        rec = TraceRecorder(store)
        bid = rec.alloc()
        rec.write(bid, [1, 2])
        assert rec.read(bid).records == (1, 2)
        assert rec.block_size == 8
        assert rec.blocks_in_use == 1
        rec.free(bid)
        assert rec.blocks_in_use == 0

    def test_trace_order(self):
        store = BlockStore(8)
        rec = TraceRecorder(store)
        a = rec.alloc()
        rec.write(a, [1])
        rec.read(a)
        assert rec.trace == [("a", a), ("w", a), ("r", a)]

    def test_summary_counts(self):
        store = BlockStore(8)
        rec = TraceRecorder(store)
        bids = [rec.alloc() for _ in range(3)]
        for b in bids:
            rec.write(b, [b])
        rec.clear()
        rec.read(bids[0])
        rec.read(bids[1])       # sequential (bid + 1)
        rec.read(bids[0])       # repeat, non-sequential
        s = rec.summary()
        assert s.reads == 3
        assert s.distinct_blocks == 2
        assert s.sequential_reads == 1
        assert s.repeat_reads == 1
        assert 0 < s.sequential_fraction < 1
        assert s.reread_fraction == pytest.approx(1 / 3)

    def test_run_lengths(self):
        store = BlockStore(8)
        rec = TraceRecorder(store)
        bids = [rec.alloc() for _ in range(6)]
        for b in bids:
            rec.write(b, [b])
        rec.clear()
        for b in bids[:4]:
            rec.read(b)         # run of 4
        rec.read(bids[0])       # run of 1
        rec.read(bids[5])       # run of 1
        assert rec.read_run_lengths() == [4, 1, 1]

    def test_empty_summary(self):
        rec = TraceRecorder(BlockStore(8))
        s = rec.summary()
        assert s.reads == 0 and s.sequential_fraction == 0.0

    def test_structures_run_over_recorder(self, rng):
        """Any structure runs unchanged over the recorder."""
        store = BlockStore(16)
        rec = TraceRecorder(store)
        pts = make_points(rng, 300)
        pst = ExternalPrioritySearchTree(rec, pts)
        rec.clear()
        got = pst.query(100, 600, 500)
        want = sorted(p for p in pts if 100 <= p[0] <= 600 and p[1] >= 500)
        assert sorted(got) == want
        s = rec.summary()
        assert s.reads > 0
        assert s.distinct_blocks <= s.reads
        assert s.writes == 0   # queries never write


class TestSelftest:
    def test_selftest_passes(self):
        assert run_selftest(n=250, seed=1) == []

    def test_selftest_deterministic(self):
        assert run_selftest(n=150, seed=2) == run_selftest(n=150, seed=2)
