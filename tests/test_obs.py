"""Tests for the observability layer (repro.obs).

Covers the three sub-modules:

- metrics: registry get-or-create semantics, label keying, snapshots
- spans: nesting, merge-by-name, and the exactness invariant (the sum
  of exclusive span counts plus the unattributed remainder equals the
  store's IOStats delta over the attachment window)
- export: versioned JSON round-trip, markdown rendering, and the
  compare() regression verdicts the CI gate relies on
"""

import json

import pytest

from repro.core.external_pst import ExternalPrioritySearchTree
from repro.io import BlockStore, BufferPool, ChecksummedStore, StoreLayer
from repro.io.stats import IOStats, Meter
from repro.obs.export import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    SchemaError,
    bench_payload,
    compare,
    load_bench_json,
    make_result,
    to_markdown,
    write_bench_json,
)
from repro.obs.metrics import DEFAULT_REGISTRY, MetricsRegistry, format_key
from repro.obs.spans import SpanRecorder, span
from repro.workloads import three_sided_queries, uniform_points


# ----------------------------------------------------------------------
# store / pool hook points
# ----------------------------------------------------------------------
class TestObserverHooks:
    def test_store_events_fire_in_order(self):
        store = BlockStore(4)
        events = []
        store.add_observer(lambda op, bid: events.append(op))
        bid = store.alloc()
        store.write(bid, [1])
        store.read(bid)
        store.free(bid)
        assert events == ["alloc", "write", "read", "free"]

    def test_events_carry_block_id(self):
        store = BlockStore(4)
        events = []
        store.add_observer(lambda op, bid: events.append((op, bid)))
        bid = store.alloc()
        store.write(bid, [1])
        assert ("write", bid) in events

    def test_remove_observer(self):
        store = BlockStore(4)
        events = []
        cb = lambda op, bid: events.append(op)  # noqa: E731
        store.add_observer(cb)
        bid = store.alloc()
        store.remove_observer(cb)
        store.write(bid, [1])
        assert events == ["alloc"]

    def test_observer_fires_after_stats_increment(self):
        store = BlockStore(4)
        seen = []
        store.add_observer(
            lambda op, bid: seen.append(store.stats.writes)
        )
        bid = store.alloc()
        store.write(bid, [1])
        # by the time the "write" event fires, the counter already moved
        assert seen[-1] == 1

    def test_pool_hit_and_miss_events(self):
        store = BlockStore(4)
        pool = BufferPool(store, capacity=2)
        events = []
        pool.add_observer(lambda op, bid: events.append(op))
        bid = pool.alloc()
        pool.write(bid, [1])
        pool.read(bid)          # cached: logical hit, no physical read
        pool.drop()
        pool.read(bid)          # cold: miss
        assert "hit" in events and "miss" in events

    def test_physical_store_resolves_through_pool(self):
        store = BlockStore(4)
        pool = BufferPool(store, capacity=2)
        assert pool.physical_store is store
        assert store.physical_store is store


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        c1 = reg.counter("splits", structure="pst")
        c2 = reg.counter("splits", structure="pst")
        assert c1 is c2
        c1.inc()
        c1.inc(3)
        assert c2.value == 4

    def test_labels_distinguish_metrics(self):
        reg = MetricsRegistry()
        a = reg.counter("splits", structure="pst", op="leaf")
        b = reg.counter("splits", structure="pst", op="internal")
        a.inc()
        assert b.value == 0
        assert len(reg) == 2

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("x", p="1", q="2")
        b = reg.counter("x", q="2", p="1")
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x", s="a")
        with pytest.raises(TypeError):
            reg.gauge("x", s="a")

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("hit_rate", structure="pool")
        g.set(0.5)
        g.set(0.75)
        assert g.value == 0.75

    def test_snapshot_sorted_and_rendered(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.counter("a", s="x").inc()
        snap = reg.snapshot()
        assert snap == {"a{s=x}": 1, "b": 2}
        assert list(snap) == ["a{s=x}", "b"]

    def test_format_key(self):
        reg = MetricsRegistry()
        c = reg.counter("splits", structure="pst", op="leaf")
        assert format_key(c.key) == "splits{op=leaf,structure=pst}"

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.clear()
        assert len(reg) == 0


class TestLibraryLeavesRegistryEmpty:
    """Each event is counted once, on the object that owns it: running
    the structures, the storage chain and the serving tier writes
    nothing into the process-global registry."""

    CHAOS_RATES = {
        "corrupt_rate": 0.02,
        "read_error_rate": 0.02,
        "write_error_rate": 0.02,
        "transient_fraction": 0.5,
    }

    @staticmethod
    def _churn(eng, rng, n):
        for _ in range(n):
            p = (rng.uniform(0, 1000), rng.uniform(0, 1000))
            a, c = rng.uniform(0, 800), rng.uniform(0, 800)
            eng.execute([("ins", p), ("q3", (a, a + 200, c)),
                         ("q4", (a, a + 200, c, c + 200)), ("del", p)])

    def test_no_configuration_writes_the_registry(self):
        import random

        from repro.core import ExternalRangeTree, FourSidedLayeredIndex
        from repro.geometry import FourSidedQuery
        from repro.resilience import (
            FaultSchedule,
            FaultyStore,
            JournaledStore,
            RetryingStore,
        )
        from repro.serve import Deadline, ServingEngine

        DEFAULT_REGISTRY.clear()
        pts = uniform_points(600, seed=5, extent=1000.0)
        rng = random.Random(11)   # not the points' seed: no duplicates

        # a log engine behind a 2Q pool with readahead
        with ServingEngine(pts, n_shards=2, block_size=16, backend="log",
                           pool_capacity=12, pool_policy="2q",
                           readahead_window=2) as eng:
            self._churn(eng, rng, 40)
            pools = [sh.primary.pool for sh in eng.router.shards]
            assert sum(p.prefetch_issued for p in pools) > 0

        # a coalescing pool draining its dirty set on one eviction
        disk = BlockStore(4)
        pool = BufferPool(disk, 3, coalesce_writes=True)
        bids = [disk.alloc() for _ in range(4)]
        for bid in bids[:3]:
            pool.write(bid, [bid])
        pool.read(bids[3])
        assert pool.coalesced_writes == 2

        # a replicated PST engine under chaos: kill, scrub, a held
        # snapshot across writes, a deadline batch
        with ServingEngine(pts, n_shards=2, block_size=16, backend="pst",
                           replication_factor=2, fault_seed=902,
                           fault_rates=dict(self.CHAOS_RATES)) as eng:
            self._churn(eng, rng, 20)
            eng.kill_replica(0, 0)
            with eng.snapshot() as snap:
                for _ in range(60):
                    eng.insert(rng.uniform(0, 1000), rng.uniform(0, 1000))
                assert snap.count == len(pts)
                assert snap.all_points() == sorted(pts)
            secondary = eng.router.shards[1].replica_set.replicas[1]
            secondary.flush()
            rot = next(b for b in sorted(secondary.checksummed.block_ids())
                       if secondary.checksummed.crc_of(b) is not None)
            secondary.base_store.scribble(rot, [("bitrot", rot)])
            assert eng.scrub()["repairs"] == 1
            res = eng.execute([("q3", (0, 1000, 0))],
                              deadline=Deadline.after(60.0))
            assert res.complete
            assert eng.execute([("q3", (0, 1000, 0))],
                               deadline=Deadline.after(0.0)).deadline_expired
            assert eng.admission.acquire()   # hold every slot
            try:
                for _ in range(eng.admission.max_inflight - 1):
                    assert eng.admission.acquire()
                shed = eng.execute([("q3", (0, 1000, 0))],
                                   deadline=Deadline.after(0.01))
            finally:
                for _ in range(eng.admission.max_inflight):
                    eng.admission.release()
            assert shed.served_slabs == []
            repl = eng.stats()["replication"]
            assert repl["failovers"] >= 1 and repl["rebuilds"] >= 1

        # the static structures
        rt = ExternalRangeTree(BlockStore(16), pts[:300])
        for p in pts[300:400]:
            rt.insert(*p)
        assert rt.query(0, 500, 0, 500)
        fs = FourSidedLayeredIndex(pts, 16)
        assert fs.query(FourSidedQuery(100, 900, 100, 900))[0]

        # a journal transaction plus recovery, and a retried read
        faulty = FaultyStore(BlockStore(16), FaultSchedule(0))
        js = JournaledStore(faulty, log_allocs=True)
        with js.transaction({"n": 1}):
            js.write(js.alloc(), [1])
        with pytest.raises(RuntimeError):
            with js.transaction({"n": 2}):
                js.write(js.alloc(), [2])
                raise RuntimeError("aborted")
        assert JournaledStore.attach(faulty, js.anchor_bids).recover() == {
            "n": 1
        }
        schedule = FaultSchedule(0, read_error_rate=1.0, max_faults=2)
        retrying = RetryingStore(FaultyStore(BlockStore(8), schedule), 4)
        b = retrying.alloc()
        retrying.write(b, [7])
        assert retrying.read(b).records == (7,)
        assert len(schedule.events) == 2

        assert len(DEFAULT_REGISTRY) == 0, DEFAULT_REGISTRY.snapshot()


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _traffic(store, n_blocks=3):
    bids = [store.alloc() for _ in range(n_blocks)]
    for bid in bids:
        store.write(bid, [bid])
    for bid in bids:
        store.read(bid)
    return bids


class TestSpans:
    def test_span_helper_is_null_without_recorder(self):
        store = BlockStore(4)
        with span(store, "anything") as sp:
            assert sp is None

    def test_attribution_and_nesting(self):
        store = BlockStore(4)
        rec = SpanRecorder(store)
        with rec:
            with rec.span("outer"):
                _traffic(store, 2)
                with rec.span("inner"):
                    _traffic(store, 1)
        outer = rec.root.children["outer"]
        inner = outer.children["inner"]
        assert outer.stats.writes == 2 and outer.stats.reads == 2
        assert inner.stats.writes == 1 and inner.stats.reads == 1
        # inclusive totals roll the child up
        assert outer.total.writes == 3

    def test_same_name_spans_merge(self):
        store = BlockStore(4)
        rec = SpanRecorder(store)
        with rec:
            for _ in range(4):
                with rec.span("leaf"):
                    _traffic(store, 1)
        leaf = rec.root.children["leaf"]
        assert leaf.entries == 4
        assert leaf.stats.reads == 4
        assert len(rec.root.children) == 1

    def test_unattributed_remainder(self):
        store = BlockStore(4)
        rec = SpanRecorder(store)
        with rec:
            _traffic(store, 2)          # outside any span
            with rec.span("inside"):
                _traffic(store, 1)
        assert rec.unattributed.reads == 2
        assert rec.root.children["inside"].stats.reads == 1

    def test_exactness_total_equals_meter_delta(self):
        store = BlockStore(4)
        rec = SpanRecorder(store)
        with Meter(store) as m:
            with rec:
                _traffic(store, 2)
                with rec.span("a"):
                    _traffic(store, 3)
                    with rec.span("b"):
                        _traffic(store, 1)
        assert rec.total == m.delta

    def test_detach_stops_observing(self):
        store = BlockStore(4)
        rec = SpanRecorder(store)
        with rec:
            _traffic(store, 1)
        _traffic(store, 5)              # after detach: not observed
        assert rec.total.reads == 1

    def test_double_attach_raises(self):
        store = BlockStore(4)
        rec1 = SpanRecorder(store).attach()
        try:
            with pytest.raises(RuntimeError):
                SpanRecorder(store).attach()
        finally:
            rec1.detach()

    def test_span_helper_through_pool_wrapper(self):
        # the structure holds the raw store while the recorder is
        # attached to the pool (or vice versa): span() must find it
        store = BlockStore(4)
        pool = BufferPool(store, capacity=2)
        rec = SpanRecorder(pool)
        with rec:
            with span(store, "via-raw-store"):
                _traffic(store, 1)
        assert rec.root.children["via-raw-store"].stats.reads == 1

    def test_pool_hits_attributed_per_span(self):
        store = BlockStore(4)
        pool = BufferPool(store, capacity=4)
        bid = pool.alloc()
        pool.write(bid, [1])
        rec = SpanRecorder(pool)
        with rec:
            with rec.span("hot"):
                pool.read(bid)
                pool.read(bid)
        hot = rec.root.children["hot"]
        assert hot.pool_hits == 2
        assert hot.stats.reads == 0     # served from cache: no physical I/O

    def test_non_pool_layer_adds_one_observer(self):
        # a checksum layer forwards add_observer to the block store:
        # the recorder must subscribe there once, not once per handler
        store = BlockStore(4)
        rec = SpanRecorder(ChecksummedStore(store))
        with rec:
            assert len(store._observers) == 1
            with rec.span("io"):
                _traffic(rec._storage, 2)
        assert store._observers == []
        assert rec.root.children["io"].stats.reads == 2

    def test_pool_events_reach_recorder_on_pool(self):
        store = BlockStore(4)
        pool = BufferPool(store, capacity=4)
        rec = SpanRecorder(pool)
        with rec:
            assert len(store._observers) == 1
            assert len(pool._observers) == 1
            with rec.span("io"):
                _traffic(pool, 2)
        assert store._observers == [] and pool._observers == []
        io = rec.root.children["io"]
        assert io.pool_hits == 2 and io.stats.reads == 0

    def test_pool_events_reach_recorder_above_pool(self):
        # a layer stacked over the pool: hits and misses still land on
        # the recorder's spans, and detach removes every subscription
        store = BlockStore(4)
        pool = BufferPool(store, capacity=1)
        top = StoreLayer(pool)
        bids = _traffic(top, 2)          # capacity 1: the first is evicted
        rec = SpanRecorder(top)
        with rec:
            assert len(store._observers) == 1
            assert len(pool._observers) == 1
            with rec.span("io"):
                top.read(bids[1])
                top.read(bids[0])
        assert store._observers == [] and pool._observers == []
        io = rec.root.children["io"]
        assert (io.pool_hits, io.pool_misses) == (1, 1)
        assert io.stats.reads == 1

    def test_as_dict_and_report(self):
        store = BlockStore(4)
        rec = SpanRecorder(store)
        with rec:
            with rec.span("phase"):
                _traffic(store, 1)
        d = rec.as_dict()
        assert d["name"] == "total"
        assert d["children"][0]["name"] == "phase"
        assert d["children"][0]["self"]["reads"] == 1
        report = rec.format_report()
        assert "phase" in report and "reads" in report


class TestInstrumentedPST:
    """The exactness invariant on the real instrumented structure."""

    def _build(self, n=1500):
        store = BlockStore(16)
        pts = uniform_points(n, seed=7)
        pst = ExternalPrioritySearchTree(store, pts)
        return store, pts, pst

    def test_query_phases_sum_exactly_to_store_delta(self):
        store, pts, pst = self._build()
        qs = three_sided_queries(pts, 10, seed=8, target_frac=0.02)
        rec = SpanRecorder(store)
        with Meter(store) as m:
            with rec:
                for q in qs:
                    pst.query(q.a, q.b, q.c)
        # every physical I/O is attributed to a named phase...
        assert rec.total == m.delta
        # ...and nothing leaks outside the instrumented spans
        assert rec.unattributed == IOStats()
        names = set(rec.root.children)
        assert "pst.query.descend" in names
        assert m.delta.reads > 0

    def test_insert_phases_sum_exactly_to_store_delta(self):
        store, pts, pst = self._build()
        fresh = [(x + 2e6, y) for x, y in uniform_points(40, seed=9)]
        rec = SpanRecorder(store)
        with Meter(store) as m:
            with rec:
                for p in fresh:
                    pst.insert(*p)
        assert rec.total == m.delta
        assert rec.unattributed == IOStats()
        assert "pst.insert.descend" in rec.root.children

    def test_uninstrumented_runs_identically(self):
        # instrumentation must not change I/O counts when off
        store1, pts, pst1 = self._build()
        store2 = BlockStore(16)
        pst2 = ExternalPrioritySearchTree(store2, pts)
        qs = three_sided_queries(pts, 5, seed=10, target_frac=0.02)
        rec = SpanRecorder(store1)
        with Meter(store1) as m1, Meter(store2) as m2:
            with rec:
                for q in qs:
                    pst1.query(q.a, q.b, q.c)
            for q in qs:
                pst2.query(q.a, q.b, q.c)
        assert m1.delta == m2.delta


# ----------------------------------------------------------------------
# export: schema, round-trip, compare
# ----------------------------------------------------------------------
def _payload(gate_a=10, gate_b=7.5):
    return bench_payload(
        {
            "E1": make_result(
                "[E1] demo", ["n", "io"], [[1, gate_a]],
                gate={"io_a": gate_a, "io_b": gate_b},
            ),
        },
        tag="test",
    )


class TestExport:
    def test_schema_constants(self):
        p = _payload()
        assert p["schema"] == SCHEMA_NAME == "repro-bench"
        assert p["schema_version"] == SCHEMA_VERSION == 1

    def test_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_t.json"
        write_bench_json(
            {"E1": make_result("[E1] demo", ["n"], [[1]],
                               gate={"io": 3})},
            path, tag="t",
        )
        loaded = load_bench_json(path)
        assert loaded["experiments"]["E1"]["gate"] == {"io": 3}
        assert loaded["tag"] == "t"

    def test_output_is_deterministic(self, tmp_path):
        exps = {"E1": make_result("[E1] demo", ["n"], [[1]], gate={"io": 3})}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_bench_json(exps, p1, tag="t")
        write_bench_json(exps, p2, tag="t")
        assert p1.read_text() == p2.read_text()
        # no timestamps anywhere
        assert "time" not in p1.read_text()

    def test_non_numeric_gate_rejected(self):
        with pytest.raises(TypeError):
            make_result("t", ["h"], [[1]], gate={"io": "twelve"})

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other", "schema_version": 1}))
        with pytest.raises(SchemaError):
            load_bench_json(path)

    def test_load_rejects_future_version(self, tmp_path):
        p = _payload()
        p["schema_version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(p))
        with pytest.raises(SchemaError):
            load_bench_json(path)

    def test_markdown_contains_tables_and_gates(self):
        md = to_markdown(_payload())
        assert "| n | io |" in md
        assert "`io_a` = 10" in md

    def test_perf_exported_rendered_never_gated(self, tmp_path):
        entry = make_result(
            "t", ["h"], [[1]], gate={"io": 3},
            perf={"throughput_ops_s": 412.5},
        )
        assert entry["perf"] == {"throughput_ops_s": 412.5}
        path = tmp_path / "BENCH_p.json"
        write_bench_json({"S1": entry}, path, tag="p")
        loaded = load_bench_json(path)  # schema accepts the perf section
        md = to_markdown(loaded)
        assert "wall-clock (not gated)" in md
        assert "`throughput_ops_s` | 412.5" in md
        # the regression gate never sees perf values
        old = bench_payload({"S1": entry}, tag="a")
        new = bench_payload(
            {"S1": make_result("t", ["h"], [[1]], gate={"io": 3},
                               perf={"throughput_ops_s": 9.0})},
            tag="b",
        )
        assert compare(old, new, tolerance_pct=0.0).ok(strict=True)

    def test_non_numeric_perf_rejected(self):
        with pytest.raises(TypeError):
            make_result("t", ["h"], [[1]], perf={"p50": "fast"})


class TestCompare:
    def test_identical_passes(self):
        old = _payload()
        res = compare(old, _payload(), tolerance_pct=0.0)
        assert res.ok()
        assert "PASS" in res.summary()

    def test_regression_fails(self):
        res = compare(_payload(gate_a=10), _payload(gate_a=11),
                      tolerance_pct=5.0)
        assert not res.ok()
        assert res.regressions and res.regressions[0].key == "io_a"
        assert "FAIL" in res.summary()

    def test_regression_within_tolerance_passes(self):
        res = compare(_payload(gate_a=100), _payload(gate_a=101),
                      tolerance_pct=2.0)
        assert res.ok()

    def test_improvement_passes_unless_strict(self):
        res = compare(_payload(gate_a=10), _payload(gate_a=5),
                      tolerance_pct=0.0)
        assert res.ok()
        assert res.improvements
        assert not res.ok(strict=True)

    def test_missing_experiment_fails(self):
        old = _payload()
        new = bench_payload({}, tag="test")
        res = compare(old, new, tolerance_pct=100.0)
        assert not res.ok()
        assert res.missing_experiments == ["E1"]

    def test_missing_gate_key_fails(self):
        old = _payload()
        new = bench_payload(
            {"E1": make_result("[E1] demo", ["n"], [[1]],
                               gate={"io_a": 10})},
            tag="test",
        )
        res = compare(old, new, tolerance_pct=100.0)
        assert not res.ok()
        assert "E1.io_b" in res.missing_gates

    def test_added_experiment_is_not_a_failure(self):
        old = bench_payload({}, tag="test")
        res = compare(old, _payload(), tolerance_pct=0.0)
        assert res.ok()
        assert res.added_experiments == ["E1"]

    def test_zero_baseline_any_growth_regresses(self):
        res = compare(_payload(gate_a=0), _payload(gate_a=1),
                      tolerance_pct=50.0)
        assert not res.ok()
