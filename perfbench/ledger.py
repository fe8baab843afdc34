"""The per-layer ledger: turn one traced window into named metrics.

:class:`LayerLedger` brackets the exact-count window of the replay
engine.  ``start`` installs the span tracer (see :mod:`tracing`) and a
counting wrapper on the top store of every replica -- the calls the
structures make, i.e. logical block reads and writes -- and snapshots
the engine's own counters; ``stop`` removes everything again.
:meth:`LayerLedger.rows` derives the metrics the README's layer table
names, in that order.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from driver import replicas
from tracing import LAYERS, Tracer

Row = Tuple[str, float, str]

#: Layers whose self time already has a named metric in :meth:`rows`;
#: every other layer gets a ``<layer>.self_us_per_op`` row.
NAMED_SELF = {
    "serve.admission", "serve.executor", "serve.executor.route",
    "serve.locks", "serve.replication", "serve.snapshots",
    "core.static_index", "io.bufferpool", "io.checksum", "io.blockstore",
    "obs.metrics", "obs.spans",
}


class LayerLedger:
    def __init__(self, engine):
        self._engine = engine
        self._tracer = Tracer()
        self._stores: List[object] = []
        self._before: Dict[str, int] = {}
        self._after: Dict[str, int] = {}
        self.totals: Dict[str, object] = {}

    def _engine_counters(self) -> Dict[str, int]:
        out = {"hits": 0, "misses": 0, "fallbacks": 0}
        for sh in self._engine.router.shards:
            out["fallbacks"] += sh.replica_set.read_fallbacks
        for r in replicas(self._engine):
            if r.pool is not None:
                out["hits"] += r.pool.hits
                out["misses"] += r.pool.misses
        return out

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._tracer.calibrate()
        self._tracer.install()
        # after install, so the counted call enters the traced method
        for r in replicas(self._engine):
            self._stores.append(r.store)
            for name in ("read", "write"):
                setattr(r.store, name, self._tracer.counting(
                    getattr(r.store, name), f"logical_{name}"))
        self._before = self._engine_counters()

    def stop(self) -> None:
        self._after = self._engine_counters()
        for store in self._stores:
            for name in ("read", "write"):
                delattr(store, name)
        self._tracer.remove()
        self.totals = self._tracer.totals()
        self._live_at = self._tracer.count("live_at")
        self._contains = self._tracer.count("contains")
        self._logical_reads = self._tracer.count("logical_read")
        self._logical_writes = self._tracer.count("logical_write")

    def _layer_self_ns(self, layer: str) -> int:
        return sum(v for k, v in self.totals["self_ns"].items()
                   if k.rsplit(":", 1)[0] == layer)

    def layer_self_us_per_op(self, ops: int) -> Dict[str, float]:
        """Self time per op of every layer, for the largest-layer line."""
        return {layer: self._layer_self_ns(layer) * 1e-3 / ops
                for layer in LAYERS}

    # ------------------------------------------------------------------
    def rows(self, window: List[tuple], phase, untraced_ops_s: float,
             traced_ops_s: float) -> List[Row]:
        """Per-layer metrics over ``window`` (the traced ops, in order)."""
        t = self.totals
        self_ns: Dict[str, int] = t["self_ns"]
        incl_ns: Dict[str, int] = t["incl_ns"]
        calls: Dict[str, int] = t["calls"]

        layer_self = self._layer_self_ns

        def n(key: str) -> int:
            return calls.get(key, 0)

        def per(x: float, d: float) -> float:
            return x / d if d else 0.0

        us = 1e-3  # ns -> us
        ops = len(window)
        batches = len(phase.latencies)
        queries = sum(1 for kind, _ in window if kind in ("q3", "q4"))
        updates = ops - queries
        returned = phase.returned_points
        writes = n("serve.replication:apply_write")
        reads = n("serve.replication:read_any")
        logical_reads = self._logical_reads
        logical_writes = self._logical_writes
        hits = self._after["hits"] - self._before["hits"]
        misses = self._after["misses"] - self._before["misses"]
        snap_blocks = n("serve.snapshots:read") + n("serve.snapshots:write")
        crc_blocks = n("io.checksum:read") + n("io.checksum:write")
        store_blocks = n("io.blockstore:read") + n("io.blockstore:write")

        rows: List[Row] = [
            ("serve.admission.wait_us_per_batch",
             per(incl_ns.get("serve.admission:acquire", 0) * us, batches), "us"),
            ("serve.executor.route_us_per_batch",
             per(incl_ns.get("serve.executor.route:route", 0) * us, batches), "us"),
            ("serve.executor.self_us_per_batch",
             per(layer_self("serve.executor") * us, batches), "us"),
            ("serve.executor.shard_tasks_per_batch",
             per(phase.shard_tasks, batches), "count"),
            ("serve.locks.wait_us_per_batch",
             per((incl_ns.get("serve.locks:acquire_read", 0)
                  + incl_ns.get("serve.locks:acquire_write", 0)) * us, batches),
             "us"),
            ("serve.replication.apply_write_self_us_per_write",
             per(self_ns.get("serve.replication:apply_write", 0) * us, writes),
             "us"),
            ("serve.replication.read_any_self_us_per_read",
             per(self_ns.get("serve.replication:read_any", 0) * us, reads), "us"),
            ("serve.replication.read_fallbacks_per_op",
             per(self._after["fallbacks"] - self._before["fallbacks"], ops),
             "count"),
            ("serve.snapshots.epochs_per_write",
             per(n("serve.snapshots:open_epoch"), writes), "count"),
            ("serve.snapshots.self_us_per_block",
             per(layer_self("serve.snapshots") * us, snap_blocks), "us"),
            ("core.query_self_us_per_query",
             per(t["core_query_ns"] * us, queries), "us"),
            ("core.update_self_us_per_update",
             per(t["core_update_ns"] * us, updates), "us"),
            ("core.records_examined_per_result",
             per(self._contains, returned), "ratio"),
            ("core.static_index.self_us_per_query",
             per(layer_self("core.static_index") * us, queries), "us"),
            ("core.static_index.catalog_entries_tested_per_query",
             per(self._live_at, n("core.static_index:query")), "count"),
            ("io.logical_reads_per_op", per(logical_reads, ops), "count"),
            ("io.logical_writes_per_op", per(logical_writes, ops), "count"),
            ("io.bufferpool.hit_rate", per(hits, hits + misses), "ratio"),
            ("io.bufferpool.self_us_per_read",
             per(self_ns.get("io.bufferpool:read", 0) * us,
                 n("io.bufferpool:read")), "us"),
            ("io.checksum.self_us_per_block",
             per(layer_self("io.checksum") * us, crc_blocks), "us"),
            ("io.checksum.crc_computations_per_op",
             per(n("io.checksum:record_crc"), ops), "count"),
            ("io.blockstore.self_us_per_block",
             per(layer_self("io.blockstore") * us, store_blocks), "us"),
            ("obs.metrics.counter_lookups_per_op",
             per(n("obs.metrics:counter"), ops), "count"),
            ("obs.metrics.self_us_per_op",
             per(layer_self("obs.metrics") * us, ops), "us"),
            ("obs.spans.span_calls_per_block",
             per(n("obs.spans:span"), logical_reads + logical_writes), "count"),
            ("obs.spans.self_us_per_op",
             per(layer_self("obs.spans") * us, ops), "us"),
            ("trace.overhead_ratio", per(traced_ops_s, untraced_ops_s), "ratio"),
        ]
        rows += [(f"{layer}.self_us_per_op", per(layer_self(layer) * us, ops), "us")
                 for layer in LAYERS if layer not in NAMED_SELF]
        return rows
