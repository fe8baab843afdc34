"""Runtime span tracing of the serving stack's layers, from the outside.

Nothing under ``src/`` knows about this module: :class:`Tracer` wraps
the *public* functions of each layer at runtime (class attributes and
module-level names) and restores the originals on :meth:`Tracer.remove`.

Every wrapped call is a span: layer, start, end, and the span that was
open on the same thread when it started.  A span's *self time* is its
duration minus the union of the intervals its child spans cover.  Shard
tasks run on executor threads, so their outermost spans are adopted as
children of the ``BatchExecutor.execute`` span that fanned them out;
those children overlap each other, hence the union rather than the sum.
With one client in a closed loop at most one batch is in flight, so the
adopting span is unambiguous.

The wrapper's own cost is measured once (:meth:`Tracer.calibrate`) and
taken off the self time of the span that pays it, so hot leaf layers
do not inflate their callers.  Hot predicates (``CatalogEntry.live_at``,
``*Query.contains``) get a bare counting wrapper instead of a span.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

# (layer, owner, attribute names) -- owner is "module:Class" or "module"
SPANNED: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("serve.engine", "repro.serve.engine:ServingEngine", ("execute",)),
    ("serve.admission", "repro.serve.admission:AdmissionController",
     ("acquire", "release")),
    ("serve.executor", "repro.serve.executor:BatchExecutor", ("execute",)),
    ("serve.executor.route", "repro.serve.executor:BatchExecutor", ("route",)),
    ("serve.locks", "repro.serve.locks:ReadWriteLock",
     ("acquire_read", "acquire_write", "release_read", "release_write")),
    ("serve.shards", "repro.serve.shards:Shard",
     ("insert", "delete", "query3", "query4")),
    ("serve.shards", "repro.serve.shards:SlabRouter",
     ("shard_for_x", "shards_for_range")),
    ("serve.replication", "repro.serve.replication:ReplicaSet",
     ("apply_write", "read_any", "rebuild_dead", "heal_latched")),
    ("serve.replication", "repro.serve.replication:Replica",
     ("flush", "write_mark")),
    ("serve.replication", "repro.serve.replication:CircuitBreaker",
     ("allow", "record_success", "record_failure")),
    ("serve.snapshots", "repro.serve.snapshots:SnapshotStore",
     ("read", "write", "alloc", "free", "peek", "flush", "open_epoch",
      "close_epoch", "epoch_writes")),
    ("core.log_method", "repro.core.log_method:LogMethodThreeSidedIndex",
     ("query", "insert", "delete", "rebuild", "all_points", "snapshot_meta")),
    ("core.static_index", "repro.core.static_index:StaticThreeSidedIndex",
     ("__init__", "query", "points", "destroy", "snapshot_meta")),
    ("core.external_pst", "repro.core.external_pst:ExternalPrioritySearchTree",
     ("query", "insert", "delete", "refill_deficit", "promote_once",
      "snapshot_meta")),
    ("core.small_structure", "repro.core.small_structure:SmallThreeSidedStructure",
     ("query", "insert", "delete", "report_x_range", "top", "top_in_x_range",
      "rebuild", "snapshot_meta")),
    ("core.substrates", "repro.substrates.blocked_list:BlockedSequence",
     ("attach", "from_sorted", "insert", "remove", "pop_top", "peek_top",
      "scan_top_while", "scan_all", "destroy")),
    ("io.bufferpool", "repro.io.bufferpool:BufferPool",
     ("read", "write", "alloc", "free", "flush", "prefetch_hint", "pin",
      "unpin", "invalidate")),
    ("io.checksum", "repro.io.checksum:ChecksummedStore",
     ("read", "write", "alloc", "free", "peek", "flush", "verify")),
    ("io.blockstore", "repro.io.blockstore:BlockStore",
     ("read", "write", "alloc", "free", "peek", "flush")),
    ("obs.metrics", "repro.obs.metrics:Counter", ("inc",)),
    ("obs.metrics", "repro.obs.metrics:Gauge", ("set",)),
]

# module-level functions, patched by name in every repro module that
# imported them (``from repro.obs.metrics import counter`` binds a copy)
SPANNED_FUNCTIONS: List[Tuple[str, str, str]] = [
    ("obs.metrics", "repro.obs.metrics", "counter"),
    ("obs.metrics", "repro.obs.metrics", "gauge"),
    ("obs.spans", "repro.obs.spans", "span"),
    ("io.checksum", "repro.io.checksum", "record_crc"),
]

#: Sub-layers in report order.  ``core`` is every ``core.*`` row.
LAYERS = [
    "serve.engine", "serve.admission", "serve.executor",
    "serve.executor.route", "serve.locks", "serve.shards",
    "serve.replication", "serve.snapshots", "core.log_method",
    "core.static_index", "core.external_pst", "core.small_structure",
    "core.substrates", "io.bufferpool", "io.checksum", "io.blockstore",
    "obs.metrics", "obs.spans",
]

def _resolve(owner: str):
    mod_name, _, cls = owner.partition(":")
    mod = sys.modules.get(mod_name) or __import__(mod_name, fromlist=["_"])
    return getattr(mod, cls) if cls else mod


class _ThreadState:
    __slots__ = ("stack", "self_ns", "incl_ns", "calls", "core_depth",
                 "core_query", "core_q_ns", "core_u_ns")

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.incl_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.core_depth = 0
        self.core_query = False
        self.core_q_ns = 0
        self.core_u_ns = 0


class Tracer:
    """Install span wrappers on the layers; aggregate self time per layer.

    Use :meth:`install`, run the traced batches, then :meth:`remove`
    and read :meth:`totals`.  Aggregates are per-thread and merged at
    read time, so the executor threads never contend on a shared dict.
    """

    def __init__(self) -> None:
        self._tls = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self._adopter: Optional[list] = None
        self._counts: Dict[str, "itertools.count"] = {}
        self._count_reads: Dict[str, int] = defaultdict(int)
        # wrapper cost inside / outside the measured interval (ns)
        self._c_in = 0
        self._c_out = 0

    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "s", None)
        if st is None:
            st = self._tls.s = _ThreadState()
            with self._states_lock:
                self._states.append(st)
        return st

    def _span(self, fn: Callable, layer: str, key: str, adopt: bool = False):
        tracer = self
        state = self._state
        is_core = layer.startswith("core.")
        # the outermost core span is a structure's entry point, and it
        # decides whether nested core work counts as query or update
        is_query = fn.__name__ == "query"

        def wrapper(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1] if stack else None
            # frame: [child ns, child intervals or None]
            frame = [0, [] if adopt else None]
            stack.append(frame)
            outer_core = False
            if is_core:
                if st.core_depth == 0:
                    outer_core = True
                    st.core_query = is_query
                st.core_depth += 1
            if adopt:
                tracer._adopter = frame
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                if adopt:
                    tracer._adopter = None
                stack.pop()
                dur = t1 - t0
                if frame[1]:
                    own = dur - frame[0] - _union(frame[1], t0, t1)
                else:
                    own = dur - frame[0]
                own -= tracer._c_in
                st.self_ns[key] += own
                st.incl_ns[key] += dur
                st.calls[key] += 1
                if is_core:
                    st.core_depth -= 1
                    if st.core_query:
                        st.core_q_ns += own
                    else:
                        st.core_u_ns += own
                    if outer_core:
                        st.core_query = False
                if parent is not None:
                    parent[0] += dur + tracer._c_out
                else:
                    adopter = tracer._adopter
                    if adopter is not None:
                        adopter[1].append((t0, t1 + tracer._c_out))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def counting(self, fn: Callable, key: str):
        """Wrap ``fn`` with an exact call counter, read by :meth:`count`."""
        cell = self._counts.setdefault(key, itertools.count())

        def wrapper(*args, **kwargs):
            next(cell)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner: object, name: str, new: object) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    # ------------------------------------------------------------------
    def calibrate(self, rounds: int = 5, n: int = 20_000) -> None:
        """Measure the wrapper's own cost on a no-op (best of ``rounds``)."""

        def noop():
            return None

        wrapped = self._span(noop, "calibration", "calibration")
        best_in = best_total = None
        for _ in range(rounds):
            st = self._state()
            before = st.incl_ns["calibration"]
            t0 = perf_counter_ns()
            for _ in range(n):
                noop()
            raw = perf_counter_ns() - t0
            t0 = perf_counter_ns()
            for _ in range(n):
                wrapped()
            total = perf_counter_ns() - t0 - raw
            inside = st.incl_ns["calibration"] - before - raw
            if best_total is None or total < best_total:
                best_total, best_in = total, inside
        self._c_in = max(0, best_in // n)
        self._c_out = max(0, (best_total - best_in) // n)
        for st in self._states:
            for d in (st.self_ns, st.incl_ns, st.calls):
                d.pop("calibration", None)

    def install(self) -> None:
        """Wrap every listed layer function (idempotent per tracer)."""
        if self._patches:
            return
        for layer, owner, names in SPANNED:
            cls = _resolve(owner)
            for name in names:
                fn = cls.__dict__[name]
                key = f"{layer}:{name}"
                if isinstance(fn, classmethod):
                    self._patch(cls, name, classmethod(
                        self._span(fn.__func__, layer, key)))
                else:
                    self._patch(cls, name, self._span(
                        fn, layer, key, adopt=(layer == "serve.executor")))
        for layer, mod_name, name in SPANNED_FUNCTIONS:
            orig = getattr(_resolve(mod_name), name)
            self._patch_everywhere(orig, self._span(orig, layer, f"{layer}:{name}"))
        entry = _resolve("repro.core.threesided_scheme:CatalogEntry")
        self._patch(entry, "live_at", self.counting(entry.live_at, "live_at"))
        geometry = _resolve("repro.geometry")
        for cls_name in dir(geometry):
            cls = getattr(geometry, cls_name)
            if (cls_name.endswith("Query") and isinstance(cls, type)
                    and "contains" in cls.__dict__):
                self._patch(cls, "contains",
                            self.counting(cls.contains, "contains"))

    def _patch_everywhere(self, orig: object, new: object) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, name, new)

    def remove(self) -> None:
        """Restore every original (reverse order, so stacked patches unwind)."""
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    # ------------------------------------------------------------------
    def count(self, key: str) -> int:
        """Exact calls of a counting wrapper so far."""
        cell = self._counts.get(key)
        if cell is None:
            return 0
        # next() is atomic under the GIL, so threads never lose a count;
        # it also counts this read, which is subtracted here
        value = next(cell) - self._count_reads[key]
        self._count_reads[key] += 1
        return value

    def totals(self) -> Dict[str, object]:
        """Merged per-thread aggregates, keyed ``"layer:function"``."""
        self_ns: Dict[str, int] = defaultdict(int)
        incl_ns: Dict[str, int] = defaultdict(int)
        calls: Dict[str, int] = defaultdict(int)
        core_q = core_u = 0
        with self._states_lock:
            states = list(self._states)
        for st in states:
            for k, v in st.self_ns.items():
                self_ns[k] += v
            for k, v in st.incl_ns.items():
                incl_ns[k] += v
            for k, v in st.calls.items():
                calls[k] += v
            core_q += st.core_q_ns
            core_u += st.core_u_ns
        return {
            "self_ns": dict(self_ns),
            "incl_ns": dict(incl_ns),
            "calls": dict(calls),
            "core_query_ns": core_q,
            "core_update_ns": core_u,
        }


def _union(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Total length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total
