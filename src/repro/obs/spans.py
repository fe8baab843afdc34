"""Nested spans: attribute every physical I/O to a logical phase.

A :class:`SpanRecorder` subscribes to the ``on_read``/``on_write`` hook
points of a storage object (see :meth:`repro.io.BlockStore.add_observer`)
and maintains a stack of named spans.  While a span is open, every
physical read, write, alloc and free is charged to it *exclusively*;
spans nest, so an external-PST query shows up as::

    total                      52 reads
      pst.query.descend         6
        small.catalog           4
        small.data              2
      pst.query.leaf           44

Two guarantees make the numbers trustworthy:

- **Exactness.**  The recorder counts by observing the same events that
  move :class:`~repro.io.stats.IOStats`, so the sum of all exclusive
  span counts (plus the root's unattributed remainder) equals the
  store's counter delta over the attachment window -- checked in
  ``tests/test_obs.py``.
- **Cheap when off.**  Structures open spans through the module-level
  :func:`span` helper, which is a single ``getattr`` returning a shared
  null context when no recorder is attached.

Spans with the same name under the same parent are merged (a query that
visits 40 leaves produces one ``pst.query.leaf`` span with
``entries=40``), keeping reports readable and export sizes bounded.

If the storage object is a :class:`~repro.io.BufferPool`, or a layer
stacked above one, the recorder additionally subscribes to that pool's
logical events and attributes cache hits and misses per span, so
phase-level hit rates come for free.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.io.bufferpool import BufferPool
from repro.io.stats import IOStats


class Span:
    """One node of the attribution tree (exclusive counts)."""

    __slots__ = ("name", "parent", "children", "stats", "entries",
                 "pool_hits", "pool_misses")

    def __init__(self, name: str, parent: "Optional[Span]" = None):
        self.name = name
        self.parent = parent
        self.children: "Dict[str, Span]" = {}
        self.stats = IOStats()       # I/O charged to this span alone
        self.entries = 0             # times the span was entered
        self.pool_hits = 0
        self.pool_misses = 0

    def child(self, name: str) -> "Span":
        """The child span called ``name``, created on first use."""
        ch = self.children.get(name)
        if ch is None:
            ch = Span(name, self)
            self.children[name] = ch
        return ch

    @property
    def total(self) -> IOStats:
        """Inclusive counts: this span plus all descendants."""
        t = self.stats.copy()
        for ch in self.children.values():
            t = t + ch.total
        return t

    def walk(self, depth: int = 0) -> "Iterator[Tuple[Span, int]]":
        """Yield ``(span, depth)`` pre-order over the subtree."""
        yield self, depth
        for ch in self.children.values():
            for item in ch.walk(depth + 1):
                yield item

    def as_dict(self) -> dict:
        """JSON-friendly view of the subtree (exclusive + inclusive)."""
        return {
            "name": self.name,
            "entries": self.entries,
            "self": self.stats.as_dict(),
            "total": self.total.as_dict(),
            "pool_hits": self.pool_hits,
            "pool_misses": self.pool_misses,
            "children": [ch.as_dict() for ch in self.children.values()],
        }

    def __repr__(self) -> str:
        return f"Span({self.name}, entries={self.entries}, self={self.stats})"


class _SpanContext:
    """Context manager pushing/popping one span on its recorder."""

    __slots__ = ("_recorder", "_name")

    def __init__(self, recorder: "SpanRecorder", name: str):
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> Span:
        return self._recorder._push(self._name)

    def __exit__(self, exc_type, exc, tb) -> None:
        self._recorder._pop()


class _NullContext:
    """Shared no-op context returned when no recorder is attached."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL = _NullContext()


def span(storage, name: str):
    """Open span ``name`` on the recorder attached to ``storage``.

    This is the hook structures call around their query/update phases.
    When nothing is attached (the common case) it returns a shared null
    context: the instrumentation costs one attribute lookup.
    """
    rec = getattr(storage, "_span_recorder", None)
    if rec is None:
        # wrapper mismatch: the recorder may be attached to the pool
        # while this structure holds the raw store, or the reverse --
        # the physical store is always marked too.
        phys = getattr(storage, "physical_store", storage)
        if phys is storage:
            return _NULL
        rec = getattr(phys, "_span_recorder", None)
        if rec is None:
            return _NULL
    return rec.span(name)


def _pool_in_chain(storage) -> Optional[BufferPool]:
    """The topmost :class:`~repro.io.BufferPool` at or below ``storage``.

    Only a pool emits hit/miss events; every other layer forwards
    ``add_observer`` to the physical store, where a pool handler would
    just be a second, no-op observer of every transfer.
    """
    layer = storage
    while layer is not None and not isinstance(layer, BufferPool):
        layer = getattr(layer, "_store", None)
    return layer


class SpanRecorder:
    """Attach to a storage object and build a span-attribution tree.

    Usage::

        rec = SpanRecorder(store)
        with rec:                        # subscribes to the hook points
            with rec.span("query"):
                pst.query(a, b, c)       # structures add nested spans
        print(rec.format_report())

    Everything observed outside any explicit span lands on the implicit
    root span (:attr:`unattributed`); :attr:`total` is always exactly
    the store's counter delta over the attachment window.
    """

    def __init__(self, storage):
        self._storage = storage
        self._phys = getattr(storage, "physical_store", storage)
        self._pool = _pool_in_chain(storage)
        self.root = Span("total")
        self.root.entries = 1
        self._stack: List[Span] = [self.root]
        self._attached = False

    # ------------------------------------------------------------------
    # attachment lifecycle
    # ------------------------------------------------------------------
    def attach(self) -> "SpanRecorder":
        """Subscribe to the storage hook points (idempotent)."""
        if self._attached:
            return self
        for obj in (self._storage, self._phys):
            existing = getattr(obj, "_span_recorder", None)
            if existing is not None and existing is not self:
                raise RuntimeError(
                    "another SpanRecorder is already attached to this storage"
                )
        self._phys.add_observer(self._on_store_event)
        if self._pool is not None:
            self._pool.add_observer(self._on_pool_event)
        self._storage._span_recorder = self
        self._phys._span_recorder = self
        self._attached = True
        return self

    def detach(self) -> None:
        """Unsubscribe; the collected tree stays readable."""
        if not self._attached:
            return
        self._phys.remove_observer(self._on_store_event)
        if self._pool is not None:
            self._pool.remove_observer(self._on_pool_event)
        for obj in (self._storage, self._phys):
            if getattr(obj, "_span_recorder", None) is self:
                obj._span_recorder = None
        self._attached = False

    def __enter__(self) -> "SpanRecorder":
        return self.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    # ------------------------------------------------------------------
    # span stack
    # ------------------------------------------------------------------
    def span(self, name: str) -> _SpanContext:
        """Context manager opening ``name`` under the current span."""
        return _SpanContext(self, name)

    def _push(self, name: str) -> Span:
        sp = self._stack[-1].child(name)
        sp.entries += 1
        self._stack.append(sp)
        return sp

    def _pop(self) -> None:
        if len(self._stack) > 1:
            self._stack.pop()

    @property
    def current(self) -> Span:
        """The innermost open span (the root when none is open)."""
        return self._stack[-1]

    # ------------------------------------------------------------------
    # event handlers (the hook-point callbacks)
    # ------------------------------------------------------------------
    def _on_store_event(self, op: str, bid: int) -> None:
        st = self._stack[-1].stats
        if op == "read":
            st.reads += 1
        elif op == "write":
            st.writes += 1
        elif op == "alloc":
            st.allocs += 1
        elif op == "free":
            st.frees += 1

    def _on_pool_event(self, op: str, bid: int) -> None:
        sp = self._stack[-1]
        if op == "hit":
            sp.pool_hits += 1
        elif op == "miss":
            sp.pool_misses += 1

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def total(self) -> IOStats:
        """All I/O observed while attached (== the store's delta)."""
        return self.root.total

    @property
    def unattributed(self) -> IOStats:
        """I/O observed outside every explicit span."""
        return self.root.stats

    def as_dict(self) -> dict:
        """JSON-friendly span tree."""
        return self.root.as_dict()

    def report_rows(self) -> List[List[object]]:
        """``[indented name, entries, reads, writes, allocs, frees, ios]``
        rows in pre-order (for tables)."""
        rows: List[List[object]] = []
        for sp, depth in self.root.walk():
            s = sp.stats if sp is not self.root else sp.total
            label = "  " * depth + (sp.name if sp is not self.root else "total")
            rows.append([
                label, sp.entries, s.reads, s.writes, s.allocs, s.frees, s.ios,
            ])
        return rows

    def format_report(self) -> str:
        """Aligned plain-text report of the span tree."""
        headers = ["span", "entries", "reads", "writes", "allocs", "frees", "ios"]
        rows = [[str(c) for c in row] for row in self.report_rows()]
        widths = [
            max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
            for i, h in enumerate(headers)
        ]
        out = [" | ".join(h.ljust(w) for h, w in zip(headers, widths))]
        out.append("-+-".join("-" * w for w in widths))
        for r in rows:
            out.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(out)
