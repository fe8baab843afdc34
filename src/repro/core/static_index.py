"""The practical static variant the paper's conclusion recommends.

"In practice, the amortized data structures we develop or a modification
of the *static* data structures that they are based upon are likely to be
most practical."  (Section 5.)

This module is that modification: the Theorem 4 sweep scheme materialized
on disk with its catalog held in main memory.  For N points the catalog
is ~2N/B entries -- O(n) *memory words*, a few megabytes for
billion-point sets at realistic B, which is exactly the trade practical
systems make (cf. the directory of a grid file, the root levels of any
B-tree).  In exchange:

- queries cost exactly the candidate blocks: ``<= alpha^2 t + alpha + 1``
  reads and **no search I/O at all** -- beating the PST's constant by the
  tree-descent factor;
- construction writes ``O(n)`` blocks;
- the structure is read-only (rebuild to change it), which is what
  "static" means here.

Finding the candidates costs RAM time, not I/O, and that is kept
output-sensitive too.  For ``m`` catalog entries and ``k`` candidates a
query takes ``O(log^2 m + k)`` steps (plus one C-level sort of the ``k``
hits into catalog order) through :class:`_LivenessIndex`, a segment tree
over the entries' liveness intervals whose nodes hold x-sorted runs.  It
stores each entry ~4.4 times on average, as one 4-byte position and two
8-byte x bounds in flat arrays: ~90 bytes per entry, next to the catalog
itself.  After construction only the catalog, that index and the
original point list stay resident; the sweep's build arrays are dropped.

A 4-sided companion applies the same trick to the Theorem 5 layering.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.geometry import (
    INF,
    NEG_INF,
    FourSidedQuery,
    Orientation,
    Point,
    ThreeSidedQuery,
)
from repro.core.threesided_scheme import CatalogEntry, ThreeSidedSweepIndex
from repro.io.hooks import prefetch_hint


class _LivenessIndex:
    """Interval index over a static catalog: which entries serve ``(a, b, c)``.

    The Theorem 4 sweep keeps the blocks live at any level ``c``
    x-ordered and pairwise x-disjoint (closed ranges may touch).  The
    distinct ``y_from``/``y_to`` values cut the y-axis into *slots*
    ``(levels[j], levels[j+1]]``; an entry is live on the slots its
    interval ``(y_from, y_to]`` spans, and sits on the canonical nodes of
    a bottom-up segment tree (leaf ``size + j`` for slot ``j``) covering
    them.  All entries on one node are live together, so a node's run,
    sorted by ``(x_lo, x_hi)``, is non-decreasing in both bounds and the
    entries meeting ``[a, b]`` form one contiguous slice.  Node 0 holds
    the initial blocks (``y_from = -inf``), which alone serve
    ``c = -inf``.

    Runs are flat arrays: node ``v`` owns ``[off[v], off[v+1])`` of
    ``pos`` (catalog positions), ``xlo`` and ``xhi``.  Bounds are held
    as C doubles: exact for float coordinates and integers up to 2**53.
    """

    __slots__ = ("levels", "size", "off", "pos", "xlo", "xhi")

    def __init__(self, entries: Sequence[CatalogEntry]):
        levels = sorted({e.y_from for e in entries} | {e.y_to for e in entries})
        slot = {y: j for j, y in enumerate(levels)}
        size = 1
        while size < len(levels) - 1:
            size <<= 1
        # visiting the entries in (x_lo, x_hi) order fills every run sorted
        order = sorted(range(len(entries)),
                       key=lambda i: (entries[i].x_lo, entries[i].x_hi))
        runs: List[List[int]] = [[] for _ in range(2 * size)]
        for i in order:
            e = entries[i]
            lo = slot[e.y_from] + size
            hi = slot[e.y_to] + size
            while lo < hi:
                if lo & 1:
                    runs[lo].append(i)
                if hi & 1:
                    runs[hi - 1].append(i)
                lo = (lo + 1) >> 1
                hi >>= 1
        runs[0] = [i for i in order if entries[i].y_from == NEG_INF]
        pos = array("i")
        off = array("i", [0])
        for run in runs:
            pos.extend(run)
            off.append(len(pos))
        self.levels = array("d", levels)
        self.size = size
        self.off = off
        self.pos = pos
        self.xlo = array("d", [entries[i].x_lo for i in pos])
        self.xhi = array("d", [entries[i].x_hi for i in pos])

    def hits(self, a: float, b: float, c: float) -> List[int]:
        """Catalog positions of the entries live at ``c`` whose x-range
        meets ``[a, b]``, in catalog order."""
        if c == NEG_INF:
            v = 0
        else:
            j = bisect_left(self.levels, c)
            if j == 0 or j == len(self.levels):
                return []
            v = self.size + j - 1
        off, pos, xlo, xhi = self.off, self.pos, self.xlo, self.xhi
        out: List[int] = []
        while True:
            lo, hi = off[v], off[v + 1]
            if lo != hi:
                lo = bisect_left(xhi, a, lo, hi)
                out += pos[lo:bisect_right(xlo, b, lo, hi)]
            if v <= 1:
                break
            v >>= 1
        out.sort()
        return out

    def check(self, entries: Sequence[CatalogEntry]) -> None:
        """Assert the index invariant against ``entries``: every run is
        non-decreasing in ``x_lo`` and ``x_hi``, node 0 is exactly the
        ``y_from = -inf`` entries, and each entry's nodes tile exactly
        the slots of its liveness interval."""
        levels = sorted({e.y_from for e in entries} | {e.y_to for e in entries})
        assert list(self.levels) == levels, "slots differ from the catalog"
        size, off = self.size, self.off
        assert len(off) == 2 * size + 1 and size >= len(levels) - 1
        tiles: List[List[Tuple[int, int]]] = [[] for _ in entries]
        initial = set()
        for v in range(2 * size):
            lo, hi = off[v], off[v + 1]
            for k in range(lo + 1, hi):
                assert self.xlo[k - 1] <= self.xlo[k], ("x_lo out of order", v)
                assert self.xhi[k - 1] <= self.xhi[k], ("x_hi out of order", v)
            for k in range(lo, hi):
                e = entries[self.pos[k]]
                assert (self.xlo[k], self.xhi[k]) == (e.x_lo, e.x_hi)
                if v == 0:
                    initial.add(self.pos[k])
                    continue
                # node v spans the 2**shift leaves from v << shift on
                shift = size.bit_length() - v.bit_length()
                first = (v << shift) - size
                tiles[self.pos[k]].append((first, first + (1 << shift)))
        assert initial == {
            i for i, e in enumerate(entries) if e.y_from == NEG_INF
        }, "initial-block run mismatch"
        for i, e in enumerate(entries):
            slot = bisect_left(levels, e.y_from)
            end = bisect_left(levels, e.y_to)
            for first, stop in sorted(tiles[i]):
                assert first == slot, ("entry not tiled exactly", i)
                slot = stop
            assert slot == end, ("entry not tiled exactly", i)


class StaticThreeSidedIndex:
    """Read-only 3-sided index: sweep scheme on disk, catalog in memory.

    Queries cost only the Theorem 4 candidate blocks (``O(t + 1)`` reads,
    zero search I/Os).  Any orientation of the open side is supported.
    """

    def __init__(
        self,
        store,
        points: Sequence[Point],
        *,
        alpha: int = 2,
        orientation: str = Orientation.UP,
    ):
        self._store = store
        sweep = ThreeSidedSweepIndex(
            points, store.block_size, alpha, orientation=orientation
        )
        self.alpha = alpha
        self.orientation = sweep.orientation
        self._count = sweep.num_points
        # the original point list answers points() without I/O; the
        # sweep's block lists are build scaffolding and are not kept
        self._points: Optional[List[Point]] = sweep._original
        # materialize each scheme block; the catalog (with block ids
        # substituted) stays in memory
        self._catalog: List[Tuple[CatalogEntry, int]] = []
        for entry in sweep.catalog:
            bid = store.alloc()
            store.write(bid, sweep.block_points(entry.block))
            self._catalog.append((entry, bid))
        self._index = _LivenessIndex(sweep.catalog)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of live records stored."""
        return self._count

    def blocks_in_use(self) -> int:
        """Number of blocks the structure owns."""
        return len(self._catalog)

    def memory_catalog_entries(self) -> int:
        """Size of the in-memory directory (the practicality trade)."""
        return len(self._catalog)

    # ------------------------------------------------------------------
    def _candidates(self, q: ThreeSidedQuery) -> List[int]:
        """Block ids ``q`` (canonical frame) reads, in catalog order."""
        catalog = self._catalog
        return [catalog[i][1] for i in self._index.hits(q.a, q.b, q.c)]

    def query(
        self,
        *,
        x_lo: float = NEG_INF,
        x_hi: float = INF,
        y_lo: float = NEG_INF,
        y_hi: float = INF,
    ) -> List[Point]:
        """3-sided query in the original frame; the open side must match
        this index's orientation.  Costs exactly the candidate blocks."""
        candidates = self._candidates(self.orientation.query_to_canonical(
            x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi
        ))
        # the catalog is in memory, so the full slab list is known up
        # front: announce it before reading so a readahead pool batches
        if len(candidates) > 1:
            prefetch_hint(self._store, candidates)
        # blocks hold original-frame points: test them against the
        # original bounds, one inlined comparison per orientation
        read = self._store.read
        side = self.orientation.side
        out = set()
        if side == Orientation.UP:
            for bid in candidates:
                out.update([p for p in read(bid).records
                            if x_lo <= p[0] <= x_hi and p[1] >= y_lo])
        elif side == Orientation.DOWN:
            for bid in candidates:
                out.update([p for p in read(bid).records
                            if x_lo <= p[0] <= x_hi and p[1] <= y_hi])
        elif side == Orientation.RIGHT:
            for bid in candidates:
                out.update([p for p in read(bid).records
                            if y_lo <= p[1] <= y_hi and p[0] >= x_lo])
        else:
            for bid in candidates:
                out.update([p for p in read(bid).records
                            if y_lo <= p[1] <= y_hi and p[0] <= x_hi])
        return list(out)

    def candidate_blocks(self, **kwargs) -> int:
        """How many blocks the query would read (no I/O performed)."""
        return len(self._candidates(
            self.orientation.query_to_canonical(**kwargs)))

    def points(self) -> List[Point]:
        """The indexed point set.

        Freshly built indexes answer from the point list they were built
        from; an :meth:`attach`-ed handle reads every data block once
        (honest I/O -- a remounted structure's points genuinely live on
        disk) and dedupes the scheme's redundant copies.  Sorted in the
        attached case so callers get a deterministic order either way
        once they sort (every caller here rebuilds, which sorts).
        """
        if self._points is not None:
            return list(self._points)
        seen = set()
        for _entry, bid in self._catalog:
            seen.update(self._store.read(bid).records)
        return sorted(seen)

    # ------------------------------------------------------------------
    # persistence (crash recovery re-attachment; see repro.resilience)
    # ------------------------------------------------------------------
    def snapshot_meta(self) -> dict:
        """Everything needed to re-attach this index to its blocks.

        The data blocks are already on disk; what a crash destroys is
        the in-memory catalog.  The snapshot is a fresh copy each call
        -- it travels in a journal superblock and must never alias live
        mutable state.
        """
        return {
            "alpha": self.alpha,
            "orientation": self.orientation.side,
            "count": self.count,
            "catalog": [
                ((e.x_lo, e.x_hi, e.y_from, e.y_to, e.block), bid)
                for e, bid in self._catalog
            ],
        }

    @classmethod
    def attach(cls, store, meta: dict) -> "StaticThreeSidedIndex":
        """Rebuild the in-memory handle over existing blocks (no I/O).

        Inverse of :meth:`snapshot_meta`.  Queries work immediately off
        the restored catalog and its rebuilt interval index; operations
        that need the point set (:meth:`points`, :meth:`check_invariants`)
        reload it from the data blocks.
        """
        obj = cls.__new__(cls)
        obj._store = store
        obj._points = None
        obj.alpha = meta["alpha"]
        obj.orientation = Orientation(meta["orientation"])
        obj._count = meta["count"]
        obj._catalog = [
            (CatalogEntry(*entry), bid) for entry, bid in meta["catalog"]
        ]
        obj._index = _LivenessIndex([e for e, _bid in obj._catalog])
        return obj

    def destroy(self) -> None:
        """Free every block owned by the structure."""
        for _entry, bid in self._catalog:
            self._store.free(bid)
        self._catalog = []
        self._index = _LivenessIndex([])

    def check_invariants(self) -> None:
        """Validate structural guarantees; raises AssertionError on breach.

        Rebuilds the sweep transiently (a pure function of the points)
        and checks the catalog and its interval index against it.  An
        attached handle reloads its points once and keeps them.
        """
        if self._points is None:
            self._points = self.points()
        sweep = ThreeSidedSweepIndex(
            self._points, self._store.block_size, self.alpha,
            orientation=self.orientation.side,
        )
        sweep.check_invariants()
        assert sweep.num_points == self._count, "count mismatch"
        entries = [e for e, _bid in self._catalog]
        assert entries == sweep.catalog, "catalog differs from the sweep"
        self._index.check(entries)


class StaticFourSidedIndex:
    """Read-only 4-sided index: the Theorem 5 layering materialized on
    disk with its directory in memory.

    The in-memory :class:`FourSidedLayeredIndex` plays the role of the
    directory: it decides *which* blocks a query must read; this class
    materializes every scheme block on the store and performs the actual
    reads, so queries cost ``O(rho + t)`` block I/Os with no search I/O.
    Space is ``O(n log n / log rho)`` blocks -- the static trade the
    paper's conclusion recommends over the fully dynamic Theorem 7
    machinery.
    """

    def __init__(self, store, points: Sequence[Point], *, rho: int = 4,
                 alpha: int = 2):
        from repro.core.foursided_scheme import FourSidedLayeredIndex

        self._store = store
        self._scheme = FourSidedLayeredIndex(
            points, store.block_size, rho=rho, alpha=alpha
        )
        self.rho = rho
        # materialize: one store block per scheme block, per set and side
        self._bids = {}
        for level_i, level in enumerate(self._scheme.levels):
            for s in level:
                for side, idx in (("left", s.left_index),
                                  ("right", s.right_index)):
                    for block_i in range(idx.num_blocks):
                        bid = store.alloc()
                        store.write(bid, idx.block_points(block_i))
                        self._bids[(level_i, s.index, side, block_i)] = bid

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of live records stored."""
        return self._scheme.num_points

    def num_levels(self) -> int:
        """Number of levels in the hierarchy."""
        return self._scheme.num_levels

    def blocks_in_use(self) -> int:
        """Number of blocks the structure owns."""
        return len(self._bids)

    # ------------------------------------------------------------------
    def query(self, a: float, b: float, c: float, d: float) -> List[Point]:
        """4-sided query: the directory picks the blocks, we read them."""
        q = FourSidedQuery(a, b, c, d)
        _pts, block_ids = self._scheme.query(q)
        candidates = [self._bids[key] for key in block_ids]
        if len(candidates) > 1:
            prefetch_hint(self._store, candidates)
        out = set()
        for bid in candidates:
            for p in self._store.read(bid).records:
                if q.contains(p):
                    out.add(p)
        return list(out)

    def blocks_for_query(self, a: float, b: float, c: float, d: float) -> int:
        """How many blocks the query would read (no I/O performed)."""
        _pts, block_ids = self._scheme.query(FourSidedQuery(a, b, c, d))
        return len(block_ids)

    def destroy(self) -> None:
        """Free every block owned by the structure."""
        for bid in self._bids.values():
            self._store.free(bid)
        self._bids = {}

    def check_invariants(self) -> None:
        """Validate structural guarantees; raises AssertionError on breach."""
        self._scheme.check_invariants()
        assert len(self._bids) == self._scheme.num_blocks
