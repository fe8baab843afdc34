"""Section 3.1: the dynamic 3-sided structure on Theta(B^2) points.

Lemma 1 of the paper: a set of O(B^2) points can be kept in O(B) disk
blocks so that a 3-sided query touching T points costs O(1 + T/B) I/Os
and updates cost O(1) I/Os amortized.  The construction is the Theorem 4
sweep scheme *materialized* on the block store, plus:

- a **catalog**: one O(1)-size record per scheme block holding its
  x-range, activity y-interval, block id and max-y.  With O(B) scheme
  blocks the catalog fits in O(1) blocks, which a query loads first to
  decide which data blocks to touch -- exactly the paper's "O(1) catalog
  blocks" device.
- an **update buffer** of at most ~B pending insertions ("+") and
  deletions ("-", tombstones) in one block.  Every read path merges the
  buffer; when it fills, or after B updates, the structure is rebuilt in
  O(B) I/Os.  Updates are therefore O(1) I/Os amortized.  Tombstones
  (rather than eager removal) are required for correctness because the
  sweep scheme stores *redundant copies*: a point can live in its
  original x-partition block and in every coalesced block that later
  absorbed it, so removing one copy would let queries at lower sweep
  levels resurrect the others.

The paper builds the scheme in O(B) I/Os using a priority queue over the
coalescing events; here the sweep runs on in-memory copies of the points
(CPU cost, not I/O) and the structure is written out in O(B) I/Os, the
same I/O bound.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.geometry import NEG_INF, Point, ThreeSidedQuery
from repro.core.threesided_scheme import ThreeSidedSweepIndex, block_live_at
from repro.obs.spans import span

# catalog record: (x_lo, x_hi, y_from, y_to, data_bid, y_max)
# pending record: ("+", point) for buffered inserts,
#                 ("-", point) for tombstoned deletes


class SmallThreeSidedStructure:
    """Dynamic 3-sided (up-open) queries on up to ~B^2 points (Lemma 1)."""

    def __init__(
        self,
        store,
        points: Sequence[Point] = (),
        *,
        alpha: int = 2,
        max_points: Optional[int] = None,
    ):
        self._store = store
        self._alpha = alpha
        self.max_points = max_points
        self._catalog_bids: List[int] = []
        self._data_bids: List[int] = []
        self._pending_bid = store.alloc()
        store.write(self._pending_bid, [])
        self._count = 0
        self._updates_since_rebuild = 0
        self.rebuilds = 0
        self._bulk_build(list(points))

    # ------------------------------------------------------------------
    # construction / rebuild
    # ------------------------------------------------------------------
    def _bulk_build(self, points: List[Point]) -> None:
        if self.max_points is not None and len(points) > self.max_points:
            raise ValueError(
                f"{len(points)} points exceed capacity {self.max_points}"
            )
        store = self._store
        B = store.block_size
        for bid in self._data_bids:
            store.free(bid)
        for bid in self._catalog_bids:
            store.free(bid)
        self._data_bids = []
        self._catalog_bids = []
        self._count = len(points)
        self._updates_since_rebuild = 0
        if not points:
            return
        index = ThreeSidedSweepIndex(points, B, self._alpha)
        catalog_records: List[Tuple] = []
        for entry in index.catalog:
            pts = index.block_points(entry.block)
            bid = store.alloc()
            store.write(bid, pts)
            self._data_bids.append(bid)
            y_max = max(p[1] for p in pts)
            catalog_records.append(
                (entry.x_lo, entry.x_hi, entry.y_from, entry.y_to, bid, y_max)
            )
        for lo in range(0, len(catalog_records), B):
            bid = store.alloc()
            store.write(bid, catalog_records[lo:lo + B])
            self._catalog_bids.append(bid)

    def rebuild(self) -> None:
        """Re-run the sweep construction over the live points (O(B) I/Os)."""
        points = self.all_points()
        self._store.write(self._pending_bid, [])
        self.rebuilds += 1
        self._bulk_build(points)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of live records stored."""
        return self._count

    def is_empty(self) -> bool:
        """True iff nothing is stored."""
        return self._count == 0

    def num_blocks(self) -> int:
        """Blocks owned: data + catalog + pending."""
        return len(self._data_bids) + len(self._catalog_bids) + 1

    def _read_catalog(self) -> List[Tuple]:
        records: List[Tuple] = []
        for bid in self._catalog_bids:
            records.extend(self._store.read(bid).records)
        return records

    def _read_buffer(self) -> Tuple[List[Point], Set[Point]]:
        """(buffered inserts, tombstones); one I/O."""
        plus: List[Point] = []
        minus: Set[Point] = set()
        for tag, p in self._store.read(self._pending_bid).records:
            if tag == "+":
                plus.append(p)
            else:
                minus.add(p)
        return plus, minus

    def _write_buffer(self, plus: List[Point], minus: Set[Point]) -> None:
        records = [("+", p) for p in plus] + [("-", p) for p in minus]
        self._store.write(self._pending_bid, records)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(self, q: ThreeSidedQuery) -> List[Point]:
        """All points with ``q.a <= x <= q.b`` and ``y >= q.c``.

        Costs O(1) catalog/buffer I/Os plus one read per candidate block;
        Lemma 1 bounds the candidates by O(1 + T/B).
        """
        with span(self._store, "small.catalog"):
            catalog = self._read_catalog()
            plus, minus = self._read_buffer()
        out: Set[Point] = set()
        with span(self._store, "small.data"):
            for x_lo, x_hi, y_from, y_to, bid, _y_max in catalog:
                if block_live_at(y_from, y_to, q.c) and x_lo <= q.b and x_hi >= q.a:
                    for p in self._store.read(bid).records:
                        if q.contains(p) and p not in minus:
                            out.add(p)
        for p in plus:
            if q.contains(p):
                out.add(p)
        return list(out)

    def report_x_range(self, x_lo: float, x_hi: float) -> List[Point]:
        """Degenerate query: every point with x in [x_lo, x_hi].

        This is the operation the external PST uses to materialize a
        Y-set (at most B points), at O(1) I/O cost.
        """
        return self.query(ThreeSidedQuery(x_lo, x_hi, NEG_INF))

    def top(self) -> Optional[Point]:
        """The point with maximum y (ties by x), or None if empty.

        Reads catalog + buffer + as many data blocks (best y-max first)
        as tombstones force; with < B tombstones between rebuilds this is
        O(1) I/Os amortized.
        """
        if self._count == 0:
            return None
        catalog = self._read_catalog()
        plus, minus = self._read_buffer()
        best: Optional[Point] = None
        for p in plus:
            if best is None or (p[1], p[0]) > (best[1], best[0]):
                best = p
        for entry in sorted(catalog, key=lambda e: e[5], reverse=True):
            # strict: at equal y a larger x inside the block can still win
            if best is not None and best[1] > entry[5]:
                break
            for p in self._store.read(entry[4]).records:
                if p in minus:
                    continue
                if best is None or (p[1], p[0]) > (best[1], best[0]):
                    best = p
        return best

    def top_in_x_range(self, x_lo, x_hi) -> Optional[Point]:
        """The max-y point with ``x_lo <= x <= x_hi`` (ties by x).

        Same best-block-first strategy as :meth:`top`: blocks are probed
        in descending y-max order and the scan stops once no remaining
        block can beat the current best -- typically O(1) I/Os.
        """
        if self._count == 0:
            return None
        catalog = self._read_catalog()
        plus, minus = self._read_buffer()
        best: Optional[Point] = None

        def better(p: Point) -> bool:
            return best is None or (p[1], p[0]) > (best[1], best[0])

        for p in plus:
            if x_lo <= p[0] <= x_hi and better(p):
                best = p
        candidates = [
            e for e in catalog if e[0] <= x_hi and e[1] >= x_lo
        ]
        for entry in sorted(candidates, key=lambda e: e[5], reverse=True):
            # strict: at equal y a larger x inside the block can still win
            if best is not None and best[1] > entry[5]:
                break
            for p in self._store.read(entry[4]).records:
                if p in minus or not (x_lo <= p[0] <= x_hi):
                    continue
                if better(p):
                    best = p
        return best

    def all_points(self) -> List[Point]:
        """Every live point exactly once (O(B) I/Os)."""
        plus, minus = self._read_buffer()
        seen: Set[Point] = set()
        for bid in self._data_bids:
            seen.update(self._store.read(bid).records)
        seen -= minus
        seen.update(plus)
        return list(seen)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, p: Point) -> None:
        """Buffer an insertion; O(1) I/Os amortized (rebuild every ~B).

        The caller must not insert a point that is already present.
        """
        if self.max_points is not None and self._count >= self.max_points:
            raise ValueError("structure at capacity")
        plus, minus = self._read_buffer()
        if p in minus:
            minus.discard(p)  # resurrect a tombstoned point
        else:
            plus.append(p)
        self._count += 1
        self._after_update(plus, minus)

    def delete(self, p: Point) -> bool:
        """Tombstone a point; O(1) I/Os amortized.  True if present."""
        plus, minus = self._read_buffer()
        if p in plus:
            plus.remove(p)
        else:
            # presence check: a live point always matches the degenerate
            # query at its own coordinates (O(1) candidate blocks)
            if p in minus or not self._present_on_disk(p):
                return False
            minus.add(p)
        self._count -= 1
        self._after_update(plus, minus)
        return True

    def _present_on_disk(self, p: Point) -> bool:
        catalog = self._read_catalog()
        for x_lo, x_hi, y_from, y_to, bid, _y_max in catalog:
            if block_live_at(y_from, y_to, p[1]) and x_lo <= p[0] <= x_hi:
                if p in self._store.read(bid).records:
                    return True
        return False

    def _after_update(self, plus: List[Point], minus: Set[Point]) -> None:
        self._updates_since_rebuild += 1
        B = self._store.block_size
        if (
            len(plus) + len(minus) >= B
            or self._updates_since_rebuild >= B
        ):
            self._store.write(self._pending_bid, [])
            self.rebuilds += 1
            seen: Set[Point] = set()
            for bid in self._data_bids:
                seen.update(self._store.read(bid).records)
            seen -= minus
            seen.update(plus)
            self._bulk_build(list(seen))
        else:
            self._write_buffer(plus, minus)

    # ------------------------------------------------------------------
    # persistence (crash recovery re-attachment; see repro.resilience)
    # ------------------------------------------------------------------
    def snapshot_meta(self) -> dict:
        """Everything needed to re-attach this structure to its blocks.

        The returned dict is a fresh copy each call: it may be stored
        in a journal superblock and must not alias live mutable state.
        """
        return {
            "alpha": self._alpha,
            "max_points": self.max_points,
            "catalog_bids": list(self._catalog_bids),
            "data_bids": list(self._data_bids),
            "pending_bid": self._pending_bid,
            "count": self._count,
            "updates": self._updates_since_rebuild,
            "rebuilds": self.rebuilds,
        }

    @classmethod
    def attach(cls, store, meta: dict) -> "SmallThreeSidedStructure":
        """Rebuild the in-memory handle over existing blocks.

        Inverse of :meth:`snapshot_meta`; performs no I/O.  Lists are
        copied so the attached instance never aliases the meta dict.
        """
        obj = cls.__new__(cls)
        obj._store = store
        obj._alpha = meta["alpha"]
        obj.max_points = meta["max_points"]
        obj._catalog_bids = list(meta["catalog_bids"])
        obj._data_bids = list(meta["data_bids"])
        obj._pending_bid = meta["pending_bid"]
        obj._count = meta["count"]
        obj._updates_since_rebuild = meta["updates"]
        obj.rebuilds = meta["rebuilds"]
        return obj

    # ------------------------------------------------------------------
    def destroy(self) -> None:
        """Free every block owned by the structure."""
        for bid in self._data_bids:
            self._store.free(bid)
        for bid in self._catalog_bids:
            self._store.free(bid)
        self._store.free(self._pending_bid)
        self._data_bids = []
        self._catalog_bids = []
        self._count = 0

    def check_invariants(self) -> None:
        """Count and coverage agree with the physical blocks."""
        pts = self.all_points()
        assert len(pts) == self._count, (
            f"count {self._count} != stored {len(pts)}"
        )
        catalog = self._read_catalog()
        assert sorted(e[4] for e in catalog) == sorted(self._data_bids)
        B = self._store.block_size
        assert len(self._catalog_bids) <= max(1, -(-len(catalog) // B))
        # buffer never exceeds one block
        plus, minus = self._read_buffer()
        assert len(plus) + len(minus) < B
        # every point is found by a full-range query (x bounds taken from
        # the data so composite tuple x-keys work too)
        if pts:
            x_lo = min(p[0] for p in pts)
            x_hi = max(p[0] for p in pts)
            full = self.query(ThreeSidedQuery(x_lo, x_hi, NEG_INF))
            assert set(full) == set(pts), "full-range query misses points"
