"""Section 3.3: the external priority search tree (Theorem 6).

Linear space, ``O(log_B N + t)`` I/O 3-sided queries, ``O(log_B N)`` I/O
updates.  The skeleton is a weight-balanced B-tree over x; every internal
node ``v`` carries a *query structure* ``Q_v`` -- a Lemma-1
:class:`~repro.core.small_structure.SmallThreeSidedStructure` on
``O(B^2)`` points -- holding the **Y-sets** of its children: for child
``w``, ``Y(w)`` is the set of up to ``B`` highest points within ``w``'s
x-range not already stored at an ancestor.  Leaves keep their remaining
points in a y-descending blocked list ``L_z``.

Key implementation choices, all documented against the paper:

- **Composite keys.**  Internally a point ``(x, y)`` becomes the record
  ``((x, y), y)``: its "x-coordinate" is the lexicographic pair, so
  points with equal x are totally ordered and base-tree separators are
  always clean.  This realizes the paper's general-position assumption
  without restricting the input.
- **Maintained summaries.**  Each child entry in a node block stores
  ``(y_count, y_min, sub_count)`` for its Y-set and for the points
  strictly below, so query routing and the insert descent read no extra
  blocks.  ``sub_count`` also makes queries correct when a scheduler has
  left a Y-set temporarily depleted.
- **Heap discipline.**  The invariant kept at all times is: every point
  stored strictly below child ``w`` has ``y <= min(Y(w))`` whenever
  ``Y(w)`` is non-empty.  An inserted point therefore descends past
  ``Y(w)`` only when it is strictly below ``min(Y(w))`` *and* the
  subtree below is non-empty -- safe in both eager and deferred
  scheduling modes (the paper's ``|Y| >= B/2`` test is equivalent under
  its eager invariant).
- **Deletions** remove the point from whichever auxiliary structure
  holds it, refill the deficient Y-set by an immediate bubble-up, and
  leave the x-key behind as a ghost; the whole tree is rebuilt by global
  rebuilding once ghosts reach the live count (Section 3.3.2).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry import INF, NEG_INF, Point, ThreeSidedQuery
from repro.io.blockstore import StorageError
from repro.io.hooks import crash_point, prefetch_hint
from repro.core.small_structure import SmallThreeSidedStructure
from repro.core.scheduling import ALL_SCHEDULERS, BubbleUpScheduler, EagerScheduler
from repro.obs.spans import span
from repro.substrates.blocked_list import BlockedSequence

# Composite key space: key = (x, y); stored record = (key, y).
MIN_KEY = (NEG_INF, NEG_INF)
MAX_KEY = (INF, INF)

# Block layouts
# internal node: [("I", level, weight, low_excl), entry, entry, ...]
#   entry = ("C", child_bid, sep, weight, y_count, y_min, sub_count)
#   child i owns keys in (sep_{i-1}, sep_i], low_excl for i = 0
# leaf node:     [("L", weight, key_bids, lz_dir_bid, low_excl)]
#   key blocks hold the (ghost-inclusive) sorted composite keys


def _lz_key(rec: Tuple) -> float:
    return rec[1]


class ExternalPrioritySearchTree:
    """Dynamic 3-sided range searching in optimal I/O bounds (Theorem 6).

    Parameters
    ----------
    store:
        Block storage; its ``block_size`` is the paper's ``B``.
    points:
        Optional initial points ``(x, y)``; bulk-built in O(n log) work
        but only O(n) I/Os.
    a, k:
        Weight-balance parameters (branching / leaf).  Defaults
        ``a = (B-2)/4`` and ``k = 2B``; pass ``k ~ B log_B N`` for the
        heavy-leaf scheduler's regime.
    scheduler:
        A :class:`~repro.core.scheduling.BubbleUpScheduler`; defaults to
        the eager (amortized) strategy.
    """

    def __init__(
        self,
        store,
        points: Sequence[Point] = (),
        *,
        a: Optional[int] = None,
        k: Optional[int] = None,
        scheduler: Optional[BubbleUpScheduler] = None,
        allow_spill: bool = False,
    ):
        B = store.block_size
        self._store = store
        # default branching: the largest a whose 4a+1 child entries plus
        # header still fit one node block (the paper's a = Theta(B)).
        # Default leaf parameter 2B: a leaf must outweigh the B points its
        # parent's Y-set absorbs, or leaf lists sit empty and fixed
        # per-leaf overhead dominates space.  The paper allows any
        # k in [B/2, B log_B N].
        self.a = a if a is not None else max(2, (B - 2) // 4)
        self.k = k if k is not None else max(4, 2 * B)
        if self.a < 2 or self.k < 2:
            raise ValueError("need a >= 2 and k >= 2")
        if 4 * self.a + 2 > B and not allow_spill:
            raise ValueError("4a + 2 must fit in a block; lower a")
        # spill mode: internal nodes whose 4a+1 entries cannot fit one
        # block overflow into a chain of continuation blocks.  This is a
        # testing affordance for tiny B (the fault harness runs at B=8);
        # oversized nodes honestly cost one extra I/O per chain block.
        self._spill = allow_spill and 4 * self.a + 2 > B
        self.half = max(1, B // 2)      # Y-set refill threshold (B/2)
        self.y_cap = B                   # Y-set capacity (B)
        self.scheduler = scheduler if scheduler is not None else EagerScheduler()
        self.scheduler.attach(self)
        self._q: Dict[int, SmallThreeSidedStructure] = {}
        self._root: Optional[int] = None
        self._count = 0
        self._ghosts = 0
        self.rebuilds = 0
        self.splits = 0
        pts = [(float(p[0]), float(p[1])) for p in points]
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        self._bulk_build(pts)

    # ==================================================================
    # basic node I/O helpers
    # ==================================================================
    def _read(self, bid: int) -> List:
        records = list(self._store.read(bid).records)
        prev = bid
        while self._spill and records and records[-1][0] == "CONT":
            nxt = records.pop()[1]
            # teach a readahead pool the chain link before following it
            prefetch_hint(self._store, (prev, nxt))
            records.extend(self._store.read(nxt).records)
            prev = nxt
        return records

    def _peek_node(self, bid: int) -> List:
        """Reassembled node records without charging I/O (checkers only)."""
        records = list(self._store.peek(bid))
        while self._spill and records and records[-1][0] == "CONT":
            records.extend(self._store.peek(records.pop()[1]))
        return records

    def _cont_chain(self, bid: int) -> List[int]:
        """Continuation-block ids hanging off a node (spill mode only)."""
        chain: List[int] = []
        if not self._spill:
            return chain
        try:
            records = self._store.peek(bid)
        except StorageError:
            return chain
        while records and records[-1][0] == "CONT":
            nxt = records[-1][1]
            chain.append(nxt)
            records = self._store.peek(nxt)
        return chain

    def _free_node(self, bid: int) -> None:
        for cbid in self._cont_chain(bid):
            self._store.free(cbid)
        self._store.free(bid)

    def _is_leaf(self, records: List) -> bool:
        return records[0][0] == "L"

    def _new_q(self, pts: List[Tuple]) -> SmallThreeSidedStructure:
        B = self._store.block_size
        return SmallThreeSidedStructure(
            self._store, pts, max_points=B * B + 2 * B
        )

    def _write_leaf(
        self, bid: int, weight: int, key_bids: Tuple, lz_dir: int, low
    ) -> None:
        self._store.write(bid, [("L", weight, key_bids, lz_dir, low)])

    def _write_internal(
        self, bid: int, level: int, weight: int, low, entries: List
    ) -> None:
        records = [("I", level, weight, low)] + list(entries)
        B = self._store.block_size
        if not self._spill or len(records) <= B:
            if self._spill:
                # node shrank back into one block: release any old chain
                chain = self._cont_chain(bid)
                self._store.write(bid, records)
                for cbid in chain:
                    self._store.free(cbid)
            else:
                self._store.write(bid, records)
            return
        # lay the records over the head block plus a continuation chain,
        # reusing the node's previously allocated chain blocks
        pieces: List[List] = []
        rest = records
        while len(rest) > B:
            pieces.append(rest[:B - 1])
            rest = rest[B - 1:]
        pieces.append(rest)
        chain = self._cont_chain(bid)
        need = len(pieces) - 1
        while len(chain) < need:
            chain.append(self._store.alloc())
        for cbid in chain[need:]:
            self._store.free(cbid)
        chain = chain[:need]
        bids = [bid] + chain
        for i in range(need):
            pieces[i].append(("CONT", bids[i + 1]))
        for nb, recs in zip(reversed(bids), reversed(pieces)):
            self._store.write(nb, recs)

    def _make_key_blocks(self, keys: List) -> Tuple:
        B = self._store.block_size
        bids = []
        for lo in range(0, len(keys), B):
            kb = self._store.alloc()
            self._store.write(kb, keys[lo:lo + B])
            bids.append(kb)
        return tuple(bids)

    def _read_keys(self, key_bids: Tuple) -> List:
        if len(key_bids) > 1:
            prefetch_hint(self._store, key_bids)
        keys: List = []
        for kb in key_bids:
            keys.extend(self._store.read(kb).records)
        return keys

    def _free_key_blocks(self, key_bids: Tuple) -> None:
        for kb in key_bids:
            self._store.free(kb)

    @staticmethod
    def _route(entries: List, key) -> int:
        """Index of the child owning ``key`` (first sep >= key, else last)."""
        for i, e in enumerate(entries):
            if key <= e[2]:
                return i
        return len(entries) - 1

    def _child_interval(self, header, entries: List, i: int):
        lo = header[3] if i == 0 else entries[i - 1][2]
        return lo, entries[i][2]

    def _report_child(self, q: SmallThreeSidedStructure, lo, hi) -> List[Tuple]:
        """Y-set of the child with key interval (lo, hi]: O(1) blocks."""
        return [r for r in q.query(ThreeSidedQuery(lo, hi, NEG_INF)) if r[0] > lo]

    # ==================================================================
    # bulk construction
    # ==================================================================
    def _bulk_build(self, points: List[Point]) -> None:
        recs = sorted(((float(x), float(y)), float(y)) for x, y in points)
        self._count = len(recs)
        self._ghosts = 0
        keys = [r[0] for r in recs]
        level = 0 if len(keys) <= 2 * self.k - 1 else self._node_level(len(keys))
        self._root = self._build_node(keys, recs, MIN_KEY, level)

    def _node_level(self, n_keys: int) -> int:
        """Smallest level whose capacity ``2 a^l k`` holds ``n_keys``."""
        level = 1
        cap = 2 * self.a * self.k
        while cap < n_keys:
            level += 1
            cap *= self.a
        return level

    def _build_node(self, keys: List, pool: List[Tuple], low, level: int) -> int:
        """Recursively build a subtree at exactly ``level`` (0 = leaf).

        ``keys``: all composite keys of the subtree (defines weights).
        ``pool``: the records not claimed by ancestors, key-sorted.
        The level is fixed by the parent so all leaves land on level 0;
        bulk-built leaves may hold as few as ~k/2 keys (the split
        machinery alone guarantees the tight ``[k, 2k-1]`` range).
        """
        store = self._store
        if level == 0:
            lz = BlockedSequence.from_sorted(
                store, sorted(pool, key=lambda r: (r[1], r[0]), reverse=True),
                _lz_key,
            )
            bid = store.alloc()
            self._write_leaf(bid, len(keys), self._make_key_blocks(keys), lz.dir_bid, low)
            return bid

        target = (2 * self.k - 1) if level == 1 else (self.a ** (level - 1)) * self.k
        m = max(2, -(-len(keys) // target))
        # even partition of the keys into m contiguous runs
        base, extra = divmod(len(keys), m)
        cuts = [0]
        for i in range(m):
            cuts.append(cuts[-1] + base + (1 if i < extra else 0))

        entries: List[Tuple] = []
        q_points: List[Tuple] = []
        child_plans: List[Tuple] = []  # (keys, remainder, lo)
        pi = 0
        prev_lo = low
        for i in range(m):
            run_keys = keys[cuts[i]:cuts[i + 1]]
            sep = run_keys[-1]
            # records belonging to this run: pool keys in (prev_lo, sep]
            run_pool: List[Tuple] = []
            while pi < len(pool) and pool[pi][0] <= sep:
                run_pool.append(pool[pi])
                pi += 1
            # Y-set: top-B by (y, key)
            run_pool_by_y = sorted(run_pool, key=lambda r: (r[1], r[0]))
            y_set = run_pool_by_y[len(run_pool_by_y) - min(self.y_cap, len(run_pool_by_y)):]
            y_keys = {r[0] for r in y_set}
            remainder = [r for r in run_pool if r[0] not in y_keys]
            q_points.extend(y_set)
            y_min = min((r[1] for r in y_set), default=None)
            child_plans.append((run_keys, remainder, prev_lo))
            entries.append(
                ["C", None, sep, len(run_keys), len(y_set), y_min, len(remainder)]
            )
            prev_lo = sep

        bid = store.alloc()
        for i, (run_keys, remainder, lo) in enumerate(child_plans):
            child_bid = self._build_node(run_keys, remainder, lo, level - 1)
            entries[i][1] = child_bid
        self._q[bid] = self._new_q(q_points)
        self._write_internal(
            bid, level, len(keys), low, [tuple(e) for e in entries]
        )
        return bid

    # ==================================================================
    # accessors
    # ==================================================================
    @property
    def count(self) -> int:
        """Number of live records stored."""
        return self._count

    def height(self) -> int:
        """Number of levels from root to leaves."""
        h, bid = 1, self._root
        while True:
            records = self._store.peek(bid)
            if self._is_leaf(records):
                return h
            bid = records[1][1]
            h += 1

    def blocks_in_use(self) -> int:
        """Blocks owned by the whole structure (space accounting)."""
        total = 0

        def rec(bid: int) -> None:
            nonlocal total
            records = self._peek_node(bid)
            total += 1 + len(self._cont_chain(bid))
            if self._is_leaf(records):
                _tag, _w, key_bids, lz_dir, _low = records[0]
                total += len(key_bids)
                # L_z data blocks + its directory (peek: space accounting
                # must not disturb the I/O counters)
                total += len(self._store.peek(lz_dir)) + 1
                return
            total += self._q[bid].num_blocks()
            for e in records[1:]:
                rec(e[1])

        if self._root is not None:
            rec(self._root)
        return total

    # ==================================================================
    # persistence (crash recovery re-attachment; see repro.resilience)
    # ==================================================================
    def snapshot_meta(self) -> dict:
        """Everything needed to re-attach this tree to its blocks.

        The base tree (node blocks, key blocks, leaf lists) is already
        fully on disk; what a crash destroys is the in-memory registry
        of per-node query structures and the counters.  The snapshot is
        a fresh copy each call -- it travels in a journal superblock
        and must never alias live mutable state.
        """
        return {
            "spill": self._spill,
            "a": self.a,
            "k": self.k,
            "root": self._root,
            "count": self._count,
            "ghosts": self._ghosts,
            "rebuilds": self.rebuilds,
            "splits": self.splits,
            "q": {bid: q.snapshot_meta() for bid, q in self._q.items()},
            "scheduler": {
                "name": self.scheduler.name,
                "state": self.scheduler.snapshot_state(),
            },
        }

    @classmethod
    def attach(
        cls, store, meta: dict, *, scheduler: Optional[BubbleUpScheduler] = None
    ) -> "ExternalPrioritySearchTree":
        """Rebuild the in-memory handle over existing blocks (no I/O).

        Inverse of :meth:`snapshot_meta`.  ``scheduler`` overrides the
        snapshot's scheduler *class* (its pending/counter state is
        restored from the snapshot either way); by default the class
        named in the snapshot is instantiated.
        """
        obj = cls.__new__(cls)
        obj._store = store
        obj._spill = meta.get("spill", False)
        obj.a = meta["a"]
        obj.k = meta["k"]
        B = store.block_size
        obj.half = max(1, B // 2)
        obj.y_cap = B
        obj._root = meta["root"]
        obj._count = meta["count"]
        obj._ghosts = meta["ghosts"]
        obj.rebuilds = meta["rebuilds"]
        obj.splits = meta["splits"]
        obj._q = {
            bid: SmallThreeSidedStructure.attach(store, m)
            for bid, m in meta["q"].items()
        }
        if scheduler is None:
            scheduler = ALL_SCHEDULERS[meta["scheduler"]["name"]]()
        scheduler.attach(obj)
        scheduler.restore_state(meta["scheduler"]["state"])
        obj.scheduler = scheduler
        return obj

    # ==================================================================
    # query (Section 3.3.1)
    # ==================================================================
    def query(self, a: float, b: float, c: float) -> List[Point]:
        """3-sided query: all points with ``a <= x <= b`` and ``y >= c``."""
        if self._root is None:
            return []
        lo_key, hi_key = (a, NEG_INF), (b, INF)
        q3 = ThreeSidedQuery(lo_key, hi_key, c)
        out: List[Point] = []
        stack: List[Tuple[int, bool]] = [(self._root, False)]
        while stack:
            bid, interior = stack.pop()
            with span(self._store, "pst.query.descend"):
                records = self._read(bid)
            if self._is_leaf(records):
                with span(self._store, "pst.query.leaf"):
                    _tag, _w, _kb, lz_dir, _low = records[0]
                    lz = BlockedSequence.attach(self._store, lz_dir, _lz_key)
                    if interior:
                        recs, _ = lz.scan_top_while(lambda r: r[1] >= c)
                        out.extend(r[0] for r in recs)
                    else:
                        for r in lz.scan_all():
                            if q3.contains(r):
                                out.append(r[0])
                continue
            header, entries = records[0], records[1:]
            with span(self._store, "pst.query.childq"):
                for r in self._q[bid].query(q3):
                    out.append(r[0])
            left_i = self._route(entries, lo_key)
            right_i = self._route(entries, hi_key)
            for i in range(left_i, right_i + 1):
                e = entries[i]
                if i == left_i or i == right_i:
                    stack.append((e[1], False))
                else:
                    # interior child: visit iff its whole Y-set satisfies
                    # the query, or its Y-set is depleted but points
                    # remain below (deferred-scheduler safety)
                    if e[4] > 0:
                        if e[5] >= c:
                            stack.append((e[1], True))
                    elif e[6] > 0:
                        stack.append((e[1], True))
        return out

    def query_two_sided(self, b: float, c: float) -> List[Point]:
        """Quadrant query ``x <= b, y >= c`` (Figure 1(b)): a 3-sided
        query with the left side unbounded."""
        return self.query(NEG_INF, b, c)

    def query_diagonal_corner(self, q: float) -> List[Point]:
        """Diagonal corner query at ``(q, q)`` (Figure 1(a)): report
        points with ``x <= q <= y`` -- interval stabbing when points
        encode intervals ``(l, r)``."""
        return self.query(NEG_INF, q, q)

    def top_k(self, a: float, b: float, k: int) -> List[Point]:
        """The ``k`` highest-y points with ``a <= x <= b``, descending
        (ties by x ascending).

        Implemented by data-driven threshold descent: 3-sided queries
        with ``c`` dropping from the strip's top, each round doubling the
        explored y-span (taken from the data itself, so the method is
        scale-free).  Typical cost is a few ``O(log_B N + t/B)`` rounds;
        after a bounded number of rounds it falls back to one exact
        full-strip query, so the worst case is
        ``O(log_B N + strip_size/B)`` I/Os.
        """
        if k <= 0 or self._root is None or self._count == 0:
            return []
        probe = self._strip_top(a, b)
        if probe is None:
            return []
        c = probe[1]
        for _round in range(6):
            got = self.query(a, b, c)
            if len(got) >= k:
                got.sort(key=lambda p: (-p[1], p[0]))
                return got[:k]
            m = min(p[1] for p in got)          # got contains the strip top
            span = probe[1] - m
            if span <= 0.0:
                span = max(abs(m), 1.0) * 2.0 ** (-20 + 8 * _round)
            c = m - (2.0 ** _round) * span
        got = self.query(a, b, NEG_INF)
        got.sort(key=lambda p: (-p[1], p[0]))
        return got[:k]

    def _strip_top(self, a: float, b: float) -> Optional[Tuple[float, float]]:
        """Highest point with x in [a, b] (O(log_B N) I/Os).

        Only the two boundary search paths are descended: an interior
        child's Y-set lies wholly inside the strip and is therefore seen
        in its parent's query structure, and the heap discipline bounds
        everything below it by that Y-set's minimum (depleted Y-sets,
        possible under deferred schedulers, are descended defensively).
        """
        lo_key, hi_key = (a, NEG_INF), (b, INF)
        best: Optional[Tuple] = None
        stack = [self._root]
        while stack:
            bid = stack.pop()
            records = self._read(bid)
            if self._is_leaf(records):
                _tag, _w, _kb, lz_dir, _low = records[0]
                lz = BlockedSequence.attach(self._store, lz_dir, _lz_key)
                for r in lz.scan_all():
                    # list is y-descending: the first in-range record is
                    # this leaf's strip maximum
                    if lo_key <= r[0] <= hi_key:
                        if best is None or (r[1], r[0]) > (best[1], best[0]):
                            best = r
                        break
                continue
            header, entries = records[0], records[1:]
            r = self._q[bid].top_in_x_range(lo_key, hi_key)
            if r is not None and (
                best is None or (r[1], r[0]) > (best[1], best[0])
            ):
                best = r
            left_i = self._route(entries, lo_key)
            right_i = self._route(entries, hi_key)
            for i in range(left_i, right_i + 1):
                e = entries[i]
                if i == left_i or i == right_i:
                    stack.append(e[1])       # boundary path: must descend
                elif e[4] == 0 and e[6] > 0:
                    stack.append(e[1])       # depleted Y-set: defensive
        if best is None:
            return None
        return (best[0][0], best[1])

    # ==================================================================
    # insertion
    # ==================================================================
    def insert_many(self, points: Sequence[Point]) -> None:
        """Insert a batch.  On an empty tree this bulk-builds in O(n)
        I/Os; otherwise points are inserted one by one."""
        pts = [(float(p[0]), float(p[1])) for p in points]
        if self._count == 0 and self._ghosts == 0:
            if len(set(pts)) != len(pts):
                raise ValueError("points must be distinct")
            if self._root is not None:
                self._destroy_tree()
            self.scheduler.on_rebuild()
            self._bulk_build(pts)
            return
        for p in pts:
            self.insert(*p)

    def insert(self, x: float, y: float) -> None:
        """Insert a point in O(log_B N) I/Os (amortized with the eager
        scheduler; paced by the configured scheduler otherwise)."""
        x, y = float(x), float(y)
        key = (x, y)
        rec = (key, y)
        if self._root is None:
            lz = BlockedSequence.from_sorted(self._store, [rec], _lz_key)
            bid = self._store.alloc()
            self._write_leaf(bid, 1, self._make_key_blocks([key]), lz.dir_bid, MIN_KEY)
            self._root = bid
            self._count = 1
            return

        # ---- phase 1: insert the key into the base tree ----
        with span(self._store, "pst.insert.descend"):
            path: List[int] = []
            bid = self._root
            while True:
                records = self._read(bid)
                path.append(bid)
                if self._is_leaf(records):
                    break
                header, entries = records[0], records[1:]
                i = self._route(entries, key)
                e = list(entries[i])
                if i == len(entries) - 1 and key > e[2]:
                    e[2] = key  # extend the last separator
                e[3] += 1
                entries[i] = tuple(e)
                self._write_internal(bid, header[1], header[2] + 1, header[3], entries)
                # weights above are incremented but the key is not yet in
                # the leaf: inconsistent until phase 1 completes
                crash_point(self._store, "pst.insert.descend.step")
                bid = e[1]
            # leaf key insert
            records = self._read(bid)
            _tag, weight, key_bids, lz_dir, low = records[0]
            keys = self._read_keys(key_bids)
            pos = bisect_left(keys, key)
            resurrect = pos < len(keys) and keys[pos] == key
            if resurrect:
                # the key already exists: either a ghost of a deleted point
                # (resurrect it) or a live duplicate (caller error)
                self._unwind_weights(path[:-1], key)
            else:
                keys.insert(pos, key)
                self._free_key_blocks(key_bids)
                self._write_leaf(
                    bid, weight + 1, self._make_key_blocks(keys), lz_dir, low
                )
                self._count += 1
        if resurrect:
            if (x, y) in self.query(x, x, y):
                raise ValueError(f"duplicate point {key}")
            self._ghosts -= 1
            self._count += 1
            with span(self._store, "pst.insert.place"):
                self._place(rec)
            return

        # ---- phase 1b: split every node on the path that reached its
        # capacity (their weights are independent, so no early exit) ----
        crash_point(self._store, "pst.insert.before_split")
        with span(self._store, "pst.insert.split"):
            split_bids: List[int] = []
            root_split = False
            if weight + 1 >= 2 * self.k:
                self._split_leaf(path)
                split_bids.append(path[-1])
                crash_point(self._store, "pst.insert.split.leaf")
            for depth in range(len(path) - 2, -1, -1):
                nb = self._read(path[depth])
                level, w = nb[0][1], nb[0][2]
                if w >= 2 * (self.a ** level) * self.k:
                    at_root = depth == 0
                    self._split_internal(path, depth)
                    split_bids.append(path[depth])
                    crash_point(self._store, "pst.insert.split.internal")
                    if at_root:
                        root_split = True

        # ---- phase 2: place the point per the Y-set discipline ----
        # the key is in the base tree but the point is not placed yet
        crash_point(self._store, "pst.insert.before_place")
        with span(self._store, "pst.insert.place"):
            self._place(rec)

        # ---- scheduler turn ----
        with span(self._store, "pst.insert.schedule"):
            self.scheduler.on_insert(path, split_bids, root_split)

    def _unwind_weights(self, internal_path: List[int], key) -> None:
        """Undo the weight increments of a descent (ghost resurrection)."""
        for bid in internal_path:
            records = self._read(bid)
            header, entries = records[0], records[1:]
            i = self._route(entries, key)
            e = list(entries[i])
            e[3] -= 1
            entries[i] = tuple(e)
            self._write_internal(bid, header[1], header[2] - 1, header[3], entries)

    def _place(self, rec: Tuple) -> None:
        """Root-down placement of a record (Section 3.3.2 insert logic)."""
        key = rec[0]
        bid = self._root
        while True:
            # every iteration rewrites one node's summaries; the point
            # itself is in flight between them
            crash_point(self._store, "pst.place.step")
            records = self._read(bid)
            if self._is_leaf(records):
                _tag, _w, _kb, lz_dir, _low = records[0]
                BlockedSequence.attach(self._store, lz_dir, _lz_key).insert(rec)
                return
            header, entries = records[0], records[1:]
            i = self._route(entries, key)
            e = list(entries[i])
            y_count, y_min, sub = e[4], e[5], e[6]
            if sub > 0 and (y_count == 0 or rec[1] < y_min):
                # content beneath and the record is not above the whole
                # Y-set (or the Y-set is depleted): descend, preserving
                # the heap discipline "below <= min(Y)"
                e[6] = sub + 1
                entries[i] = tuple(e)
                self._write_internal(bid, header[1], header[2], header[3], entries)
                bid = e[1]
                continue
            # join the Y-set
            q = self._q[bid]
            q.insert(rec)
            e[4] = y_count + 1
            e[5] = rec[1] if y_min is None else min(y_min, rec[1])
            if e[4] <= self.y_cap:
                entries[i] = tuple(e)
                self._write_internal(bid, header[1], header[2], header[3], entries)
                return
            # overflow: evict the lowest Y-set member downward
            lo, hi = self._child_interval(header, entries, i)
            members = self._report_child(q, lo, hi)
            lowest = min(members, key=lambda r: (r[1], r[0]))
            q.delete(lowest)
            rest = [r for r in members if r != lowest]
            e[4] = len(rest)
            e[5] = min((r[1] for r in rest), default=None)
            e[6] = sub + 1
            entries[i] = tuple(e)
            self._write_internal(bid, header[1], header[2], header[3], entries)
            rec, key = lowest, lowest[0]
            bid = e[1]

    # ==================================================================
    # splits (structural part; Y-set refills go through the scheduler)
    # ==================================================================
    def _split_leaf(self, path: List[int]) -> None:
        store = self._store
        bid = path[-1]
        records = self._read(bid)
        _tag, weight, key_bids, lz_dir, low = records[0]
        keys = self._read_keys(key_bids)
        m = len(keys) // 2
        sep = keys[m - 1]
        left_keys, right_keys = keys[:m], keys[m:]
        lz = BlockedSequence.attach(store, lz_dir, _lz_key)
        all_recs = lz.scan_all()
        left_recs = [r for r in all_recs if r[0] <= sep]
        right_recs = [r for r in all_recs if r[0] > sep]
        lz.destroy()
        # old LZ sequence is gone, replacements not yet linked in
        crash_point(store, "pst.split_leaf.mid")
        lz_left = BlockedSequence.from_sorted(store, left_recs, _lz_key)
        lz_right = BlockedSequence.from_sorted(store, right_recs, _lz_key)
        self._free_key_blocks(key_bids)
        self._write_leaf(bid, len(left_keys), self._make_key_blocks(left_keys),
                         lz_left.dir_bid, low)
        rbid = store.alloc()
        self._write_leaf(rbid, len(right_keys), self._make_key_blocks(right_keys),
                         lz_right.dir_bid, sep)
        self.splits += 1
        self._install_split(
            path, len(path) - 1, bid, rbid, sep,
            len(left_keys), len(right_keys),
            len(left_recs), len(right_recs),
            leaf_level=True,
        )

    def _split_internal(self, path: List[int], depth: int) -> None:
        store = self._store
        bid = path[depth]
        records = self._read(bid)
        header, entries = records[0], records[1:]
        level, weight, low = header[1], header[2], header[3]
        # cut at the child boundary closest to half the weight
        target = weight // 2
        acc, cut, best_gap = 0, 1, None
        for i, e in enumerate(entries[:-1]):
            acc += e[3]
            gap = abs(acc - target)
            if best_gap is None or gap < best_gap:
                best_gap, cut = gap, i + 1
        left_e, right_e = entries[:cut], entries[cut:]
        sep = left_e[-1][2]
        lw = sum(e[3] for e in left_e)
        rw = weight - lw
        # split the query structure
        q = self._q.pop(bid)
        pts = q.all_points()
        q.destroy()
        self.scheduler.on_node_destroyed(bid)
        # the node's query structure is destroyed, halves not yet built
        crash_point(store, "pst.split_internal.mid")
        left_pts = [r for r in pts if r[0] <= sep]
        right_pts = [r for r in pts if r[0] > sep]
        self._q[bid] = self._new_q(left_pts)
        rbid = store.alloc()
        self._q[rbid] = self._new_q(right_pts)
        self._write_internal(bid, level, lw, low, list(left_e))
        self._write_internal(rbid, level, rw, sep, list(right_e))
        self.splits += 1
        lsub = sum(e[4] + e[6] for e in left_e)
        rsub = sum(e[4] + e[6] for e in right_e)
        self._install_split(
            path, depth, bid, rbid, sep, lw, rw, lsub, rsub, leaf_level=False,
        )

    def _install_split(
        self, path: List[int], depth: int,
        left_bid: int, right_bid: int, sep,
        lw: int, rw: int, lsub: int, rsub: int, leaf_level: bool,
    ) -> None:
        """Register a split with the parent (or grow a new root), fixing
        Y-set summaries and scheduling refills."""
        store = self._store
        if depth == 0:
            # the split node was the root: new root one level above
            old = store.peek(left_bid)
            level = 1 if old[0][0] == "L" else old[0][1] + 1
            root = store.alloc()
            self._q[root] = self._new_q([])
            entries = [
                ("C", left_bid, sep, lw, 0, None, lsub),
                ("C", right_bid, MAX_KEY, rw, 0, None, rsub),
            ]
            crash_point(store, "pst.install_split.new_root")
            self._write_internal(root, level, lw + rw, MIN_KEY, entries)
            self._root = root
            self.scheduler.register_refill(root, left_bid)
            self.scheduler.register_refill(root, right_bid)
            return
        pbid = path[depth - 1]
        precords = self._read(pbid)
        pheader, pentries = precords[0], precords[1:]
        slot = next(i for i, e in enumerate(pentries) if e[1] == left_bid)
        old_sep = pentries[slot][2]
        # partition the old Y-set summary between the halves by probing
        # the parent's query structure (O(1) blocks)
        plow = pheader[3] if slot == 0 else pentries[slot - 1][2]
        members = self._report_child(self._q[pbid], plow, old_sep)
        yl = [r for r in members if r[0] <= sep]
        yr = [r for r in members if r[0] > sep]
        pentries[slot] = (
            "C", left_bid, sep, lw,
            len(yl), min((r[1] for r in yl), default=None), lsub,
        )
        pentries.insert(slot + 1, (
            "C", right_bid, old_sep, rw,
            len(yr), min((r[1] for r in yr), default=None), rsub,
        ))
        # both halves exist on disk but the parent still routes to one
        crash_point(store, "pst.install_split.parent")
        self._write_internal(pbid, pheader[1], pheader[2], pheader[3], pentries)
        self.scheduler.register_refill(pbid, left_bid)
        self.scheduler.register_refill(pbid, right_bid)

    # ==================================================================
    # bubble-ups (promotions)
    # ==================================================================
    def refill_deficit(self, parent_bid: int, child_bid: int) -> int:
        """How many promotions ``child_bid``'s Y-set still needs."""
        try:
            records = self._read(parent_bid)
        except StorageError:
            return 0  # node freed since the refill was scheduled
        if self._is_leaf(records):
            return 0
        for e in records[1:]:
            if e[1] == child_bid:
                if e[6] <= 0:
                    return 0
                return max(0, self.half - e[4])
        return 0

    def promote_once(self, parent_bid: int, child_bid: int) -> bool:
        """One complete bubble-up: move the top point of ``child_bid``'s
        subtree into its Y-set inside ``parent_bid``'s query structure."""
        try:
            records = self._read(parent_bid)
        except StorageError:
            return False  # node freed since the promotion was scheduled
        if self._is_leaf(records):
            return False
        header, entries = records[0], records[1:]
        slot = next(
            (i for i, e in enumerate(entries) if e[1] == child_bid), None
        )
        if slot is None:
            return False
        e = list(entries[slot])
        if e[6] <= 0 or e[4] >= self.y_cap:
            return False
        r = self._take_top(child_bid)
        if r is None:
            e[6] = 0  # stale sub-count; repair
            entries[slot] = tuple(e)
            self._write_internal(parent_bid, header[1], header[2], header[3], entries)
            return False
        self._q[parent_bid].insert(r)
        e[4] += 1
        e[5] = r[1] if e[5] is None else min(e[5], r[1])
        e[6] -= 1
        entries[slot] = tuple(e)
        self._write_internal(parent_bid, header[1], header[2], header[3], entries)
        return True

    def _peek_top(self, bid: int) -> Optional[Tuple]:
        """The highest record in ``bid``'s subtree without removing it.

        With eager scheduling this is just ``Q``'s top (the heap
        discipline puts the subtree maximum there); a deferred scheduler
        can leave a child's Y-set depleted while points remain below it,
        and those subtrees must be peeked recursively."""
        records = self._read(bid)
        if self._is_leaf(records):
            _tag, _w, _kb, lz_dir, _low = records[0]
            return BlockedSequence.attach(self._store, lz_dir, _lz_key).peek_top()
        best = self._q[bid].top()
        for e in records[1:]:
            if e[4] == 0 and e[6] > 0:
                r = self._peek_top(e[1])
                if r is not None and (
                    best is None or (r[1], r[0]) > (best[1], best[0])
                ):
                    best = r
        return best

    def _take_top(self, bid: int) -> Optional[Tuple]:
        """Remove and return the highest point stored in ``bid``'s
        subtree (strictly below its parent), refilling Y-sets on the way
        down.  O(1) I/Os per level (plus depleted-child peeks while a
        deferred scheduler has refills outstanding)."""
        records = self._read(bid)
        if self._is_leaf(records):
            _tag, _w, _kb, lz_dir, _low = records[0]
            return BlockedSequence.attach(self._store, lz_dir, _lz_key).pop_top()
        header, entries = records[0], records[1:]
        q = self._q[bid]
        top = q.top()
        # the true subtree top may hide below a child whose Y-set a
        # deferred scheduler has left depleted
        hidden_slot = None
        for i, e in enumerate(entries):
            if e[4] == 0 and e[6] > 0:
                r = self._peek_top(e[1])
                if r is not None and (
                    top is None or (r[1], r[0]) > (top[1], top[0])
                ):
                    top, hidden_slot = r, i
        if top is None:
            return None
        if hidden_slot is not None:
            r = self._take_top(entries[hidden_slot][1])
            e2 = list(entries[hidden_slot])
            e2[6] -= 1
            entries[hidden_slot] = tuple(e2)
            self._write_internal(bid, header[1], header[2], header[3], entries)
            return r
        q.delete(top)
        i = self._route(entries, top[0])
        e = list(entries[i])
        e[4] -= 1
        lo, hi = self._child_interval(header, entries, i)
        rest = self._report_child(q, lo, hi)
        e[5] = min((r[1] for r in rest), default=None)
        if e[4] < self.half and e[6] > 0:
            r = self._take_top(e[1])
            if r is not None:
                q.insert(r)
                e[4] += 1
                e[5] = r[1] if e[5] is None else min(e[5], r[1])
                e[6] -= 1
        entries[i] = tuple(e)
        self._write_internal(bid, header[1], header[2], header[3], entries)
        return top

    # ==================================================================
    # deletion (Section 3.3.2, lazy ghosts + global rebuilding)
    # ==================================================================
    def delete(self, x: float, y: float) -> bool:
        """Delete a point in O(log_B N) I/Os amortized; True if present."""
        if self._root is None:
            return False
        key = (float(x), float(y))
        rec = (key, key[1])
        path: List[Tuple[int, int]] = []  # (bid, entry slot taken)
        bid = self._root
        found = False
        while True:
            records = self._read(bid)
            if self._is_leaf(records):
                _tag, _w, _kb, lz_dir, _low = records[0]
                lz = BlockedSequence.attach(self._store, lz_dir, _lz_key)
                found = lz.remove(rec)
                break
            header, entries = records[0], records[1:]
            i = self._route(entries, key)
            e = list(entries[i])
            # is the point in this child's Y-set?
            probe = self._q[bid].query(ThreeSidedQuery(key, key, key[1]))
            if rec in probe:
                q = self._q[bid]
                q.delete(rec)
                e[4] -= 1
                lo, hi = self._child_interval(header, entries, i)
                rest = self._report_child(q, lo, hi)
                e[5] = min((r[1] for r in rest), default=None)
                if e[4] < self.half and e[6] > 0:
                    r = self._take_top(e[1])
                    if r is not None:
                        q.insert(r)
                        e[4] += 1
                        e[5] = r[1] if e[5] is None else min(e[5], r[1])
                        e[6] -= 1
                entries[i] = tuple(e)
                self._write_internal(bid, header[1], header[2], header[3], entries)
                found = True
                break
            if e[6] <= 0:
                return False  # nothing below: the point is absent
            path.append((bid, i))
            bid = e[1]
        if not found:
            return False
        # the removed point counted toward sub_count in every proper
        # ancestor of the node it lived in
        for abid, slot in path:
            # sub_counts above are stale until the whole unwind finishes
            crash_point(self._store, "pst.delete.unwind.step")
            records = self._read(abid)
            header, entries = records[0], records[1:]
            e = list(entries[slot])
            e[6] -= 1
            entries[slot] = tuple(e)
            self._write_internal(abid, header[1], header[2], header[3], entries)
        self._count -= 1
        self._ghosts += 1
        if self._ghosts >= max(self._count, 4 * self._store.block_size):
            self.rebuild()
        return True

    # ==================================================================
    # global rebuilding
    # ==================================================================
    def all_points(self) -> List[Point]:
        """Every live point (walks the whole structure)."""
        out: List[Point] = []

        def rec(bid: int) -> None:
            records = self._read(bid)
            if self._is_leaf(records):
                _tag, _w, _kb, lz_dir, _low = records[0]
                lz = BlockedSequence.attach(self._store, lz_dir, _lz_key)
                out.extend(r[0] for r in lz.scan_all())
                return
            out.extend(r[0] for r in self._q[bid].all_points())
            for e in records[1:]:
                rec(e[1])

        if self._root is not None:
            rec(self._root)
        return out

    def rebuild(self) -> None:
        """Global rebuild (Section 3.3.2's lazy deletion backstop)."""
        pts = self.all_points()
        self._destroy_tree()
        # the entire old tree is freed; nothing is rebuilt yet
        crash_point(self._store, "pst.rebuild.mid")
        self.scheduler.on_rebuild()
        self.rebuilds += 1
        self._bulk_build(pts)

    def _destroy_tree(self) -> None:
        def rec(bid: int) -> None:
            records = self._read(bid)
            if self._is_leaf(records):
                _tag, _w, key_bids, lz_dir, _low = records[0]
                self._free_key_blocks(key_bids)
                BlockedSequence.attach(self._store, lz_dir, _lz_key).destroy()
            else:
                for e in records[1:]:
                    rec(e[1])
                self._q.pop(bid).destroy()
            self._free_node(bid)

        if self._root is not None:
            rec(self._root)
        self._root = None

    # ==================================================================
    # invariants
    # ==================================================================
    def check_invariants(self, strict_ysets: bool = True) -> None:
        """Validate every structural guarantee of Section 3.3.

        ``strict_ysets=False`` relaxes the ``|Y| >= B/2`` rule to what a
        deferred scheduler guarantees (Y-sets may be under-full but must
        still be the TOPMOST points of their subtrees).
        """
        if self._root is None:
            assert self._count == 0
            return

        def rec(bid: int, lo, hi, is_root: bool):
            """returns (n_keys, n_points, max_y_below, level)"""
            records = self._peek_node(bid)
            if self._is_leaf(records):
                _tag, w, key_bids, lz_dir, low = records[0]
                assert low == lo, "leaf low bound stale"
                keys = []
                for kb in key_bids:
                    keys.extend(self._store.peek(kb))
                assert keys == sorted(keys), "leaf keys out of order"
                assert len(keys) == w, "leaf weight mismatch"
                if not is_root:
                    # bulk build may leave leaves around k/2; splits keep
                    # them under 2k
                    assert max(1, self.k // 2) <= len(keys) <= 2 * self.k - 1, (
                        f"leaf weight {len(keys)} outside bounds"
                    )
                for kk in keys:
                    assert lo < kk <= hi, "leaf key outside interval"
                lz = BlockedSequence.attach(self._store, lz_dir, _lz_key)
                lz.check_invariants()
                recs = lz.scan_all()
                for r in recs:
                    assert lo < r[0] <= hi, "leaf point outside interval"
                    assert r[0] in keys, "leaf point without key"
                max_y = max((r[1] for r in recs), default=None)
                return len(keys), len(recs), max_y, 0

            header, entries = records[0], records[1:]
            level, weight, low = header[1], header[2], header[3]
            assert low == lo, "internal low bound stale"
            q = self._q[bid]
            q.check_invariants()
            qpts = q.all_points()
            for r in qpts:
                assert lo < r[0] <= hi, "Q point outside node interval"
            total_keys, total_pts = 0, len(qpts)
            max_y_all = max((r[1] for r in qpts), default=None)
            prev = lo
            for e in entries:
                _tag, cbid, sep, w, y_count, y_min, sub = e
                assert prev < sep or sep == MAX_KEY, "separators out of order"
                members = [r for r in qpts if prev < r[0] <= min(sep, hi)]
                assert len(members) == y_count, (
                    f"y_count {y_count} != actual {len(members)}"
                )
                if members:
                    assert y_min == min(r[1] for r in members), "y_min stale"
                else:
                    assert y_min is None
                ck, cp, cmax, clevel = rec(cbid, prev, sep, False)
                assert clevel == level - 1, "uneven child levels"
                assert ck == w, "child weight stale"
                assert cp == sub, f"sub_count {sub} != actual {cp}"
                if members and cmax is not None:
                    assert cmax <= min(r[1] for r in members), (
                        "heap violation: below exceeds min(Y)"
                    )
                if strict_ysets and cp > 0:
                    assert y_count >= self.half, (
                        f"Y-set underfull ({y_count}) with content below"
                    )
                if cmax is not None:
                    max_y_all = cmax if max_y_all is None else max(max_y_all, cmax)
                total_keys += ck
                total_pts += cp
                prev = sep
            assert total_keys == weight, "internal weight mismatch"
            if not is_root:
                cap = 2 * (self.a ** level) * self.k
                assert weight < cap, "overweight internal node"
            return total_keys, total_pts, max_y_all, level

        nkeys, npts, _my, _lvl = rec(self._root, MIN_KEY, MAX_KEY, True)
        assert npts == self._count, f"live count {self._count} != {npts}"
        assert nkeys == self._count + self._ghosts, "key/ghost accounting"
