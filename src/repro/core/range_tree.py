"""Section 4: the dynamic 4-sided range searching structure (Theorem 7).

A base tree of fan-out ``rho = Theta(log_B N)`` over the x-order of the
points.  Every node ``v`` stores all points of its x-range in auxiliary
structures:

- a LEFT-open 3-sided structure (queries ``x <= b, c <= y <= d``),
- a RIGHT-open 3-sided structure (queries ``x >= a, c <= y <= d``),
- a y-sorted list (a B+-tree keyed on ``(y, x)``).

Both 3-sided structures are external priority search trees over rotated
coordinates (Theorem 6), so each level stores every point in three
linear-space structures; with ``O(log_rho n) = O(log n / log log_B N)``
levels the total is ``O(n log n / log log_B N)`` blocks -- Theorem 7's
space bound.

A query ``(a, b, c, d)`` routes to the lowest node whose x-range covers
``[a, b]``; the child holding ``a`` answers a right-open query, the child
holding ``b`` a left-open one, and each fully-spanned middle child
reports its y-range ``[c, d]`` by an in-order scan of its y-list.

Deviations from the paper, recorded here and in DESIGN.md:

- The paper reaches each middle child's list entry point through an
  external interval tree of y-segments with embedded list links, making
  the middle phase ``O(rho + t)``.  We locate each middle child's entry
  by a B+-tree descent instead: ``O(rho log_B N + t)``.  With
  ``rho = log_B N`` this adds at most a ``log_B N`` factor on the
  additive ``rho`` term and leaves the output-sensitive term intact; the
  stand-alone interval tree (the paper's substrate) lives in
  :mod:`repro.substrates.interval_tree` and is evaluated in E9.
- The base tree is rebalanced by global rebuilding (rebuild after
  ``N_0/2`` updates) plus local leaf splits, i.e. the amortized variant;
  the paper sketches a weight-balanced base with the Section 3.3
  machinery for worst-case updates.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.geometry import INF, NEG_INF, FourSidedQuery, Point
from repro.core.external_pst import ExternalPrioritySearchTree
from repro.obs.spans import span
from repro.substrates.bplus_tree import BPlusTree

MIN_KEY = (NEG_INF, NEG_INF)
MAX_KEY = (INF, INF)


class _Node:
    """One base-tree node: x-interval, children, auxiliary structures."""

    __slots__ = ("low", "high", "children", "seps", "right_pst", "left_pst",
                 "ylist", "npoints")

    def __init__(self, low, high):
        self.low = low                   # exclusive composite bound
        self.high = high                 # inclusive composite bound
        self.children: List["_Node"] = []
        self.seps: List[Tuple] = []      # child upper bounds (composite)
        self.right_pst: Optional[ExternalPrioritySearchTree] = None
        self.left_pst: Optional[ExternalPrioritySearchTree] = None
        self.ylist: Optional[BPlusTree] = None
        self.npoints = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children


class ExternalRangeTree:
    """Dynamic 4-sided range searching (Theorem 7).

    Parameters
    ----------
    store:
        Block storage (defines ``B``).
    points:
        Initial point set; distinct ``(x, y)`` pairs.
    rho:
        Base-tree fan-out; defaults to ``max(2, round(log_B N))`` at
        build time, the paper's choice.
    """

    def __init__(self, store, points: Sequence[Point] = (), rho: Optional[int] = None):
        self._store = store
        self._rho_fixed = rho
        pts = [(float(x), float(y)) for x, y in points]
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        self.rebuilds = 0
        self._root: Optional[_Node] = None
        self._count = 0
        self._updates = 0
        self._bulk_build(pts)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _choose_rho(self, n_points: int) -> int:
        if self._rho_fixed is not None:
            return max(2, self._rho_fixed)
        B = self._store.block_size
        if n_points <= B:
            return 2
        return max(2, round(math.log(n_points) / math.log(B)))

    def _bulk_build(self, pts: List[Point]) -> None:
        self._count = len(pts)
        self._built_n = len(pts)
        self._updates = 0
        self.rho = self._choose_rho(len(pts))
        recs = sorted(((p[0], p[1]) for p in pts))  # key order = (x, y)
        self._root = self._build(recs, MIN_KEY, MAX_KEY)

    def _build(self, recs: List[Point], low, high) -> _Node:
        node = _Node(low, high)
        B = self._store.block_size
        leaf_cap = self.rho * B
        self._attach_aux(node, recs, leaf=len(recs) <= leaf_cap)
        if len(recs) <= leaf_cap:
            return node
        m = self.rho
        base, extra = divmod(len(recs), m)
        cuts = [0]
        for i in range(m):
            cuts.append(cuts[-1] + base + (1 if i < extra else 0))
        prev = low
        for i in range(m):
            chunk = recs[cuts[i]:cuts[i + 1]]
            sep = (chunk[-1][0], chunk[-1][1]) if i < m - 1 else high
            node.children.append(self._build(chunk, prev, sep))
            node.seps.append(sep)
            prev = sep
        return node

    def _attach_aux(self, node: _Node, recs: List[Point], leaf: bool = False) -> None:
        node.npoints = len(recs)
        if not leaf:
            # RIGHT-open: rotate (x, y) -> (y, x); query x>=a becomes y'>=a
            node.right_pst = ExternalPrioritySearchTree(
                self._store, [(y, x) for x, y in recs]
            )
            # LEFT-open: rotate (x, y) -> (y, -x); query x<=b becomes y'>=-b
            node.left_pst = ExternalPrioritySearchTree(
                self._store, [(y, -x) for x, y in recs]
            )
        # leaves answer every query by scanning their <= rho*B points, so
        # the two 3-sided structures would never be consulted there; the
        # paper's leaf procedure ("load the rho blocks of S_0j") agrees
        node.ylist = BPlusTree.bulk_load(
            self._store,
            sorted((((y, x), None) for x, y in recs)),
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of live records stored."""
        return self._count

    def num_levels(self) -> int:
        """Number of levels in the hierarchy."""
        h, node = 1, self._root
        while node is not None and not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    def blocks_in_use(self) -> int:
        """Number of blocks the structure owns."""
        total = 0

        def rec(node: _Node) -> None:
            nonlocal total
            if node.right_pst is not None:
                total += node.right_pst.blocks_in_use()
                total += node.left_pst.blocks_in_use()
            # B+-tree block count: walk it without I/O accounting
            total += self._bplus_blocks(node.ylist)
            for ch in node.children:
                rec(ch)

        if self._root is not None:
            rec(self._root)
        return total

    def _bplus_blocks(self, tree: BPlusTree) -> int:
        count = 0
        stack = [tree.root_bid]
        while stack:
            bid = stack.pop()
            count += 1
            records = self._store.peek(bid)
            if records[0][0] == "I":
                stack.extend(child for _sep, child in records[1:])
        return count

    # ------------------------------------------------------------------
    # query
    # ------------------------------------------------------------------
    def query(self, a: float, b: float, c: float, d: float) -> List[Point]:
        """All points with ``a <= x <= b`` and ``c <= y <= d``."""
        if self._root is None or self._count == 0:
            return []
        lo_key, hi_key = (a, NEG_INF), (b, INF)
        node = self._root
        # descend to the lowest node whose x-range covers [a, b]
        while not node.is_leaf:
            ci = self._route(node, lo_key)
            cj = self._route(node, hi_key)
            if ci != cj:
                break
            node = node.children[ci]
        if node.is_leaf:
            with span(self._store, "rt.leaf_scan"):
                return self._scan_leaf(node, a, b, c, d)
        ci = self._route(node, lo_key)
        cj = self._route(node, hi_key)
        out: List[Point] = []
        with span(self._store, "rt.right_open"):
            out.extend(self._right_open(node.children[ci], a, c, d))
        with span(self._store, "rt.left_open"):
            out.extend(self._left_open(node.children[cj], b, c, d))
        with span(self._store, "rt.middle"):
            for k in range(ci + 1, cj):
                out.extend(self._middle(node.children[k], c, d))
        return out

    @staticmethod
    def _route(node: _Node, key) -> int:
        for i, sep in enumerate(node.seps):
            if key <= sep:
                return i
        return len(node.seps) - 1

    def _scan_leaf(self, node: _Node, a, b, c, d) -> List[Point]:
        """Load the whole leaf set (<= rho blocks) and filter."""
        q = FourSidedQuery(a, b, c, d)
        out = []
        for (y, x), _none in node.ylist.items():
            if q.contains((x, y)):
                out.append((x, y))
        return out

    def _right_open(self, child: _Node, a, c, d) -> List[Point]:
        if child.is_leaf:
            return self._scan_leaf(child, a, INF, c, d)
        pts = child.right_pst.query(c, d, a)   # rotated frame (y, x)
        return [(x, y) for y, x in pts]

    def _left_open(self, child: _Node, b, c, d) -> List[Point]:
        if child.is_leaf:
            return self._scan_leaf(child, NEG_INF, b, c, d)
        pts = child.left_pst.query(c, d, -b)   # rotated frame (y, -x)
        return [(-nx, y) for y, nx in pts]

    def _middle(self, child: _Node, c, d) -> List[Point]:
        """Fully-spanned child: in-order scan of its y-list over [c, d]."""
        pairs, _reads = child.ylist.scan_from(
            (c, NEG_INF), lambda k, v: k[0] <= d
        )
        return [(x, y) for (y, x), _none in pairs]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, x: float, y: float) -> None:
        """Insert a point: O(log_B N) work at each of the
        O(log n / log log_B N) covering nodes, then amortized global
        rebuilding."""
        x, y = float(x), float(y)
        if self._root is None:
            self._bulk_build([(x, y)])
            return
        key = (x, y)
        node = self._root
        while True:
            if node.right_pst is not None:
                with span(self._store, "rt.insert.psts"):
                    node.right_pst.insert(y, x)
                    node.left_pst.insert(y, -x)
            with span(self._store, "rt.insert.ylist"):
                node.ylist.insert((y, x), None)
            node.npoints += 1
            if node.is_leaf:
                break
            i = self._route(node, key)
            if i == len(node.seps) - 1 and key > node.seps[i] and node.seps[i] != MAX_KEY:
                node.seps[i] = key
            node = node.children[i]
        self._count += 1
        self._note_update()

    def delete(self, x: float, y: float) -> bool:
        """Delete a point; True if present."""
        if self._root is None:
            return False
        x, y = float(x), float(y)
        key = (x, y)
        # the root y-list is the membership oracle: if the point is absent
        # there, nothing has been touched yet
        node = self._root
        if not node.ylist.delete((y, x), None):
            return False
        if node.right_pst is not None:
            node.right_pst.delete(y, x)
            node.left_pst.delete(y, -x)
        node.npoints -= 1
        while not node.is_leaf:
            i = self._route(node, key)
            node = node.children[i]
            node.ylist.delete((y, x), None)
            if node.right_pst is not None:
                node.right_pst.delete(y, x)
                node.left_pst.delete(y, -x)
            node.npoints -= 1
        self._count -= 1
        self._note_update()
        return True

    def _note_update(self) -> None:
        self._updates += 1
        # rebuild after half the size at the LAST rebuild, so the trigger
        # cannot recede as inserts grow the structure
        base = max(self._built_n, 4 * self._store.block_size)
        if self._updates >= base // 2:
            self.rebuild()

    def rebuild(self) -> None:
        """Global rebuild (the paper's amortized rebalancing backstop)."""
        pts = self.all_points()
        self._destroy()
        self.rebuilds += 1
        self._bulk_build(pts)

    def all_points(self) -> List[Point]:
        """Every live point (reads the whole structure)."""
        if self._root is None:
            return []
        return [(x, y) for (y, x), _none in self._root.ylist.items()]

    def _destroy(self) -> None:
        # The simulated store reclaims blocks through free(); walking
        # every structure to free is O(space), done only at rebuilds.
        def rec(node: _Node) -> None:
            if node.right_pst is not None:
                node.right_pst._destroy_tree()
                node.left_pst._destroy_tree()
            self._free_bplus(node.ylist)
            for ch in node.children:
                rec(ch)

        if self._root is not None:
            rec(self._root)
        self._root = None

    def _free_bplus(self, tree: BPlusTree) -> None:
        stack = [tree.root_bid]
        while stack:
            bid = stack.pop()
            records = self._store.peek(bid)
            if records[0][0] == "I":
                stack.extend(child for _sep, child in records[1:])
            self._store.free(bid)

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Aux structures at every node agree with each other and the
        base partition."""
        if self._root is None:
            assert self._count == 0
            return

        def rec(node: _Node, lo, hi) -> List[Point]:
            ypts = [(x, y) for (y, x), _ in node.ylist.items()]
            assert len(ypts) == node.npoints, "npoints stale"
            for x, y in ypts:
                assert lo < (x, y) <= hi, "point outside node interval"
            if node.right_pst is not None:
                rpts = {(x, y) for y, x in node.right_pst.all_points()}
                lpts = {(x, y) for y, nx in node.left_pst.all_points() for x in [-nx]}
                assert rpts == set(ypts), "right PST disagrees with ylist"
                assert lpts == set(ypts), "left PST disagrees with ylist"
                node.right_pst.check_invariants()
                node.left_pst.check_invariants()
            else:
                assert node.is_leaf, "internal node missing 3-sided structures"
            node.ylist.check_invariants()
            if node.is_leaf:
                return ypts
            assert len(node.children) == len(node.seps)
            union: List[Point] = []
            prev = lo
            for ch, sep in zip(node.children, node.seps):
                union.extend(rec(ch, prev, sep))
                prev = sep
            assert sorted(union) == sorted(ypts), "children lose points"
            return ypts

        total = rec(self._root, MIN_KEY, MAX_KEY)
        assert len(total) == self._count
