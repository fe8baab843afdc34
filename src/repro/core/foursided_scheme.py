"""Section 2.2.2: the rho-ary layered indexing scheme for 4-sided queries.

Construction (Theorem 5).  The x-sorted point set is cut into level-0 sets
of ``rho * B`` consecutive points; level ``i`` unions ``rho`` consecutive
level-``i-1`` sets, up to a single root set.  Every set carries *two*
Theorem-4 indexing schemes over its points: one answering 3-sided queries
open to the LEFT, one open to the RIGHT.

A query ``(a, b, c, d)`` is routed to the lowest set whose x-range
contains ``[a, b]``.  Its children split the query into a right-open part
(in the child holding ``a``), a left-open part (in the child holding
``b``), and fully-spanned middle parts, each covered by ``O(|q_i|/B + 1)``
blocks of the child's 3-sided schemes -- ``O(rho + t)`` blocks in total.
With ``O(log_rho n)`` levels of linear-size schemes the redundancy is
``O(log n / log rho)``, matching the Theorem 2 lower bound.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.geometry import (
    INF,
    NEG_INF,
    FourSidedQuery,
    Orientation,
    Point,
    sort_by_x,
)
from repro.core.threesided_scheme import ThreeSidedSweepIndex
from repro.indexability.scheme import IndexingScheme

#: Identifies one physical block of the layered scheme:
#: (level, set_index, side, block_index) with side in {"left", "right"}.
BlockId = Tuple[int, int, str, int]


class _SetNode:
    """One set S_{i,j}: its x-extent and its two 3-sided schemes."""

    __slots__ = ("level", "index", "points", "x_sep_lo", "x_sep_hi",
                 "left_index", "right_index")

    def __init__(
        self,
        level: int,
        index: int,
        points: List[Point],
        x_sep_lo: float,
        x_sep_hi: float,
        block_size: int,
        alpha: int,
    ):
        self.level = level
        self.index = index
        self.points = points
        # routing interval (x_sep_lo, x_sep_hi]
        self.x_sep_lo = x_sep_lo
        self.x_sep_hi = x_sep_hi
        self.left_index = ThreeSidedSweepIndex(
            points, block_size, alpha, orientation=Orientation.LEFT
        )
        self.right_index = ThreeSidedSweepIndex(
            points, block_size, alpha, orientation=Orientation.RIGHT
        )

    def covers(self, a: float, b: float) -> bool:
        return self.x_sep_lo < a and b <= self.x_sep_hi


class FourSidedLayeredIndex:
    """The Theorem 5 indexing scheme for general orthogonal range queries.

    Parameters
    ----------
    points:
        Distinct planar points.
    block_size:
        The paper's ``B``.
    rho:
        Fan-out of the hierarchy (>= 2).  Redundancy is
        ``O(log n / log rho)``; queries touch ``O(rho + t)`` blocks.
    alpha:
        Coalescing arity passed to the 3-sided schemes.
    """

    def __init__(
        self,
        points: Sequence[Point],
        block_size: int,
        rho: int = 2,
        alpha: int = 2,
    ):
        if rho < 2:
            raise ValueError("rho must be >= 2")
        self.block_size = block_size
        self.rho = rho
        self.alpha = alpha
        self.points = sort_by_x(points)
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be distinct")
        # levels[i] = list of _SetNode at level i (level 0 finest)
        self.levels: List[List[_SetNode]] = []
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        N = len(self.points)
        if N == 0:
            return
        B, rho = self.block_size, self.rho
        leaf_span = rho * B

        # level 0: consecutive runs of rho*B points
        cuts = list(range(0, N, leaf_span)) + [N]
        level0: List[_SetNode] = []
        for j in range(len(cuts) - 1):
            chunk = self.points[cuts[j]:cuts[j + 1]]
            lo = NEG_INF if j == 0 else self.points[cuts[j] - 1][0]
            hi = INF if j == len(cuts) - 2 else chunk[-1][0]
            level0.append(_SetNode(0, j, chunk, lo, hi, B, self.alpha))
        self.levels.append(level0)

        # higher levels: union rho consecutive sets
        while len(self.levels[-1]) > 1:
            below = self.levels[-1]
            level: List[_SetNode] = []
            for j in range(0, len(below), rho):
                group = below[j:j + rho]
                pts: List[Point] = []
                for s in group:
                    pts.extend(s.points)
                node = _SetNode(
                    len(self.levels), len(level), pts,
                    group[0].x_sep_lo, group[-1].x_sep_hi, B, self.alpha,
                )
                level.append(node)
            self.levels.append(level)
        # the root must span everything
        root = self.levels[-1][0]
        root.x_sep_lo, root.x_sep_hi = NEG_INF, INF

    # ------------------------------------------------------------------
    # Shape / accounting
    # ------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        """Number of points indexed."""
        return len(self.points)

    @property
    def num_levels(self) -> int:
        """Number of levels in the hierarchy."""
        return len(self.levels)

    @property
    def num_blocks(self) -> int:
        """Number of blocks the structure owns."""
        return sum(
            s.left_index.num_blocks + s.right_index.num_blocks
            for level in self.levels
            for s in level
        )

    @property
    def redundancy(self) -> float:
        """Measured redundancy ``r = B * blocks / N``."""
        if not self.points:
            return 0.0
        return self.block_size * self.num_blocks / len(self.points)

    def redundancy_bound(self) -> float:
        """Theorem 5 envelope: 2*(1+1/(alpha-1))*levels plus rounding."""
        per_level = 2.0 * (1.0 + 1.0 / (self.alpha - 1))
        return per_level * self.num_levels + per_level

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def _children(self, node: _SetNode) -> List[_SetNode]:
        if node.level == 0:
            return []
        below = self.levels[node.level - 1]
        return below[node.index * self.rho: node.index * self.rho + self.rho]

    def _route(self, a: float, b: float) -> _SetNode:
        """Lowest set whose routing x-range contains [a, b]."""
        node = self.levels[-1][0]
        while True:
            nxt = None
            for child in self._children(node):
                if child.covers(a, b):
                    nxt = child
                    break
            if nxt is None:
                return node
            node = nxt

    def query(self, q: FourSidedQuery) -> Tuple[List[Point], List[BlockId]]:
        """Answer ``q``; returns ``(points, block ids read)``.

        Block ids identify blocks of the per-set 3-sided schemes, so the
        returned list's length is the access cost the experiments charge.
        """
        if not self.points:
            return [], []
        node = self._route(q.a, q.b)
        blocks: List[BlockId] = []
        out: List[Point] = []

        children = self._children(node)
        if not children:
            # leaf set: load the whole set (its initial x-partition blocks
            # inside either scheme hold every point exactly once).
            pts, used = node.right_index.query_oriented(
                x_lo=NEG_INF, y_lo=q.c, y_hi=q.d
            )
            blocks.extend(
                (node.level, node.index, "right", bi) for bi in used
            )
            out.extend(p for p in pts if q.contains(p))
            return out, blocks

        # locate the children holding a and b
        ci = next(
            (k for k, ch in enumerate(children) if ch.x_sep_lo < q.a <= ch.x_sep_hi),
            0,
        )
        cj = next(
            (k for k, ch in enumerate(children) if ch.x_sep_lo < q.b <= ch.x_sep_hi),
            len(children) - 1,
        )
        for k in range(ci, cj + 1):
            child = children[k]
            if k == ci and k == cj:
                # node is the lowest cover, so this can only happen when
                # routing hit the root with degenerate separators; fall
                # back to a right-open query filtered exactly.
                pts, used = child.right_index.query_oriented(
                    x_lo=q.a, y_lo=q.c, y_hi=q.d
                )
                side = "right"
            elif k == ci:
                pts, used = child.right_index.query_oriented(
                    x_lo=q.a, y_lo=q.c, y_hi=q.d
                )
                side = "right"
            elif k == cj:
                pts, used = child.left_index.query_oriented(
                    x_hi=q.b, y_lo=q.c, y_hi=q.d
                )
                side = "left"
            else:
                # fully spanned: degenerate right-open query
                pts, used = child.right_index.query_oriented(
                    x_lo=NEG_INF, y_lo=q.c, y_hi=q.d
                )
                side = "right"
            blocks.extend((child.level, child.index, side, bi) for bi in used)
            out.extend(p for p in pts if q.contains(p))
        return out, blocks

    # ------------------------------------------------------------------
    # Indexability view
    # ------------------------------------------------------------------
    def as_indexing_scheme(self) -> IndexingScheme:
        """All physical blocks across all levels and both orientations."""
        all_blocks: List[List[Point]] = []
        for level in self.levels:
            for s in level:
                for idx in range(s.left_index.num_blocks):
                    all_blocks.append(s.left_index.block_points(idx))
                for idx in range(s.right_index.num_blocks):
                    all_blocks.append(s.right_index.block_points(idx))
        return IndexingScheme(self.block_size, all_blocks)

    def check_invariants(self) -> None:
        """Validate hierarchy shape and per-set schemes."""
        if not self.points:
            return
        assert len(self.levels[-1]) == 1, "no single root"
        for li, level in enumerate(self.levels):
            total = sum(len(s.points) for s in level)
            assert total == len(self.points), f"level {li} loses points"
            for s in level:
                s.left_index.check_invariants()
                s.right_index.check_invariants()
        # each level's set count shrinks by ~rho
        for li in range(1, len(self.levels)):
            assert len(self.levels[li]) == math.ceil(
                len(self.levels[li - 1]) / self.rho
            )
