"""Tests for the static variants (Section 5's practical recommendation)."""

import random

import pytest

from repro.geometry import INF, NEG_INF, Orientation
from repro.io import BlockStore, StoreLayer
from repro.io.stats import Meter
from repro.core.static_index import StaticFourSidedIndex, StaticThreeSidedIndex
from repro.core.external_pst import ExternalPrioritySearchTree
from repro.core.threesided_scheme import block_live_at
from tests.conftest import brute_3sided, brute_4sided, make_points


def reference_candidates(meta, **bounds):
    """Independent oracle: a linear filter over the snapshot's catalog,
    in catalog order -- the block ids a query must read."""
    q = Orientation(meta["orientation"]).query_to_canonical(**bounds)
    return [
        bid
        for (x_lo, x_hi, y_from, y_to, _block), bid in meta["catalog"]
        if block_live_at(y_from, y_to, q.c) and x_lo <= q.b and x_hi >= q.a
    ]


class HintRecorder(StoreLayer):
    """Records every prefetch hint and every block read, in order."""

    def __init__(self, store):
        super().__init__(store)
        self.hints = []
        self.reads = []

    def prefetch_hint(self, bids):
        self.hints.append(list(bids))

    def read(self, bid):
        self.reads.append(bid)
        return self._store.read(bid)


# original-frame bounds of the canonical query (a, b, c), and the
# original-frame predicate it selects, per open side
_BOUNDS = {
    "up": lambda a, b, c: dict(x_lo=a, x_hi=b, y_lo=c),
    "down": lambda a, b, c: dict(x_lo=a, x_hi=b, y_hi=-c),
    "right": lambda a, b, c: dict(y_lo=a, y_hi=b, x_lo=c),
    "left": lambda a, b, c: dict(y_lo=a, y_hi=b, x_hi=-c),
}
_PRED = {
    "up": lambda p, k: k["x_lo"] <= p[0] <= k["x_hi"] and p[1] >= k["y_lo"],
    "down": lambda p, k: k["x_lo"] <= p[0] <= k["x_hi"] and p[1] <= k["y_hi"],
    "right": lambda p, k: k["y_lo"] <= p[1] <= k["y_hi"] and p[0] >= k["x_lo"],
    "left": lambda p, k: k["y_lo"] <= p[1] <= k["y_hi"] and p[0] <= k["x_hi"],
}


def _grid_points(rng, n, width):
    """n distinct integer points on a width x width grid, so x and y
    values repeat."""
    cells = rng.sample(range(width * width), n)
    return [(cell % width, cell // width) for cell in cells]


def _queries(rng, pts, side):
    """Canonical (a, b, c) triples covering c = -inf, +inf and exact
    point levels, a == b, and random ranges."""
    orient = Orientation(side)
    canon = [orient.to_canonical(p) for p in pts] or [(0, 0)]
    xs = sorted({p[0] for p in canon})
    ys = sorted({p[1] for p in canon})
    levels = [NEG_INF, INF] + ys[:3] + ys[-2:] + rng.sample(ys, min(4, len(ys)))
    out = []
    for c in levels:
        x = rng.choice(xs)
        out.append((x, x, c))                        # a == b
        a, b = sorted(rng.sample(xs, 2)) if len(xs) > 1 else (xs[0], xs[0])
        out.append((a, b, c))
        out.append((NEG_INF, INF, c))
        out.append((a - 0.5, b + 0.5, c + 0.5))      # between grid values
    return out


class TestCandidateIndexDifferential:
    """The interval index against a brute-force catalog filter."""

    def _check_handle(self, idx, rec, pts, side, queries):
        meta = idx.snapshot_meta()
        for a, b, c in queries:
            bounds = _BOUNDS[side](a, b, c)
            expected = reference_candidates(meta, **bounds)
            assert idx.candidate_blocks(**bounds) == len(expected)
            rec.hints.clear()
            rec.reads.clear()
            got = idx.query(**bounds)
            assert rec.reads == expected
            assert rec.hints == ([expected] if len(expected) > 1 else [])
            assert sorted(got) == sorted(
                p for p in pts if _PRED[side](p, bounds))

    @pytest.mark.parametrize("side", ["up", "down", "left", "right"])
    @pytest.mark.parametrize("B", [2, 4, 32])
    @pytest.mark.parametrize("alpha", [2, 3])
    def test_matches_catalog_filter(self, side, B, alpha):
        rng = random.Random(f"{side}-{B}-{alpha}")
        # n = 0 is the empty index
        for n, width in ((0, 4), (1, 4), (7, 3), (60, 10), (150, 14)):
            pts = _grid_points(rng, n, width)
            rec = HintRecorder(BlockStore(B))
            idx = StaticThreeSidedIndex(rec, pts, alpha=alpha, orientation=side)
            idx.check_invariants()
            queries = _queries(rng, pts, side)
            self._check_handle(idx, rec, pts, side, queries)
            again = StaticThreeSidedIndex.attach(rec, idx.snapshot_meta())
            self._check_handle(again, rec, pts, side, queries)
            again.check_invariants()

    def test_broken_run_order_is_caught(self, rng):
        idx = StaticThreeSidedIndex(BlockStore(4), make_points(rng, 80))
        run = idx._index
        # swap two x_hi values inside the longest run
        lengths = [run.off[v + 1] - run.off[v] for v in range(len(run.off) - 1)]
        v = max(range(len(lengths)), key=lengths.__getitem__)
        k = run.off[v]
        run.xhi[k], run.xhi[k + 1] = run.xhi[k + 1], run.xhi[k]
        with pytest.raises(AssertionError):
            idx.check_invariants()


class TestStaticThreeSided:
    def test_query_differential(self, store, rng):
        pts = make_points(rng, 500)
        idx = StaticThreeSidedIndex(store, pts)
        idx.check_invariants()
        for _ in range(80):
            a = rng.uniform(0, 1000)
            b = a + rng.uniform(0, 400)
            c = rng.uniform(0, 1000)
            got = idx.query(x_lo=a, x_hi=b, y_lo=c)
            assert sorted(got) == brute_3sided(pts, a, b, c)

    @pytest.mark.parametrize("side,kwargs,pred", [
        ("left", dict(x_hi=600.0, y_lo=200.0, y_hi=700.0),
         lambda p: p[0] <= 600 and 200 <= p[1] <= 700),
        ("right", dict(x_lo=300.0, y_lo=200.0, y_hi=700.0),
         lambda p: p[0] >= 300 and 200 <= p[1] <= 700),
        ("down", dict(x_lo=100.0, x_hi=800.0, y_hi=450.0),
         lambda p: 100 <= p[0] <= 800 and p[1] <= 450),
    ])
    def test_orientations(self, store, rng, side, kwargs, pred):
        pts = make_points(rng, 300)
        idx = StaticThreeSidedIndex(store, pts, orientation=side)
        got = idx.query(**kwargs)
        assert sorted(got) == sorted(p for p in pts if pred(p))

    def test_query_io_is_candidates_only(self, rng):
        """No search I/O: reads == candidate blocks exactly."""
        B = 16
        store = BlockStore(B)
        pts = make_points(rng, 600)
        idx = StaticThreeSidedIndex(store, pts)
        meta = idx.snapshot_meta()
        for _ in range(30):
            a = rng.uniform(0, 1000)
            b = a + rng.uniform(0, 300)
            c = rng.uniform(0, 1000)
            expected = len(reference_candidates(meta, x_lo=a, x_hi=b, y_lo=c))
            with Meter(store) as m:
                idx.query(x_lo=a, x_hi=b, y_lo=c)
            assert m.delta.reads == expected
            assert m.delta.writes == 0

    def test_query_io_beats_pst_constant(self, rng):
        """The static trade: fewer I/Os per query than the dynamic PST."""
        B = 32
        pts = make_points(rng, 2000)
        s1, s2 = BlockStore(B), BlockStore(B)
        static = StaticThreeSidedIndex(s1, pts)
        pst = ExternalPrioritySearchTree(s2, pts)
        static_io = pst_io = 0
        for _ in range(25):
            a = rng.uniform(0, 1000)
            b = a + rng.uniform(0, 300)
            c = rng.uniform(0, 1000)
            with Meter(s1) as m1:
                g1 = static.query(x_lo=a, x_hi=b, y_lo=c)
            with Meter(s2) as m2:
                g2 = pst.query(a, b, c)
            assert sorted(g1) == sorted(g2)
            static_io += m1.delta.ios
            pst_io += m2.delta.ios
        assert static_io < pst_io

    def test_space_matches_scheme(self, store, rng):
        pts = make_points(rng, 400)
        idx = StaticThreeSidedIndex(store, pts, alpha=2)
        # ~2n blocks for alpha = 2
        assert idx.blocks_in_use() <= 2 * (len(pts) // store.block_size) + 3
        assert idx.memory_catalog_entries() == idx.blocks_in_use()

    def test_destroy(self, rng):
        store = BlockStore(16)
        idx = StaticThreeSidedIndex(store, make_points(rng, 100))
        idx.destroy()
        assert store.blocks_in_use == 0


class TestStaticFourSided:
    def test_query_differential(self, store, rng):
        pts = make_points(rng, 600)
        idx = StaticFourSidedIndex(store, pts, rho=4)
        idx.check_invariants()
        for _ in range(60):
            a = rng.uniform(0, 1000)
            b = a + rng.uniform(0, 400)
            c = rng.uniform(0, 1000)
            d = c + rng.uniform(0, 400)
            got = idx.query(a, b, c, d)
            assert sorted(got) == brute_4sided(pts, a, b, c, d)

    def test_query_io_matches_directory(self, rng):
        B = 16
        store = BlockStore(B)
        pts = make_points(rng, 600)
        idx = StaticFourSidedIndex(store, pts, rho=4)
        for _ in range(20):
            a = rng.uniform(0, 1000)
            b = a + rng.uniform(0, 400)
            c = rng.uniform(0, 1000)
            d = c + rng.uniform(0, 400)
            expected = idx.blocks_for_query(a, b, c, d)
            with Meter(store) as m:
                idx.query(a, b, c, d)
            assert m.delta.reads == expected

    def test_space_tracks_levels(self, store, rng):
        pts = make_points(rng, 500)
        idx = StaticFourSidedIndex(store, pts, rho=2)
        per_level = 2 * 2.2 * (len(pts) / store.block_size)  # 2 sides x r<=2.2
        assert idx.blocks_in_use() <= per_level * idx.num_levels() + 10

    def test_destroy(self, rng):
        store = BlockStore(16)
        idx = StaticFourSidedIndex(store, make_points(rng, 200))
        idx.destroy()
        assert store.blocks_in_use == 0


class TestStaticPersistence:
    """snapshot_meta()/attach() for the static 3-sided index."""

    def test_round_trip(self, store, rng):
        pts = make_points(rng, 200)
        idx = StaticThreeSidedIndex(store, pts)
        again = StaticThreeSidedIndex.attach(store, idx.snapshot_meta())
        assert again.count == len(pts)
        for _ in range(15):
            a, b = sorted((rng.uniform(0, 1000), rng.uniform(0, 1000)))
            c = rng.uniform(0, 1000)
            got = again.query(x_lo=a, x_hi=b, y_lo=c)
            assert sorted(got) == brute_3sided(pts, a, b, c)
        again.check_invariants()

    def test_attach_is_lazy_then_reads_blocks(self, store, rng):
        pts = make_points(rng, 120)
        idx = StaticThreeSidedIndex(store, pts)
        meta = idx.snapshot_meta()
        with Meter(store) as m:
            again = StaticThreeSidedIndex.attach(store, meta)
        assert m.delta.ios == 0            # attach itself is free
        with Meter(store) as m:
            assert sorted(again.points()) == sorted(pts)
        assert m.delta.reads > 0           # point reload is honest I/O
