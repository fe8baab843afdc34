"""Tests for the PST convenience queries and bulk operations."""

import pickle

import pytest

from repro.io import BlockStore
from repro.io.stats import Meter
from repro.core.external_pst import ExternalPrioritySearchTree
from tests.conftest import make_points


def _mk(rng, n, B=16):
    store = BlockStore(B)
    pts = make_points(rng, n)
    return store, pts, ExternalPrioritySearchTree(store, pts)


class TestSpecialQueries:
    def test_two_sided(self, rng):
        store, pts, pst = _mk(rng, 400)
        for _ in range(30):
            b = rng.uniform(0, 1000)
            c = rng.uniform(0, 1000)
            got = pst.query_two_sided(b, c)
            assert sorted(got) == sorted(
                p for p in pts if p[0] <= b and p[1] >= c
            )

    def test_diagonal_corner(self, rng):
        store, pts, pst = _mk(rng, 400)
        for _ in range(30):
            q = rng.uniform(0, 1000)
            got = pst.query_diagonal_corner(q)
            assert sorted(got) == sorted(
                p for p in pts if p[0] <= q <= p[1]
            )


class TestTopK:
    def test_top_k_exact(self, rng):
        store, pts, pst = _mk(rng, 600)
        for _ in range(25):
            a = rng.uniform(0, 1000)
            b = a + rng.uniform(0, 500)
            k = rng.randrange(1, 40)
            got = pst.top_k(a, b, k)
            want = sorted(
                (p for p in pts if a <= p[0] <= b),
                key=lambda p: (-p[1], p[0]),
            )[:k]
            assert got == want

    def test_top_k_more_than_available(self, rng):
        store, pts, pst = _mk(rng, 100)
        got = pst.top_k(-1, 1001, 10 ** 6)
        assert len(got) == 100
        ys = [p[1] for p in got]
        assert ys == sorted(ys, reverse=True)

    def test_top_k_empty_strip(self, rng):
        store, pts, pst = _mk(rng, 100)
        assert pst.top_k(5000, 6000, 5) == []

    def test_top_k_zero_and_empty_tree(self, rng):
        store, pts, pst = _mk(rng, 50)
        assert pst.top_k(0, 1000, 0) == []
        empty = ExternalPrioritySearchTree(BlockStore(16))
        assert empty.top_k(0, 1, 3) == []

    def test_top_k_with_tied_y(self):
        store = BlockStore(16)
        pts = [(float(i), float(i % 3)) for i in range(90)]
        pst = ExternalPrioritySearchTree(store, pts)
        got = pst.top_k(10, 40, 8)
        want = sorted(
            (p for p in pts if 10 <= p[0] <= 40),
            key=lambda p: (-p[1], p[0]),
        )[:8]
        assert got == want

    def test_top_k_tiny_y_scale(self, rng):
        """Scale-free descent: y values clustered within 1e-9."""
        store = BlockStore(16)
        pts = [(float(i), 1e-9 * (i % 13)) for i in range(150)]
        pst = ExternalPrioritySearchTree(store, pts)
        got = pst.top_k(20, 120, 6)
        want = sorted(
            (p for p in pts if 20 <= p[0] <= 120),
            key=lambda p: (-p[1], p[0]),
        )[:6]
        assert got == want

    def test_top_k_io_modest_for_small_k(self, rng):
        B = 32
        store = BlockStore(B)
        pts = make_points(rng, 4000)
        pst = ExternalPrioritySearchTree(store, pts)
        with Meter(store) as m:
            pst.top_k(200, 800, 5)
        # a handful of logarithmic rounds, far below a strip scan
        assert m.delta.ios < 400


class TestStripTop:
    def test_strip_top_matches_brute(self, rng):
        store, pts, pst = _mk(rng, 500)
        for _ in range(40):
            a = rng.uniform(0, 1000)
            b = a + rng.uniform(0, 400)
            got = pst._strip_top(a, b)
            cand = [p for p in pts if a <= p[0] <= b]
            want = max(cand, key=lambda p: (p[1], -p[0])) if cand else None
            if want is None:
                assert got is None
            else:
                assert got is not None and got[1] == want[1]

    def test_strip_top_after_updates(self, rng):
        store, pts, pst = _mk(rng, 300)
        live = set(pts)
        for p in sorted(pts, key=lambda p: -p[1])[:60]:
            pst.delete(*p)
            live.discard(p)
        got = pst._strip_top(-1, 1001)
        want = max(live, key=lambda p: (p[1], -p[0]))
        assert got is not None and got[1] == want[1]


class TestInsertMany:
    def test_bulk_on_empty(self, rng):
        store = BlockStore(16)
        pst = ExternalPrioritySearchTree(store)
        pts = make_points(rng, 300)
        pst.insert_many(pts)
        pst.check_invariants()
        assert sorted(pst.all_points()) == sorted(pts)

    def test_incremental_on_nonempty(self, rng):
        store, pts, pst = _mk(rng, 100)
        extra = [(x + 2000, y) for x, y in make_points(rng, 50)]
        pst.insert_many(extra)
        pst.check_invariants()
        assert pst.count == 150

    def test_bulk_duplicate_rejection(self, rng):
        store = BlockStore(16)
        pst = ExternalPrioritySearchTree(store)
        with pytest.raises(ValueError):
            pst.insert_many([(1, 1), (1, 1)])


class TestStorePersistence:
    def test_save_load_round_trip(self, rng, tmp_path):
        store, pts, pst = _mk(rng, 200)
        path = str(tmp_path / "disk.img")
        store.save(path)
        clone = BlockStore.load(path)
        assert clone.block_size == store.block_size
        assert clone.blocks_in_use == store.blocks_in_use
        assert clone.stats.ios == store.stats.ios
        # the raw blocks are identical
        for bid in store.block_ids():
            assert clone.peek(bid) == store.peek(bid)

    def test_loaded_store_keeps_allocating(self, rng, tmp_path):
        store = BlockStore(8)
        a = store.alloc()
        store.write(a, [1, 2])
        path = str(tmp_path / "disk.img")
        store.save(path)
        clone = BlockStore.load(path)
        b = clone.alloc()
        assert b != a
        clone.write(b, [3])
        assert clone.read(b).records == (3,)

    def test_loads_images_with_list_payloads(self, tmp_path):
        # the image layout of stores saved while payloads were lists
        path = str(tmp_path / "old.img")
        with open(path, "wb") as fh:
            pickle.dump({"block_size": 4, "blocks": {0: [1, 2], 2: []},
                         "next_bid": 3, "stats": (5, 6, 3, 1)}, fh)
        store = BlockStore.load(path)
        block = store.read(0)
        assert block.records == (1, 2)
        with pytest.raises(TypeError):
            block.records[0] = 9
        assert store.read(0).records == (1, 2)
        assert store.peek(2) == ()
        assert (store.stats.reads, store.stats.writes) == (7, 6)
        assert store.alloc() == 3
