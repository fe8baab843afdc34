"""Storage-protocol conformance for every :class:`StoreLayer` subclass.

Each layer is built directly over a :class:`BlockStore` and must look
like that store from above: same ``block_size``, same ``stats``, the
store itself as ``physical_store``, and exactly one physical transfer
and one observer event per protocol operation -- except where a layer
documents otherwise (a pool serves hits and defers writes; a snapshot
reader refuses mutations).  Named crash points must reach a
:class:`FaultyStore` through any stack of layers.
"""

import pytest

from repro.io import (
    BlockStore,
    BufferPool,
    ChecksummedStore,
    IOStats,
    StorageError,
    StoreLayer,
    TraceRecorder,
    crash_point,
)
from repro.resilience import (
    FaultSchedule,
    FaultyStore,
    JournaledStore,
    RetryingStore,
    SimulatedCrash,
)
from repro.resilience.verifier import _SiteCounter
from repro.serve.snapshots import SnapshotReader, SnapshotStore


def _open_reader(store):
    snap = SnapshotStore(store)
    return snap.reader(snap.open_epoch())


#: layer class -> builder over a given store
LAYERS = {
    ChecksummedStore: ChecksummedStore,
    SnapshotStore: SnapshotStore,
    SnapshotReader: _open_reader,
    FaultyStore: lambda s: FaultyStore(s, FaultSchedule(0)),
    RetryingStore: RetryingStore,
    JournaledStore: JournaledStore,
    TraceRecorder: TraceRecorder,
    BufferPool: lambda s: BufferPool(s, 4),
    _SiteCounter: _SiteCounter,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_library_layer_is_covered():
    found = {c for c in _subclasses(StoreLayer)
             if c.__module__.startswith("repro.")}
    assert found == set(LAYERS)


def _build(cls):
    base = BlockStore(8)
    layer = LAYERS[cls](base)
    events = []
    base.add_observer(lambda op, bid: events.append((op, bid)))
    return base, layer, events


def _moved(base, before):
    delta = base.stats - before
    return (delta.reads, delta.writes, delta.allocs, delta.frees)


@pytest.mark.parametrize("cls", list(LAYERS), ids=lambda c: c.__name__)
class TestConformance:
    def test_shares_the_base_stores_identity(self, cls):
        base, layer, _ = _build(cls)
        assert layer.block_size == base.block_size
        assert layer.stats is base.stats
        assert layer.physical_store is base

    def test_each_operation_is_one_physical_transfer(self, cls):
        base, layer, events = _build(cls)
        bid = base.alloc()
        base.write(bid, [1, 2])
        del events[:]
        if cls is SnapshotReader:
            for mutate in (layer.alloc, lambda: layer.write(bid, [3]),
                           lambda: layer.free(bid)):
                before = base.stats.copy()
                with pytest.raises(StorageError):
                    mutate()
                assert _moved(base, before) == (0, 0, 0, 0)
            before = base.stats.copy()
            assert layer.read(bid).records == [1, 2]
            assert _moved(base, before) == (1, 0, 0, 0)
            assert events == [("read", bid)]
            return

        before = base.stats.copy()
        new = layer.alloc()
        assert _moved(base, before) == (0, 0, 1, 0)
        before = base.stats.copy()
        assert layer.read(bid).records == [1, 2]
        assert _moved(base, before) == (1, 0, 0, 0)
        before = base.stats.copy()
        layer.write(bid, [3])
        layer.flush()   # a pool defers the write until here
        assert _moved(base, before) == (0, 1, 0, 0)
        before = base.stats.copy()
        layer.free(new)
        assert _moved(base, before) == (0, 0, 0, 1)
        assert events == [
            ("alloc", new), ("read", bid), ("write", bid), ("free", new),
        ]
        assert layer.peek(bid) == [3]
        assert layer.blocks_in_use == base.blocks_in_use
        assert layer.block_ids() == base.block_ids()

    def test_observers_see_physical_operations(self, cls):
        base, layer, _ = _build(cls)
        seen = []
        layer.add_observer(lambda op, bid: seen.append(op))
        bid = base.alloc()
        base.write(bid, [1])
        layer.read(bid)
        layer.remove_observer(seen.append)   # unknown callback: no error
        if cls is BufferPool:
            # documented: pool observers see cache events, not transfers
            assert seen == ["miss"]
        else:
            assert seen == ["alloc", "write", "read"]


def test_pool_hits_cost_no_transfer():
    base, pool, _ = _build(BufferPool)
    bid = base.alloc()
    base.write(bid, [1])
    pool.read(bid)
    before = base.stats.copy()
    pool.read(bid)
    assert base.stats - before == IOStats()


# FaultyStore and _SiteCounter own a hook; a read-only reader tops a stack
CRASH_FORWARDERS = [
    c for c in LAYERS if c not in (FaultyStore, _SiteCounter, SnapshotReader)
] + [SnapshotReader]


@pytest.mark.parametrize(
    "stack",
    [[c] for c in CRASH_FORWARDERS] + [CRASH_FORWARDERS],
    ids=lambda st: "+".join(c.__name__ for c in st),
)
def test_crash_points_reach_the_faulty_store(stack):
    faulty = FaultyStore(BlockStore(8), FaultSchedule(0, crash_at_points=(0,)))
    top = faulty
    for cls in stack:
        top = LAYERS[cls](top)
    with pytest.raises(SimulatedCrash):
        crash_point(top, "layer.step")
    assert faulty.schedule.points_seen == 1


def test_layers_without_a_hook_below_have_none():
    for cls, build in LAYERS.items():
        layer = build(BlockStore(8))
        expected = cls.__dict__.get("crash_hook")
        if expected is None:
            assert layer.crash_hook is None
        crash_point(layer, "no.faults")   # never raises without a FaultyStore
