"""Snapshot-consistent reads: frozen epochs under advancing writers.

Long-running analytical queries must not block the write path, and the
write path must not shear the data out from under them.  The serving
tier solves this with block-level copy-on-write epochs layered on the
persistence machinery from the resilience layer:

- :class:`SnapshotStore` sits directly above a shard's physical
  :class:`~repro.io.BlockStore`.  While at least one epoch is open,
  the first write or free touching a block *preserves its pre-image*
  (one honest read I/O -- the classic read-before-write price of COW)
  before letting the operation through.
- Opening an epoch captures the structure's ``snapshot_meta()`` -- the
  same re-attachment state a :class:`~repro.resilience.JournaledStore`
  anchors in its superblock -- so the pair ``(epoch, meta)`` is a
  *snapshot anchor*: everything needed to mount a read-only view of
  the shard exactly as it was.
- :class:`SnapshotReader` presents the storage protocol over that
  anchor: preserved blocks are served from the undo map, untouched
  blocks read through to the live disk (charging physical I/O), and
  any mutation raises.  A structure ``attach()``-ed to a reader
  answers queries against the frozen state while writers advance the
  live blocks.

Epochs are cheap to hold (the undo map grows only with blocks the
writers actually touch) but not free; close them promptly.
:attr:`SnapshotStore.open_epochs` lists the ones held.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, List, Set, Tuple

from repro.io.blockstore import Block, StorageError
from repro.io.checksum import CorruptBlockError
from repro.io.layer import StoreLayer


class _Epoch:
    """Bookkeeping for one open snapshot epoch."""

    __slots__ = ("epoch_id", "undo", "new", "next_bid")

    def __init__(self, epoch_id: int, next_bid: int = 0):
        self.epoch_id = epoch_id
        self.undo: Dict[int, Tuple[Any, ...]] = {}  # bid -> pre-image
        self.new: Set[int] = set()                  # bids born after the epoch
        self.next_bid = next_bid                    # allocator watermark at open


class SnapshotStore(StoreLayer):
    """Copy-on-write storage layer tracking open snapshot epochs.

    Standard storage protocol; with no epoch open every operation is a
    straight pass-through adding zero physical I/O.  Thread-safe for
    the serving tier's discipline (one writer per shard, any number of
    snapshot readers).
    """

    def __init__(self, store):
        super().__init__(store)
        self._epochs: Dict[int, _Epoch] = {}
        self._next_epoch = 0
        self._lock = threading.Lock()

    # live reads, peeks and flushes pass straight through; defined on the
    # class so the per-layer tracer (perfbench/tracing.py) finds them in
    # its __dict__
    read = StoreLayer.read
    peek = StoreLayer.peek
    flush = StoreLayer.flush

    # ------------------------------------------------------------------
    # mutations (pre-image capture)
    # ------------------------------------------------------------------
    def _preserve(self, bid: int) -> None:
        with self._lock:
            if not any(
                bid not in ep.undo and bid not in ep.new
                for ep in self._epochs.values()
            ):
                return
        try:
            records = self._store.read(bid).records
        except CorruptBlockError:
            # a rotten pre-image: the mutation must not land without
            # one, or no rollback could undo it
            raise
        except StorageError:
            return  # unallocated: let the mutation raise its own error
        self.preserve(bid, records)

    def preserve(self, bid: int, records: Tuple[Any, ...]) -> None:
        """Keep ``records`` as ``bid``'s pre-image in every open epoch
        that has none yet (a repair write passes the verified payload
        when the live bytes are rotten)."""
        with self._lock:
            for ep in self._epochs.values():
                if bid not in ep.undo and bid not in ep.new:
                    ep.undo[bid] = records

    def alloc(self) -> int:
        """Allocate; blocks born after an epoch are invisible to it."""
        bid = self._store.alloc()
        if self._epochs:
            with self._lock:
                for ep in self._epochs.values():
                    ep.new.add(bid)
        return bid

    def write(self, bid: int, records: Iterable[Any]) -> None:
        """Write through, preserving the pre-image for open epochs.

        Raises :class:`~repro.io.checksum.CorruptBlockError` (nothing
        written) when an epoch needs the pre-image and it is rotten.
        """
        if self._epochs:
            self._preserve(bid)
        self._store.write(bid, records)

    def free(self, bid: int) -> None:
        """Free through, preserving the pre-image for open epochs (a
        rotten one raises as in :meth:`write`)."""
        if self._epochs:
            self._preserve(bid)
        self._store.free(bid)

    # ------------------------------------------------------------------
    # epoch lifecycle
    # ------------------------------------------------------------------
    def open_epoch(self) -> int:
        """Start tracking pre-images; returns the epoch id."""
        next_bid = getattr(self.physical_store, "next_bid", 0)
        with self._lock:
            eid = self._next_epoch
            self._next_epoch += 1
            self._epochs[eid] = _Epoch(eid, next_bid)
            return eid

    def close_epoch(self, epoch_id: int) -> None:
        """Drop an epoch and its undo map (idempotent)."""
        with self._lock:
            self._epochs.pop(epoch_id, None)

    def rollback_epoch(self, epoch_id: int) -> int:
        """Restore every block the epoch preserved and drop the epoch.

        The undo map *is* a per-epoch undo log: writing the pre-images
        back, freeing blocks born inside the epoch and rewinding the
        allocator watermark returns the disk to its state at
        :meth:`open_epoch` -- the primitive the replica layer uses to
        abort a half-applied operation instead of retiring the whole
        replica.  The allocator rewind matters for replication: a
        rolled-back-and-retried op re-allocates the *same* block ids,
        keeping healthy replicas block-for-block mirrors (the property
        same-bid peer repair rests on).  Restores charge honest write
        I/O.  Returns the number of blocks restored.  Caller must hold
        the shard's writer lock (concurrent readers would see the
        rewind).
        """
        with self._lock:
            ep = self._epochs.pop(epoch_id, None)
        if ep is None:
            raise StorageError(f"epoch {epoch_id} is not open")
        for bid in sorted(ep.new):
            try:
                self._store.free(bid)
            except StorageError:
                pass  # already freed during the epoch
        restored = 0
        for bid, records in sorted(ep.undo.items()):
            try:
                self._store.write(bid, records)
            except StorageError:
                # freed during the epoch: re-install at the same id
                self._store.place(bid, records)
            restored += 1
        phys = self.physical_store
        if hasattr(phys, "rewind_ids"):
            phys.rewind_ids(ep.next_bid)
        return restored

    @property
    def open_epochs(self) -> List[int]:
        """Ids of the currently open epochs."""
        with self._lock:
            return sorted(self._epochs)

    def epoch_writes(self, epoch_id: int) -> List[int]:
        """Bids written during an open epoch (pre-imaged or epoch-born).

        The pre-ack verification target: corrupt faults scribble only
        blocks being *written*, so sweeping these CRCs (no I/O) before
        acknowledging an op catches silent write-rot while the epoch's
        undo log can still cure it.
        """
        with self._lock:
            ep = self._epochs.get(epoch_id)
            if ep is None:
                raise StorageError(f"epoch {epoch_id} is not open")
            return sorted(set(ep.undo) | set(ep.new))

    def reader(self, epoch_id: int) -> "SnapshotReader":
        """A read-only storage view pinned to ``epoch_id``."""
        with self._lock:
            if epoch_id not in self._epochs:
                raise StorageError(f"epoch {epoch_id} is not open")
        return SnapshotReader(self, epoch_id)

    def __repr__(self) -> str:
        return f"SnapshotStore(epochs={self.open_epochs})"


class SnapshotReader(StoreLayer):
    """Read-only storage protocol over one frozen epoch.

    Preserved blocks come from the undo map (in a real system these
    reads hit the snapshot area, not the live disk, so they are kept
    out of the live I/O counters); untouched blocks read through and
    cost physical
    I/O like any other read.  Mutations raise :class:`StorageError`.
    """

    def __init__(self, snapstore: SnapshotStore, epoch_id: int):
        super().__init__(snapstore)
        self._snap = snapstore
        self.epoch_id = epoch_id

    def _pre_image(self, bid: int):
        with self._snap._lock:
            ep = self._snap._epochs.get(self.epoch_id)
            if ep is None:
                raise StorageError(f"epoch {self.epoch_id} was closed")
            pre = ep.undo.get(bid)
            if pre is None and bid in ep.new:
                raise StorageError(
                    f"block {bid} was born after epoch {self.epoch_id}"
                )
            return pre

    def _frozen(self, bid: int, live: Callable[[int], Any]):
        """``live(bid)``, or ``bid``'s pre-image payload.

        A writer preserves a block's pre-image *before* it overwrites or
        frees the block, so the undo map is checked again after the
        live access: a pre-image that appeared meanwhile means the live
        access may have seen post-epoch data (or a freed block), and the
        pre-image wins.  No pre-image on the re-check means no mutation
        of ``bid`` began before it, so the live access saw the frozen
        state.
        """
        pre = self._pre_image(bid)
        if pre is None:
            try:
                out = live(bid)
            except StorageError:
                pre = self._pre_image(bid)
                if pre is None:
                    raise
            else:
                pre = self._pre_image(bid)
                if pre is None:
                    return out
        return pre

    def read(self, bid: int) -> Block:
        """Read the block as it was when the epoch opened."""
        out = self._frozen(bid, self._store.read)
        return out if isinstance(out, Block) else Block(bid, out)

    def peek(self, bid: int):
        """Inspect the frozen block without charging I/O."""
        return self._frozen(bid, self._store.peek)

    def write(self, bid: int, records) -> None:
        raise StorageError("snapshot readers are immutable")

    def alloc(self) -> int:
        raise StorageError("snapshot readers are immutable")

    def free(self, bid: int) -> None:
        raise StorageError("snapshot readers are immutable")

    def flush(self) -> None:
        """No-op (nothing a reader could have buffered)."""

    def __repr__(self) -> str:
        return f"SnapshotReader(epoch={self.epoch_id})"


class ShardSnapshot:
    """A mounted frozen view of one shard: anchor + attached structure.

    Created by ``Shard.snapshot()`` under the shard's writer lock, so
    the captured ``meta`` and the epoch's first pre-images are mutually
    consistent (no write can interleave).  Queries afterwards take no
    shard lock at all -- that is the point: the snapshot *is* the
    isolation.
    """

    def __init__(
        self,
        snapstore: SnapshotStore,
        epoch_id: int,
        meta: dict,
        attach: Callable[[Any, dict], Any],
        x_lo: float,
        x_hi: float,
    ):
        self._snap = snapstore
        self.epoch_id = epoch_id
        self.meta = meta
        self.x_lo = x_lo
        self.x_hi = x_hi
        self._reader = snapstore.reader(epoch_id)
        self._structure = attach(self._reader, meta)
        self._closed = False

    def query3(self, a: float, b: float, c: float) -> List[tuple]:
        """3-sided query against the frozen epoch."""
        if self._closed:
            raise StorageError("snapshot is closed")
        return self._structure.query(a, b, c)

    def query4(self, a: float, b: float, c: float, d: float) -> List[tuple]:
        """4-sided query against the frozen epoch (3-sided + y filter)."""
        return [p for p in self.query3(a, b, c) if p[1] <= d]

    @property
    def count(self) -> int:
        """Live records in the frozen state."""
        return self._structure.count

    def all_points(self) -> List[tuple]:
        """Every point in the frozen state (reads the whole snapshot)."""
        if self._closed:
            raise StorageError("snapshot is closed")
        return self._structure.all_points()

    def close(self) -> None:
        """Release the epoch and its pre-images (idempotent)."""
        if not self._closed:
            self._closed = True
            self._snap.close_epoch(self.epoch_id)

    def __enter__(self) -> "ShardSnapshot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"ShardSnapshot(epoch={self.epoch_id}, {state})"
