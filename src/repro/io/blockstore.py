"""The simulated disk: a store of fixed-capacity blocks.

A block holds at most ``block_size`` records.  A record is any Python
object; the structures in this repository store tuples (points, catalog
entries, child pointers).  Every :meth:`BlockStore.read` and
:meth:`BlockStore.write` increments exact counters, which is how all
experiments measure I/O cost.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Iterable, Iterator, List

from repro.io.stats import IOStats

#: Signature of a store observer: ``callback(op, bid)`` with ``op`` one of
#: ``"read" | "write" | "alloc" | "free"``.  Observers fire synchronously
#: after the counters have been updated, so they may read ``store.stats``.
StoreObserver = Callable[[str, int], None]


class StorageError(Exception):
    """Raised on invalid block access (bad id, double free, ...)."""


class BlockCapacityError(StorageError):
    """Raised when writing more than ``block_size`` records to a block."""


class Block:
    """A snapshot of one disk block: its id and its records.

    Blocks returned by :meth:`BlockStore.read` are copies; mutating the
    returned list does not change the disk until written back.  This keeps
    the I/O accounting honest: a structure cannot smuggle updates past the
    counter by aliasing.
    """

    __slots__ = ("bid", "records")

    def __init__(self, bid: int, records: List[Any]):
        self.bid = bid
        self.records = records

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.records)

    def __repr__(self) -> str:
        return f"Block(bid={self.bid}, n={len(self.records)})"


class BlockStore:
    """A simulated disk of blocks, each holding at most ``block_size`` records.

    Parameters
    ----------
    block_size:
        The paper's ``B``: the number of records a block holds.

    Reads and writes copy the record list, so the disk contents cannot
    be mutated through aliases.
    """

    def __init__(self, block_size: int):
        if block_size < 2:
            raise ValueError(f"block_size must be >= 2, got {block_size}")
        self._block_size = int(block_size)
        self._blocks: dict[int, List[Any]] = {}
        self._next_bid = 0
        self.stats = IOStats()
        self._observers: List[StoreObserver] = []

    # ------------------------------------------------------------------
    # Storage protocol
    # ------------------------------------------------------------------
    @property
    def block_size(self) -> int:
        """The paper's ``B``: records per block."""
        return self._block_size

    @property
    def physical_store(self) -> "BlockStore":
        """The store whose counters are the physical I/O ground truth."""
        return self

    def add_observer(self, callback: StoreObserver) -> None:
        """Subscribe ``callback(op, bid)`` to every physical operation.

        Hook point for the observability layer (:mod:`repro.obs.spans`):
        ``op`` is ``"read"``, ``"write"``, ``"alloc"`` or ``"free"`` and
        fires after the matching :class:`IOStats` counter moved.  With no
        observers registered the hot paths pay a single truthiness check.
        """
        self._observers.append(callback)

    def remove_observer(self, callback: StoreObserver) -> None:
        """Unsubscribe a previously added observer (no error if absent)."""
        try:
            self._observers.remove(callback)
        except ValueError:
            pass

    def alloc(self) -> int:
        """Allocate an empty block and return its id (no I/O charged)."""
        bid = self._next_bid
        self._next_bid += 1
        self._blocks[bid] = []
        self.stats.allocs += 1
        if self._observers:
            for cb in self._observers:
                cb("alloc", bid)
        return bid

    def read(self, bid: int) -> Block:
        """Fetch one block from disk.  Costs one read I/O."""
        try:
            records = self._blocks[bid]
        except KeyError:
            raise StorageError(f"read of unallocated block {bid}") from None
        self.stats.reads += 1
        if self._observers:
            for cb in self._observers:
                cb("read", bid)
        return Block(bid, list(records))

    def write(self, bid: int, records: Iterable[Any]) -> None:
        """Write one block to disk.  Costs one write I/O."""
        if bid not in self._blocks:
            raise StorageError(f"write to unallocated block {bid}")
        data = list(records)
        if len(data) > self._block_size:
            raise BlockCapacityError(
                f"block {bid}: {len(data)} records > block size {self._block_size}"
            )
        self.stats.writes += 1
        self._blocks[bid] = data
        if self._observers:
            for cb in self._observers:
                cb("write", bid)

    def free(self, bid: int) -> None:
        """Release a block.  No I/O charged; space accounting only."""
        if bid not in self._blocks:
            raise StorageError(f"free of unallocated block {bid}")
        del self._blocks[bid]
        self.stats.frees += 1
        if self._observers:
            for cb in self._observers:
                cb("free", bid)

    def flush(self) -> None:
        """No-op on the raw store (exists for protocol parity with pools)."""

    # ------------------------------------------------------------------
    # Space accounting / introspection (not I/Os)
    # ------------------------------------------------------------------
    @property
    def blocks_in_use(self) -> int:
        """Number of currently allocated blocks -- the paper's space measure."""
        return len(self._blocks)

    def block_ids(self) -> List[int]:
        """Ids of all allocated blocks (introspection; no I/O charged)."""
        return list(self._blocks)

    def peek(self, bid: int) -> List[Any]:
        """Inspect a block without charging an I/O.

        For tests and invariant checkers only; library code must use
        :meth:`read`.
        """
        try:
            return list(self._blocks[bid])
        except KeyError:
            raise StorageError(f"peek of unallocated block {bid}") from None

    def scribble(self, bid: int, records: Iterable[Any]) -> None:
        """Silently replace a block's payload: simulated media rot.

        Fault-injection entry point only (:class:`~repro.resilience.
        faulty_store.FaultyStore` corruption faults).  No I/O is
        charged and no observers fire -- the point of bit rot is that
        nothing notices until a checksum does.
        """
        if bid not in self._blocks:
            raise StorageError(f"scribble on unallocated block {bid}")
        self._blocks[bid] = list(records)

    def place(self, bid: int, records: Iterable[Any]) -> None:
        """Install a block at a chosen id (charges one write I/O).

        The replica-rebuild channel: cloning a healthy peer block-by
        -block must preserve block ids so rebuilt mirrors stay
        addressable by the same structure meta.  Raises if the id is
        already allocated; advances the allocator past ``bid`` so later
        :meth:`alloc` calls never collide.
        """
        if bid in self._blocks:
            raise StorageError(f"place over allocated block {bid}")
        data = list(records)
        if len(data) > self._block_size:
            raise BlockCapacityError(
                f"block {bid}: {len(data)} records > block size {self._block_size}"
            )
        self._blocks[bid] = data
        self._next_bid = max(self._next_bid, bid + 1)
        self.stats.writes += 1
        if self._observers:
            for cb in self._observers:
                cb("write", bid)

    def reserve_ids(self, next_bid: int) -> None:
        """Advance the allocator to ``next_bid`` (never backwards).

        Used after a block-level clone so the rebuilt store's future
        allocations mirror its source's, even when the source had freed
        its highest blocks.
        """
        self._next_bid = max(self._next_bid, int(next_bid))

    @property
    def next_bid(self) -> int:
        """The id the next :meth:`alloc` would hand out."""
        return self._next_bid

    def rewind_ids(self, next_bid: int) -> None:
        """Roll the allocator back to ``next_bid`` (rollback support).

        Only legal when no block at or above the watermark is still
        allocated -- the caller (an epoch rollback) frees the blocks
        born after the watermark first.  Rewinding means a rolled-back
        -and-retried operation re-allocates the same ids, which keeps
        replicated stores block-for-block mirrors.
        """
        nb = int(next_bid)
        alive = [b for b in self._blocks if b >= nb]
        if alive:
            raise StorageError(
                f"cannot rewind allocator to {nb}: blocks {sorted(alive)} "
                f"still allocated"
            )
        self._next_bid = nb

    def occupancy(self) -> float:
        """Mean fill fraction over allocated blocks (0.0 if none)."""
        if not self._blocks:
            return 0.0
        used = sum(len(r) for r in self._blocks.values())
        return used / (len(self._blocks) * self._block_size)

    # ------------------------------------------------------------------
    # persistence (snapshot the simulated disk to a real file)
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Snapshot the disk image to ``path`` (pickle).

        The I/O counters are part of the image so a reloaded experiment
        continues its accounting.  Structures that keep in-memory
        handles (block-id registries) must be re-created against the
        reloaded store by their owners.
        """
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "block_size": self._block_size,
                    "blocks": self._blocks,
                    "next_bid": self._next_bid,
                    "stats": (
                        self.stats.reads, self.stats.writes,
                        self.stats.allocs, self.stats.frees,
                    ),
                },
                fh,
                protocol=pickle.HIGHEST_PROTOCOL,
            )

    @classmethod
    def load(cls, path: str) -> "BlockStore":
        """Reload a disk image written by :meth:`save`."""
        with open(path, "rb") as fh:
            image = pickle.load(fh)
        store = cls(image["block_size"])
        store._blocks = image["blocks"]
        store._next_bid = image["next_bid"]
        store.stats = IOStats(*image["stats"])
        return store

    def __repr__(self) -> str:
        return (
            f"BlockStore(B={self._block_size}, blocks={self.blocks_in_use}, "
            f"{self.stats})"
        )


def blocks_needed(n_records: int, block_size: int) -> int:
    """Number of blocks needed to hold ``n_records`` records: ``ceil(n/B)``."""
    if n_records < 0:
        raise ValueError("n_records must be non-negative")
    return -(-n_records // block_size)
