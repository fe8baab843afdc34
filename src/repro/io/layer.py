"""The storage-protocol base every store wrapper extends.

The storage protocol (see :class:`~repro.io.BlockStore`) is duck-typed,
and the serving chain stacks several wrappers over one physical store:
checksum framing, snapshot epochs, fault injection, retries, journaling,
tracing, caching.  :class:`StoreLayer` holds the wrapped store and
forwards every protocol member to it, so a wrapper defines only the
members whose behaviour differs.

The forwarding is explicit -- no ``__getattr__`` fallback -- so a
missing protocol member fails loudly, and the ``getattr(store,
"crash_hook" / "prefetch_hint", None)`` probes in :mod:`repro.io.hooks`
never walk the chain.  Chains are fixed at construction, so the two
attributes that hot paths probe on every call are resolved once there:

- :attr:`physical_store` -- the store whose counters are the physical
  I/O ground truth (what :func:`repro.obs.spans.span` looks up);
- ``crash_hook`` -- the nearest hook below (only
  :class:`~repro.resilience.FaultyStore` defines a real one), or None.
  A subclass that defines its own ``crash_hook`` method keeps it.

A layer adds **zero physical I/O** unless it documents otherwise: the
counters live in the physical store and move only on operations that
reach it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.io.blockstore import Block, StoreObserver


class StoreLayer:
    """Pass-through storage protocol over ``store``."""

    #: Named crash-point hook forwarded from the chain below (see
    #: :func:`repro.io.hooks.crash_point`); None when nothing below has one.
    crash_hook: Optional[Callable[[str], None]] = None

    def __init__(self, store):
        self._store = store
        self.physical_store = getattr(store, "physical_store", store)
        hook = getattr(store, "crash_hook", None)
        if hook is not None and type(self).crash_hook is None:
            self.crash_hook = hook

    @property
    def block_size(self) -> int:
        """Records per block (the wrapped store's ``B``)."""
        return self._store.block_size

    @property
    def stats(self):
        """Physical I/O counters of the wrapped store."""
        return self._store.stats

    def add_observer(self, callback: StoreObserver) -> None:
        """Subscribe ``callback(op, bid)`` to the physical operations."""
        self._store.add_observer(callback)

    def remove_observer(self, callback: StoreObserver) -> None:
        """Unsubscribe a physical-operation observer."""
        self._store.remove_observer(callback)

    def alloc(self) -> int:
        """Allocate a block on the wrapped store."""
        return self._store.alloc()

    def read(self, bid: int) -> Block:
        """Read one block through the wrapped store."""
        return self._store.read(bid)

    def write(self, bid: int, records: Iterable[Any]) -> None:
        """Write one block through the wrapped store."""
        self._store.write(bid, records)

    def free(self, bid: int) -> None:
        """Free one block on the wrapped store."""
        self._store.free(bid)

    def peek(self, bid: int) -> Tuple[Any, ...]:
        """Inspect a block without charging I/O."""
        return self._store.peek(bid)

    def flush(self) -> None:
        """Flush whatever the wrapped chain buffers."""
        self._store.flush()

    @property
    def blocks_in_use(self) -> int:
        """Blocks allocated on the wrapped store."""
        return self._store.blocks_in_use

    def block_ids(self) -> List[int]:
        """Ids of all allocated blocks (introspection; no I/O)."""
        return self._store.block_ids()
