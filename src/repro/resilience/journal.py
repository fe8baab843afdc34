"""Write-ahead journaling: multi-block updates that survive crashes.

A PST insert touches many blocks (path rewrites, leaf splits, Y-set
spills); a crash in the middle leaves the on-disk structure violating
its own invariants.  :class:`JournaledStore` wraps any store with
transactions that make such an update atomic:

- ``begin()`` opens a transaction.  Writes and frees are *buffered in
  memory* (reads see the buffer -- read-your-writes); allocations pass
  through, because block ids must be real, and are optionally logged
  so recovery can reclaim them.
- ``commit(meta)`` appends every buffered write, every free, a
  *superblock update* carrying ``meta`` (the structure's re-attachment
  state), and finally a commit record ``C`` to an on-disk journal.
  **The block write that carries ``C`` is the atomic commit point.**
  Only then are the buffered operations applied to the main blocks,
  after which the journal is truncated.
- ``recover()`` (after a crash) reads the journal: a transaction whose
  ``C`` made it durable is *redone* (the apply phase is idempotent, so
  recovery may itself crash and be re-run); one without ``C`` is
  discarded -- its buffered writes never touched the main blocks, so
  the disk is already the last committed state.

Durability of the journal anchor uses the classic dual-slot superblock:
two anchor blocks written alternately with a version number, so a torn
anchor write destroys at most the slot being written and
:meth:`attach` takes the survivor with the highest version.

Everything here costs *real* simulated I/O through the wrapped store
(journal block writes, anchor updates, the apply phase), so the price
of crash consistency is visible in the same counters the paper's
experiments use.  Without transactions the wrapper is a pure
passthrough and adds zero physical I/O.

Guarantee (proved by the recovery verifier): after any crash injected
by :class:`~repro.resilience.FaultyStore` -- between operations, at a
named crash point, or mid-write with a torn block -- ``recover()``
restores exactly the state of the last committed transaction, and a
structure re-attached from the recovered ``meta`` passes its own
``check_invariants()``.

Known limit: blocks allocated inside a transaction that never commits
leak unless ``log_allocs=True`` (each alloc then costs one journal
append).  Leaks waste space but never corrupt state, since block ids
are never reused.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.io.blockstore import Block, BlockCapacityError, StorageError
from repro.io.layer import StoreLayer
from repro.resilience.errors import RecoveryError, SimulatedCrash


class JournaledStore(StoreLayer):
    """Transactional storage layer with write-ahead-journal recovery."""

    def __init__(self, store, *, log_allocs: bool = False):
        super().__init__(store)
        self._log_allocs = log_allocs
        a0, a1 = store.alloc(), store.alloc()
        self._anchor_bids: Tuple[int, int] = (a0, a1)
        self._meta_bid = store.alloc()
        self._journal_bids: List[int] = []
        self._anchor_version = 0
        self._txn: Optional[Dict[str, Any]] = None
        self._txn_seq = 0
        store.write(self._meta_bid, [("META", None, None)])
        self._write_anchor()

    # ------------------------------------------------------------------
    # re-attachment after a crash
    # ------------------------------------------------------------------
    @property
    def anchor_bids(self) -> Tuple[int, int]:
        """The dual superblock slots a recovery driver must remember."""
        return self._anchor_bids

    @classmethod
    def attach(
        cls, store, anchor_bids: Tuple[int, int], *, log_allocs: bool = False
    ) -> "JournaledStore":
        """Re-open a journaled store from its anchor blocks.

        Models the post-reboot mount: all in-memory state is gone, only
        the disk and the well-known anchor location survive.  Call
        :meth:`recover` next.
        """
        best = None
        for bid in anchor_bids:
            try:
                records = store.read(bid).records
            except StorageError:
                continue
            for r in records:
                if r and r[0] == "ANCHOR":
                    if best is None or r[1] > best[1]:
                        best = r
        if best is None:
            raise RecoveryError(f"no valid anchor in blocks {anchor_bids}")
        obj = cls.__new__(cls)
        StoreLayer.__init__(obj, store)
        obj._log_allocs = log_allocs
        obj._anchor_bids = tuple(anchor_bids)
        obj._anchor_version = best[1]
        obj._journal_bids = list(best[2])
        obj._meta_bid = best[3]
        obj._txn = None
        obj._txn_seq = best[4]
        return obj

    def recover(self) -> Any:
        """Replay or discard the journal; return the last committed meta.

        Idempotent: the apply phase only rewrites blocks with their
        committed contents and tolerates already-applied frees, so a
        crash during recovery is survived by recovering again.
        """
        entries: List[Tuple] = []
        for jb in self._journal_bids:
            try:
                entries.extend(self._store.read(jb).records)
            except StorageError:
                continue  # chain block lost before its write: nothing in it
        committed = [e[1] for e in entries if e and e[0] == "C"]
        committed_set = set(committed)
        for tid in committed:
            self._apply(
                [e for e in entries if len(e) > 1 and e[1] == tid],
                tolerant=True,
            )
        # discard open transactions: reclaim their logged allocations
        for e in entries:
            if e and e[0] == "A" and e[1] not in committed_set:
                try:
                    self._store.free(e[2])
                except StorageError:
                    pass
        self._checkpoint()
        meta_records = self._store.read(self._meta_bid).records
        if not meta_records or meta_records[0][0] != "META":
            raise RecoveryError("superblock unreadable after replay")
        return meta_records[0][2]

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin(self) -> int:
        """Open a transaction; returns its id."""
        if self._txn is not None:
            raise RuntimeError("transaction already open (no nesting)")
        tid = self._txn_seq
        self._txn_seq += 1
        self._txn = {
            "id": tid,
            "writes": {},   # bid -> records (the buffer)
            "order": [],    # bids in first-write order (journal layout)
            "frees": [],    # bids freed, in order
            "freed": set(),
            "allocs": [],   # bids allocated inside the txn
        }
        return tid

    def commit(self, meta: Any = None) -> int:
        """Make the open transaction durable, then apply it.

        ``meta`` is stored in the superblock as part of the same atomic
        transaction; :meth:`recover` returns the last committed value,
        which is how a structure's re-attachment state travels across
        a crash.
        """
        txn = self._txn
        if txn is None:
            raise RuntimeError("no open transaction")
        tid = txn["id"]
        records: List[Tuple] = []
        for bid in txn["order"]:
            if bid in txn["writes"]:
                records.append(("W", tid, bid, txn["writes"][bid]))
        for bid in txn["frees"]:
            records.append(("F", tid, bid))
        records.append(("W", tid, self._meta_bid, [("META", tid, meta)]))
        records.append(("C", tid))
        self._append_journal(records)
        # ---- the C record is durable: point of no return ----
        self._txn = None
        self._apply(records, tolerant=False)
        self._checkpoint()
        return tid

    def abort(self) -> None:
        """Roll back the open transaction.

        The main blocks were never touched, so only in-transaction
        allocations are reclaimed and any partial journal appends are
        truncated.  A structure whose in-memory state saw the aborted
        operations must be re-attached from the last committed meta.
        """
        txn = self._txn
        if txn is None:
            raise RuntimeError("no open transaction")
        self._txn = None
        for bid in reversed(txn["allocs"]):
            try:
                self._store.free(bid)
            except StorageError:
                pass
        self._checkpoint()

    @contextmanager
    def transaction(self, meta=None):
        """``with js.transaction(meta_fn):`` -- commit on success.

        ``meta`` may be a value or a zero-argument callable evaluated
        at commit time (so it captures post-operation structure state).
        A ``SimulatedCrash`` leaves the disk exactly as the crash found
        it (a dead process cannot roll back); any other exception
        aborts the transaction.
        """
        self.begin()
        try:
            yield self
        except SimulatedCrash:
            self._txn = None   # memory is gone; disk stays as-is
            raise
        except BaseException:
            if self._txn is not None:
                self.abort()
            raise
        else:
            self.commit(meta() if callable(meta) else meta)

    # ------------------------------------------------------------------
    # storage protocol (buffered under a transaction)
    # ------------------------------------------------------------------
    def alloc(self) -> int:
        """Allocate a real block (journaled when ``log_allocs``)."""
        bid = self._store.alloc()
        if self._txn is not None:
            self._txn["allocs"].append(bid)
            if self._log_allocs:
                self._append_journal([("A", self._txn["id"], bid)])
        return bid

    def _buffered(self, bid: int, op: str):
        """The open transaction's buffered records for ``bid`` (or None)."""
        txn = self._txn
        if txn is None:
            return None
        if bid in txn["freed"]:
            raise StorageError(f"{op} of block {bid} freed in transaction")
        return txn["writes"].get(bid)

    def read(self, bid: int) -> Block:
        """Read through the transaction buffer (read-your-writes)."""
        buffered = self._buffered(bid, "read")
        if buffered is not None:
            return Block(bid, buffered)
        return self._store.read(bid)

    def write(self, bid: int, records: Iterable[Any]) -> None:
        """Buffer a write under a transaction; write through otherwise."""
        data = tuple(records)
        if len(data) > self.block_size:
            raise BlockCapacityError(
                f"block {bid}: {len(data)} records > block size "
                f"{self.block_size}"
            )
        txn = self._txn
        if txn is None:
            self._store.write(bid, data)
            return
        if bid in txn["freed"]:
            raise StorageError(f"write to block {bid} freed in transaction")
        if bid not in txn["writes"]:
            self._require_allocated(bid, txn)
            txn["order"].append(bid)
        txn["writes"][bid] = data

    def free(self, bid: int) -> None:
        """Defer a free to commit time under a transaction."""
        txn = self._txn
        if txn is None:
            self._store.free(bid)
            return
        if bid in txn["freed"]:
            raise StorageError(f"double free of block {bid} in transaction")
        self._require_allocated(bid, txn)
        txn["writes"].pop(bid, None)
        txn["freed"].add(bid)
        txn["frees"].append(bid)

    def peek(self, bid: int):
        """Inspect through the transaction buffer (no I/O charged)."""
        buffered = self._buffered(bid, "peek")
        if buffered is not None:
            return buffered
        return self._store.peek(bid)

    def _require_allocated(self, bid: int, txn) -> None:
        if bid in txn["writes"] or bid in txn["allocs"]:
            return
        try:
            self._store.peek(bid)
        except StorageError:
            raise StorageError(
                f"operation on unallocated block {bid} in transaction"
            ) from None

    # ------------------------------------------------------------------
    # journal mechanics
    # ------------------------------------------------------------------
    def _append_journal(self, records: List[Tuple]) -> None:
        """Durably append records in fresh chain blocks (chunks of B).

        Chain blocks are written before the anchor references them, so
        a crash mid-append leaves either an unreachable (leaked) block
        or a chain whose tail lacks the records -- in both cases the
        transaction's ``C`` is absent and recovery discards it.
        """
        B = self.block_size
        new_bids: List[int] = []
        for lo in range(0, len(records), B):
            jb = self._store.alloc()
            self._store.write(jb, records[lo:lo + B])
            new_bids.append(jb)
        self._journal_bids.extend(new_bids)
        self._write_anchor()

    def _apply(self, records: List[Tuple], *, tolerant: bool) -> None:
        """Apply W/F records to the main blocks (idempotent replay)."""
        for e in records:
            if e[0] == "W":
                try:
                    self._store.write(e[2], e[3])
                except StorageError:
                    if not tolerant:
                        raise
            elif e[0] == "F":
                try:
                    self._store.free(e[2])
                except StorageError:
                    if not tolerant:
                        raise

    def _checkpoint(self) -> None:
        """Truncate the journal (its transactions are fully applied)."""
        for jb in self._journal_bids:
            try:
                self._store.free(jb)
            except StorageError:
                pass
        self._journal_bids = []
        self._write_anchor()

    def _write_anchor(self) -> None:
        """Dual-slot versioned superblock write (torn-write safe)."""
        self._anchor_version += 1
        slot = self._anchor_bids[self._anchor_version % 2]
        self._store.write(
            slot,
            [(
                "ANCHOR",
                self._anchor_version,
                tuple(self._journal_bids),
                self._meta_bid,
                self._txn_seq,
            )],
        )

    def __repr__(self) -> str:
        return (
            f"JournaledStore(anchor={self._anchor_bids}, "
            f"journal_blocks={len(self._journal_bids)}, "
            f"txn={'open' if self._txn else 'none'})"
        )
