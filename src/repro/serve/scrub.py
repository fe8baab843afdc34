"""Background scrubbing: find silent corruption before readers do.

A :class:`Scrubber` periodically walks every replica of every shard,
re-computes each block's CRC against the checksum layer's side table
(:meth:`~repro.io.checksum.ChecksummedStore.verify` -- no I/O charged,
never raises) and repairs any rotten block from a peer replica whose
copy still verifies.  Repairs are honest I/O through the one repair
write, :meth:`~repro.serve.replication.Replica.rewrite`: below the
fault-injection layer (a repair never draws from the fault schedule),
copy-on-write pre-images preserved, the block's latched fault state
healed and any stale buffer-pool frame invalidated.

Scrubbing a shard takes its writer lock (with a bounded wait, so a
busy shard is skipped rather than stalled) and flushes buffer pools
first -- a dirty frame means the disk block is *legitimately* stale,
and flushing reconciles disk with the CRC table before verification.

The scrubber keeps cumulative totals (``cycles``, ``blocks_checked``,
``repairs``, ``unrepaired``, ``shards_skipped``) on itself; each
repair also counts in its replica set's ``block_repairs``.
:meth:`Scrubber.scrub_once` is fully deterministic;
:meth:`Scrubber.start` runs it on a daemon thread for
live deployments.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.io.blockstore import StorageError
from repro.resilience.errors import FaultInjectionError


class Scrubber:
    """Walk replica blocks, cross-check CRCs, repair from healthy peers."""

    def __init__(self, shards):
        self._shards = list(shards)
        self.cycles = 0
        self.blocks_checked = 0
        self.repairs = 0
        self.unrepaired = 0
        self.shards_skipped = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def scrub_once(self, *, lock_timeout: Optional[float] = None) -> dict:
        """One full deterministic pass over every shard's replicas.

        ``lock_timeout`` bounds the wait for each shard's writer lock
        (``None`` waits forever).  Returns a summary dict; cumulative
        totals live on the scrubber.
        """
        checked = repaired = unrepaired = skipped = 0
        for shard in self._shards:
            if not shard.lock.acquire_write(timeout=lock_timeout):
                skipped += 1
                continue
            try:
                c, r, u = self._scrub_shard(shard)
            finally:
                shard.lock.release_write()
            checked += c
            repaired += r
            unrepaired += u
        self.cycles += 1
        self.blocks_checked += checked
        self.repairs += repaired
        self.unrepaired += unrepaired
        self.shards_skipped += skipped
        return {
            "blocks_checked": checked,
            "repairs": repaired,
            "unrepaired": unrepaired,
            "shards_skipped": skipped,
        }

    def _scrub_shard(self, shard) -> tuple:
        """Scrub one shard (writer lock held).  Dead replicas are healed
        first so the freshly rebuilt copies get scrubbed too."""
        rs = shard.replica_set
        rs.rebuild_dead()
        replicas = [r for r in rs.replicas if r.alive]
        for r in replicas:
            # reconcile disk with the CRC table: a dirty pooled frame is
            # newer than its disk block, which would otherwise read as rot
            try:
                r.flush()
            except (FaultInjectionError, StorageError):
                # a flush fault surfaces through the normal serving path
                # soon enough; scrub what the disk does hold
                pass
        checked = repaired = unrepaired = 0
        for r in replicas:
            # permanent faults latch a block broken until rewritten from a
            # verified copy; the scrubber is that rewrite channel
            try:
                rs.heal_latched(r)
            except (FaultInjectionError, StorageError):
                pass
            for bid in sorted(r.checksummed.block_ids()):
                checked += 1
                if r.checksummed.verify(bid):
                    continue
                if rs.repair_block(r, bid):
                    repaired += 1
                else:
                    unrepaired += 1
        return checked, repaired, unrepaired

    # ------------------------------------------------------------------
    # background operation
    # ------------------------------------------------------------------
    def start(self, interval: float, *, lock_timeout: float = 0.05) -> None:
        """Run :meth:`scrub_once` every ``interval`` seconds on a daemon
        thread.  The bounded lock wait keeps the scrubber from stalling
        a busy shard; skipped shards are retried next cycle."""
        if self._thread is not None:
            raise RuntimeError("scrubber already running")
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(interval):
                self.scrub_once(lock_timeout=lock_timeout)

        self._thread = threading.Thread(
            target=_loop, name="scrubber", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the background thread (idempotent, joins it)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    @property
    def running(self) -> bool:
        """Whether the background thread is live."""
        return self._thread is not None

    def summary(self) -> dict:
        """Cumulative totals for ``stats()`` and bench export."""
        return {
            "cycles": self.cycles,
            "blocks_checked": self.blocks_checked,
            "repairs": self.repairs,
            "unrepaired": self.unrepaired,
            "shards_skipped": self.shards_skipped,
        }

    def __repr__(self) -> str:
        state = "running" if self.running else "idle"
        return (
            f"Scrubber({len(self._shards)} shards, {state}, "
            f"cycles={self.cycles}, repairs={self.repairs})"
        )
