"""Scrubbing: find silent corruption before readers do.

A :class:`Scrubber` pass walks every replica of every shard,
re-computes each block's CRC against the checksum layer's side table
(:meth:`~repro.io.checksum.ChecksummedStore.verify` -- no I/O charged,
never raises) and repairs any rotten block from a peer replica whose
copy still verifies.  Repairs are honest I/O through the one repair
write, :meth:`~repro.serve.replication.Replica.rewrite`: below the
fault-injection layer (a repair never draws from the fault schedule),
copy-on-write pre-images preserved, the block's latched fault state
healed and any stale buffer-pool frame invalidated.

A pass is one synchronous call, :meth:`Scrubber.scrub_once`: the
caller's thread takes each shard's writer lock in turn (waiting for
it like any writer) and flushes buffer pools first -- a dirty frame
means the disk block is *legitimately* stale, and flushing reconciles
disk with the CRC table before verification.

The scrubber keeps cumulative totals (``cycles``, ``blocks_checked``,
``repairs``, ``unrepaired``) on itself; each repair also counts in its
replica set's ``block_repairs``.  A pass is fully deterministic.
"""

from __future__ import annotations

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

    # ------------------------------------------------------------------
    def scrub_once(self) -> dict:
        """One full deterministic pass over every shard's replicas,
        each under its writer lock.  Returns a summary dict; cumulative
        totals live on the scrubber."""
        checked = repaired = unrepaired = 0
        for shard in self._shards:
            with shard.lock.write_locked():
                c, r, u = self._scrub_shard(shard)
            checked += c
            repaired += r
            unrepaired += u
        self.cycles += 1
        self.blocks_checked += checked
        self.repairs += repaired
        self.unrepaired += unrepaired
        return {
            "blocks_checked": checked,
            "repairs": repaired,
            "unrepaired": unrepaired,
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

    def summary(self) -> dict:
        """Cumulative totals for ``stats()`` and bench export."""
        return {
            "cycles": self.cycles,
            "blocks_checked": self.blocks_checked,
            "repairs": self.repairs,
            "unrepaired": self.unrepaired,
        }

    def __repr__(self) -> str:
        return (
            f"Scrubber({len(self._shards)} shards, "
            f"cycles={self.cycles}, repairs={self.repairs})"
        )
