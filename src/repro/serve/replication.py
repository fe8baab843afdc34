"""Self-healing replication: replica chains, circuit breakers, failover.

The paper's Theorems 4-5 price indexability in *redundancy* -- how many
times a record may be stored -- against access overhead.  This module
spends that budget operationally: each logical shard runs as a
:class:`ReplicaSet` of ``replication_factor`` full store chains

    ``BlockStore -> Checksummed -> Snapshot -> [Faulty -> Retrying]
    -> [BufferPool]``

each with its own 3-sided structure.  Writes fan out to every live
replica before they are acknowledged (so an acknowledged write survives
any single replica loss); reads go to the primary and *fall over* to a
peer when a read surfaces a latched permanent fault, an exhausted retry
budget, or a checksum mismatch.  A per-replica :class:`CircuitBreaker`
(closed -> open on consecutive faults -> half-open probe) keeps the
read path from hammering a replica that keeps failing.

Replicas are deterministic state machines: they apply the same
operations in the same order, so healthy replicas are block-for-block
mirrors (same block ids, same payloads).  That mirror property is what
makes the two repair paths cheap:

- :meth:`ReplicaSet.repair_block` copies a single rotten block from a
  peer that still passes its checksum -- for a failed read, an aborted
  write, or a scrub pass (:meth:`ReplicaSet.scrub`, which CRC-walks
  every block of every replica);
- :meth:`ReplicaSet.rebuild_dead` clones a whole dead replica from a
  healthy peer's frozen snapshot -- block-level copy through a
  :class:`~repro.serve.snapshots.SnapshotStore` epoch, then the
  backend's ``snapshot_meta``/``attach`` remounts the structure over
  the clone.

Fault determinism is preserved per replica: each replica's
:class:`~repro.resilience.faults.FaultSchedule` shares the shard seed
but draws from its own ``stream``, so the whole chaos run -- faults,
failovers, rebuilds, repairs -- is a pure function of the seed.

A replica retries a failed op only when the failure was *mended*: the
rollback undid write-rot, a rotten block was repaired from a peer, or
a latched sector was re-armed.  Otherwise a write attempt is retired
at once and a read falls over to the next copy, so a failure that
healing cannot touch costs one attempt per replica.

Every recovery path is counted once, on the replica set that ran it:
:meth:`ReplicaSet.stats` reports failovers, read fallbacks, rebuilds,
aborted write attempts, block repairs, rejected writes and scrub
totals, together with the breaker trips, checksum mismatches and
pre-image reads of every replica it has held -- retired ones too.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.io.blockstore import BlockStore, StorageError
from repro.io.bufferpool import BufferPool
from repro.io.checksum import ChecksummedStore, CorruptBlockError
from repro.resilience.errors import FaultInjectionError
from repro.resilience.faulty_store import FaultyStore
from repro.resilience.retry import RetryingStore
from repro.serve.snapshots import SnapshotStore

#: Exceptions that retire the current replica attempt and move on to a
#: peer: injected I/O errors (transient without a retry layer, latched
#: permanents, exhausted budgets) and checksum mismatches.
#: ``SimulatedCrash`` is a BaseException and always propagates.
FAILOVER_ERRORS = (FaultInjectionError, CorruptBlockError)

#: Attempts per replica per op.  Only a mended failure earns a retry,
#: and mending can succeed on every attempt: an op writing W blocks
#: escapes write-rot with probability ~(1 - corrupt_rate)**W.  The cap
#: is a fixed budget, not a function of store size; exhausting it
#: rejects the op cleanly (all replicas rolled back).
OP_RETRY_BOUND = 64

#: Consecutive failures that trip a replica's :class:`CircuitBreaker`.
BREAKER_THRESHOLD = 3

#: Refusals an open breaker makes before it lets one probe through.
BREAKER_PROBE_AFTER = 8


class ReplicaSetExhausted(RuntimeError):
    """Every replica of a shard failed the operation."""


class CircuitBreaker:
    """Closed / open / half-open breaker driven by consecutive faults.

    - **closed**: operations flow; :data:`BREAKER_THRESHOLD`
      *consecutive* failures trip it open.
    - **open**: operations are refused (:meth:`allow` is False); after
      :data:`BREAKER_PROBE_AFTER` refusals the breaker moves to
      half-open.
    - **half-open**: one probe flows; success closes the breaker,
      failure re-opens it (and the refusal count restarts).

    Everything is count-driven, not clock-driven, so breaker behaviour
    is deterministic under the seeded chaos benchmarks.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self):
        self._lock = threading.Lock()
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.times_opened = 0
        self._refused = 0

    def allow(self) -> bool:
        """May an operation flow through right now?"""
        with self._lock:
            if self.state == self.OPEN:
                self._refused += 1
                if self._refused >= BREAKER_PROBE_AFTER:
                    self.state = self.HALF_OPEN
                    return True
                return False
            return True

    def record_success(self) -> None:
        """An operation through this replica succeeded."""
        with self._lock:
            self.consecutive_failures = 0
            if self.state != self.CLOSED:
                self.state = self.CLOSED

    def record_failure(self) -> None:
        """An operation through this replica failed."""
        with self._lock:
            self.consecutive_failures += 1
            tripped = (
                self.state == self.HALF_OPEN
                or self.consecutive_failures >= BREAKER_THRESHOLD
            )
            if tripped and self.state != self.OPEN:
                self._refused = 0
                self.times_opened += 1
                self.state = self.OPEN

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.state}, "
            f"failures={self.consecutive_failures}, "
            f"opened={self.times_opened})"
        )


@dataclass(frozen=True)
class ReplicaSpec:
    """The chain recipe shared by every replica of every shard (the
    engine builds one; a rebuilt replica reuses it)."""

    block_size: int
    pool_capacity: int = 0
    pool_policy: str = "lru"
    readahead_window: int = 0
    io_latency: float = 0.0


class Replica:
    """One full store chain + attached structure for a logical shard.

    The chain is ``BlockStore -> ChecksummedStore -> SnapshotStore
    [-> FaultyStore -> RetryingStore] [-> BufferPool]``; the structure
    (built or attached by the owning :class:`ReplicaSet`) lives on top.
    A fault schedule brings its retry layer with it: injected transients
    are retried in place rather than surfacing as failovers.
    """

    def __init__(self, replica_id: int, spec: ReplicaSpec, fault_schedule=None):
        self.replica_id = replica_id
        self.spec = spec
        self.schedule = fault_schedule
        base = BlockStore(spec.block_size)
        self.base_store = base
        if spec.io_latency > 0:
            # simulated device time; the sleep releases the GIL so
            # threaded shard execution genuinely overlaps I/O waits
            def _latency(op: str, _bid: int, _delay: float = spec.io_latency):
                if op in ("read", "write"):
                    time.sleep(_delay)

            base.add_observer(_latency)
        self.checksummed = ChecksummedStore(base)
        self.snapstore = SnapshotStore(self.checksummed)
        store: Any = self.snapstore
        self.faulty: Optional[FaultyStore] = None
        if fault_schedule is not None:
            store = self.faulty = FaultyStore(store, fault_schedule)
            store = RetryingStore(store)
        self.pool: Optional[BufferPool] = None
        if spec.pool_capacity > 0:
            store = self.pool = BufferPool(
                store,
                spec.pool_capacity,
                policy=spec.pool_policy,
                readahead_window=spec.readahead_window,
            )
        self.store = store
        self.structure: Any = None
        self.breaker = CircuitBreaker()
        self.alive = True
        self.failed_reason: Optional[str] = None

    def fail(self, reason: str) -> None:
        """Retire this replica (half-applied write, injected kill)."""
        self.alive = False
        self.failed_reason = reason

    def flush(self) -> None:
        """Flush any pooled dirty frames down the chain."""
        if self.pool is not None:
            self.pool.flush()

    def rewrite(self, bid: int, payload: tuple) -> None:
        """The repair write: rewrite ``bid`` from verified bytes.

        One honest write through the snapshot layer (below fault
        injection: no schedule draw; open epochs keep pre-images), then
        the block's latch is cleared and any pool frame dropped.  The
        verified payload is the block's frozen content, so when the
        live bytes are too rotten to serve as an open epoch's pre-image
        it stands in for them.
        """
        try:
            self.snapstore.write(bid, payload)
        except CorruptBlockError:
            self.snapstore.preserve(bid, payload)
            self.snapstore.write(bid, payload)
        if self.faulty is not None:
            self.faulty.heal(bid)
        if self.pool is not None:
            self.pool.invalidate(bid)

    def counts(self) -> dict:
        """The recovery counts this chain keeps for itself."""
        return {
            "breaker_opened": self.breaker.times_opened,
            "crc_mismatches": self.checksummed.mismatches,
            "pre_image_reads": self.snapstore.pre_image_reads,
        }

    def write_mark(self) -> int:
        """Monotone count of logical writes into this chain.

        An operation that raised with the mark unchanged performed no
        mutation (pooled or physical), so it is safe to retry on this
        replica after repairing whatever block its read tripped on.
        """
        mark = self.base_store.stats.writes
        if self.pool is not None:
            mark += self.pool.logical_writes
        return mark

    def __repr__(self) -> str:
        state = "live" if self.alive else f"dead({self.failed_reason})"
        return f"Replica({self.replica_id}, {state}, {self.breaker.state})"


class ReplicaSet:
    """Primary + peers for one shard: fan-out writes, fallback reads.

    The caller (the shard, under its executor-managed lock) is the
    concurrency discipline; the replica set only decides *which copies*
    an operation touches and what happens when one fails.
    """

    def __init__(
        self,
        shard_id: int,
        replicas: List[Replica],
        *,
        attach: Callable[[Any, Any], Any],
    ):
        if not replicas:
            raise ValueError("need at least one replica")
        self.shard_id = shard_id
        self.replicas = list(replicas)
        self._attach = attach
        self.failovers = 0
        self.rebuilds = 0
        self.rebuild_failures = 0
        self.read_fallbacks = 0
        self.write_aborts = 0      # replica attempts rolled back
        self.block_repairs = 0     # rotten blocks rewritten from a peer
        self.writes_rejected = 0   # writes every replica failed
        self.scrub_blocks_checked = 0
        self.scrub_repairs = 0     # the block repairs a scrub pass made
        self.scrub_unrepaired = 0  # rotten blocks no peer could repair
        # Replica.counts() of the replicas that rebuilds replaced
        self._retired: Counter = Counter()

    # ------------------------------------------------------------------
    @property
    def factor(self) -> int:
        """Configured replication factor (live or not)."""
        return len(self.replicas)

    @property
    def live(self) -> List[Replica]:
        """Replicas currently serving."""
        return [r for r in self.replicas if r.alive]

    @property
    def primary(self) -> Replica:
        """First live replica (or replica 0 when none are live)."""
        for r in self.replicas:
            if r.alive:
                return r
        return self.replicas[0]

    # ------------------------------------------------------------------
    # write fan-out
    # ------------------------------------------------------------------
    def apply_write(self, fn: Callable[[Any], Any]):
        """Apply a mutation to every live replica; ack on >= 1 success.

        Caller holds the shard's writer lock.  Each replica applies the
        mutation as an *abortable transaction* (:meth:`_apply_one`): a
        replica that faults mid-mutation is rolled back to its pre-op
        state via the snapshot layer's undo log, so a failed apply
        never leaves a half-applied copy.  The first successful
        replica's return value is the acknowledged result; replicas
        that failed while a peer acked have diverged (they are one op
        behind) and are retired for rebuild.  When *every* replica
        fails, all of them were rolled back -- the op is rejected with
        :class:`ReplicaSetExhausted` but the set stays consistent and
        keeps serving.
        """
        if len(self.replicas) == 1:
            # unreplicated fast path: bit-identical to the pre-replica
            # serving tier, faults propagate to the caller unchanged
            return fn(self.replicas[0].structure)
        result: Any = None
        acked = False
        failed: List[Replica] = []
        last_exc: Optional[Exception] = None
        for r in self.replicas:
            if not r.alive or r.structure is None:
                continue
            try:
                out = self._apply_one(r, fn)
            except FAILOVER_ERRORS as exc:
                last_exc = exc
                r.breaker.record_failure()
                failed.append(r)
                continue
            r.breaker.record_success()
            if not acked:
                result = out
                acked = True
        if not acked:
            self.writes_rejected += 1
            raise ReplicaSetExhausted(
                f"shard {self.shard_id}: all {self.factor} replicas "
                f"failed the write (all rolled back, none applied)"
            ) from last_exc
        for r in failed:
            if r.alive:
                r.fail(f"diverged: peer acked an op this replica failed")
            self.failovers += 1
        self.rebuild_dead()
        return result

    def _apply_one(self, r: Replica, fn: Callable[[Any], Any]):
        """Apply ``fn`` to one replica as an abortable transaction.

        A COW epoch opened before the op is a per-op undo log: on any
        injected fault or checksum mismatch the pool is discarded, the
        epoch rolled back and the structure re-attached from its pre-op
        meta, leaving the replica exactly where it started.  Before the
        op is acked, every block the epoch wrote is CRC-swept (no I/O):
        corrupt faults scribble only written blocks, so this catches
        silent write-rot while the undo log can still cure it -- an
        acked op never leaves latent rot behind.  After a rollback the
        replica is healed in place (:meth:`_heal`), and the op is
        retried only if healing mended something -- a fault the heal
        cured should not force a failover; one it could not touch
        retires the attempt at once.  Flushing before the op makes disk
        state complete (so the rollback target is well defined);
        flushing after makes the op durable before it is acked.
        """
        last_exc: Optional[Exception] = None
        for _ in range(OP_RETRY_BOUND):
            r.flush()
            meta = r.structure.snapshot_meta()
            epoch = r.snapstore.open_epoch()
            try:
                out = fn(r.structure)
                r.flush()
                self._verify_epoch(r, epoch)
            except FAILOVER_ERRORS as exc:
                last_exc = exc
                rotten = self._rotten_block(r, exc)
                self._abort(r, epoch, meta)
                if self._heal(r, rotten):
                    continue  # mended: retry the op
                raise
            except BaseException:
                # SimulatedCrash etc.: not ours to absorb
                r.snapstore.close_epoch(epoch)
                raise
            else:
                r.snapstore.close_epoch(epoch)
                return out
        raise last_exc  # retry bound hit: treat as replica failure

    @staticmethod
    def _verify_epoch(r: Replica, epoch: int) -> None:
        """CRC-sweep the blocks an open epoch wrote (no I/O charged).

        Raises :class:`CorruptBlockError` on the first mismatch so the
        normal abort/heal/retry path handles silent write-rot before
        the op is acknowledged.
        """
        for bid in r.snapstore.epoch_writes(epoch):
            # a block freed during the epoch verifies (nothing to serve)
            if not r.checksummed.verify(bid):
                raise CorruptBlockError(bid, r.checksummed.crc_of(bid))

    @staticmethod
    def _rotten_block(r: Replica, exc: Exception) -> Optional[int]:
        """The block ``exc`` reports rotten, if it still fails its CRC
        on ``r``'s disk (checked before any rollback); else None."""
        if isinstance(exc, CorruptBlockError) and not r.checksummed.verify(
            exc.bid
        ):
            return exc.bid
        return None

    def _heal(self, r: Replica, rotten: Optional[int]) -> bool:
        """In-place repair after a failed read or an aborted write;
        True when it mended something, which is what earns a retry on
        the same replica.

        1. The ``rotten`` block the failure found (see
           :meth:`_rotten_block`) is mended when it verifies again --
           a write's rollback restored its pre-image, curing write-rot
           -- or when a peer copy repairs it.
        2. Latched broken sectors are mended when :meth:`heal_latched`
           re-arms every one of them.
        3. A :class:`StorageError` or injected fault while healing
           mends nothing.

        Every repair writes bytes identical to what healthy readers
        already see, so it is safe under the shard's reader lock.
        """
        try:
            latched = r.faulty is not None and bool(r.faulty.broken_blocks)
            mended = rotten is not None and (
                r.checksummed.verify(rotten) or self.repair_block(r, rotten)
            )
            rearmed = self.heal_latched(r) and latched
            return mended or rearmed
        except (StorageError, FaultInjectionError):
            return False

    def heal_latched(self, r: Replica) -> bool:
        """Re-arm a replica's latched broken sectors after a rollback.

        A permanent fault latches a block broken until it is rewritten
        from a verified copy.  Post-rollback the block's own payload
        *is* verified (the undo log restored the pre-op bytes), so the
        block is rewritten with itself (:meth:`Replica.rewrite`).
        Blocks that do not verify fall back to a peer copy.  Every
        block that can be re-armed is; returns False when at least one
        could not be (no verified source anywhere).
        """
        if r.faulty is None:
            return True
        ok = True
        for bid in r.faulty.broken_blocks:
            try:
                payload = r.checksummed.verified_payload(bid)
            except StorageError:
                r.faulty.heal(bid)  # block freed meanwhile: just unlatch
                continue
            if payload is not None:
                r.rewrite(bid, payload)
            elif not self.repair_block(r, bid):
                ok = False
        return ok

    def _abort(self, r: Replica, epoch: int, meta: Any) -> None:
        """Rewind one replica to its pre-op state (writer lock held).

        Order matters: the pool's frames (including pinned catalog
        frames of the doomed structure instance) describe the aborted
        future and are discarded first; the epoch's undo log then
        restores the disk; finally the structure is re-attached from
        the pre-op meta over the rewound chain.  Undo writes go through
        the checksum layer but below fault injection, so an abort draws
        nothing from the fault schedule; the re-attach reads through
        the full chain and a fault there retires the replica.
        """
        if r.pool is not None:
            r.pool.discard_all()
        r.snapstore.rollback_epoch(epoch)
        self.write_aborts += 1
        try:
            r.structure = self._attach(r.store, meta)
        except FAILOVER_ERRORS:
            r.fail("re-attach after abort failed")
            raise

    def repair_block(self, replica: Replica, bid: int) -> bool:
        """Overwrite one rotten block with a verified peer copy.

        The copy lands through :meth:`Replica.rewrite`.  Returns False
        when no live peer holds a verified copy.

        Because replicas are block-for-block mirrors, the *requester's*
        recorded CRC is ground truth for every copy of ``bid`` -- so a
        donor that has never read the block (checksums are learned on
        first read) is still acceptable when its payload hashes to the
        requester's expectation.  A requester with no recorded CRC
        accepts only a donor copy that matches the donor's own.
        """
        expected = replica.checksummed.crc_of(bid)
        for d in self.replicas:
            if d is replica or not d.alive:
                continue
            try:
                payload = d.checksummed.verified_payload(bid, expected)
            except StorageError:
                continue
            if payload is not None:
                break
        else:
            return False
        try:
            replica.rewrite(bid, payload)
        except StorageError:
            # the bid is not live on this replica (freed here): the
            # mirror diverged at this block, nothing to repair in place
            return False
        self.block_repairs += 1
        return True

    # ------------------------------------------------------------------
    # read-one / fallback
    # ------------------------------------------------------------------
    def read_any(self, fn: Callable[[Any], Any]):
        """Serve a read from the first replica that can answer.

        Caller holds the shard's reader lock.  Replica order is primary
        first; replicas whose breaker is open are skipped (except for
        scheduled half-open probes).  A failed read heals what it can
        in place (:meth:`_heal`); it retries the same replica only if
        that mended something, and otherwise falls over to the next
        copy.
        """
        if len(self.replicas) == 1:
            return fn(self.replicas[0].structure)
        last_exc: Optional[Exception] = None
        tried = 0
        for r in self.replicas:
            if not r.alive or r.structure is None:
                continue
            if not r.breaker.allow():
                continue
            tried += 1
            for _ in range(OP_RETRY_BOUND):
                try:
                    out = fn(r.structure)
                except FAILOVER_ERRORS as exc:
                    last_exc = exc
                    r.breaker.record_failure()
                    self.read_fallbacks += 1
                    # a fresh fault may strike the retry, but draws
                    # advance, so a healable replica converges within
                    # the bound
                    if self._heal(r, self._rotten_block(r, exc)):
                        continue  # mended: retry this copy
                    break  # nothing mended: fall over to the next copy
                r.breaker.record_success()
                return out
        if tried == 0:
            # every live replica's breaker refused: availability beats
            # breaker purity, force one attempt on the primary
            primary = self.primary
            if primary.alive and primary.structure is not None:
                return fn(primary.structure)
        raise ReplicaSetExhausted(
            f"shard {self.shard_id}: no replica could serve the read"
        ) from last_exc

    # ------------------------------------------------------------------
    # failover + online rebuild
    # ------------------------------------------------------------------
    def kill(self, index: int, reason: str = "injected kill") -> None:
        """Force-fail one replica (chaos tests / benchmarks)."""
        r = self.replicas[index]
        if r.alive:
            r.fail(reason)
            self.failovers += 1

    def rebuild_dead(self) -> int:
        """Clone every dead replica from a healthy peer (writer lock held).

        Returns the number of replicas rebuilt.  A rebuild that fails
        (the donor faulted mid-clone) leaves the replica dead; the next
        write or heal cycle retries.  A replaced replica's own counts
        (:meth:`Replica.counts`) carry over into the set's totals.
        """
        source = next(
            (r for r in self.replicas if r.alive and r.structure is not None),
            None,
        )
        if source is None:
            return 0
        rebuilt = 0
        for i, r in enumerate(self.replicas):
            if r.alive:
                continue
            try:
                self.replicas[i] = self._clone_from(source, r)
            except (StorageError, FaultInjectionError):
                self.rebuild_failures += 1
                continue
            self._retired.update(r.counts())
            rebuilt += 1
            self.rebuilds += 1
        return rebuilt

    def _clone_from(self, source: Replica, dead: Replica) -> Replica:
        """Block-level clone of ``source`` into a fresh chain.

        Reads go through a frozen :class:`SnapshotStore` epoch on the
        donor (honest read I/O, consistent cut even if a pool above is
        mid-flush) and land via the checksummed ``place`` channel on
        the clone, so the rebuilt replica starts fully checksummed with
        the donor's exact block ids.  The dead replica's fault schedule
        carries over: the simulated environment stays hostile, only the
        latched broken blocks are gone (new chain, new latches).

        A donor block with latent rot does not abort the clone.  First
        the *dead* replica's disk is tried: retirement happens after
        rollback, so its blocks are a consistent pre-op mirror, and a
        payload hashing to the donor's recorded CRC is self-certifying
        -- in that case the clone gets the good copy and the donor is
        repaired in place.  Only when both copies are bad does the
        clone inherit the rotten payload verbatim together with the
        donor's recorded CRC, so the rot stays detectable rather than
        blocking the rebuild forever.
        """
        source.flush()
        meta = source.structure.snapshot_meta()
        epoch = source.snapstore.open_epoch()
        try:
            reader = source.snapstore.reader(epoch)
            fresh = Replica(
                dead.replica_id, dead.spec, fault_schedule=dead.schedule
            )
            for bid in sorted(source.base_store.block_ids()):
                try:
                    payload, crc = reader.read(bid).records, None
                except CorruptBlockError:
                    # read I/O already charged; salvage or inherit the rot
                    crc = source.checksummed.crc_of(bid)
                    try:
                        payload = dead.checksummed.verified_payload(bid, crc)
                    except StorageError:
                        payload = None
                    if payload is None:
                        payload = source.checksummed.peek(bid)
                    else:
                        source.rewrite(bid, payload)
                        self.block_repairs += 1
                fresh.checksummed.place(bid, payload, crc=crc)
            fresh.base_store.reserve_ids(source.base_store.next_bid)
            fresh.structure = self._attach(fresh.store, meta)
        finally:
            source.snapstore.close_epoch(epoch)
        return fresh

    # ------------------------------------------------------------------
    # scrub
    # ------------------------------------------------------------------
    def scrub(self) -> dict:
        """One scrub pass over every replica (writer lock held).

        Dead replicas are rebuilt first, so the fresh copies get
        scrubbed too.  Pools are flushed (a dirty frame is newer than
        its disk block, which would otherwise read as rot), latched
        sectors re-armed, and every block CRC-verified against the
        checksum layer's side table (no I/O charged); a rotten block
        is repaired from a peer (:meth:`repair_block`).  Returns this
        pass's ``blocks_checked`` / ``repairs`` / ``unrepaired``; the
        totals are in :meth:`stats`.  A pass is fully deterministic.
        """
        self.rebuild_dead()
        replicas = self.live
        for r in replicas:
            try:
                r.flush()
            except (FaultInjectionError, StorageError):
                # a flush fault surfaces through the serving path soon
                # enough; scrub what the disk does hold
                pass
        checked = repaired = unrepaired = 0
        for r in replicas:
            try:
                self.heal_latched(r)
            except (FaultInjectionError, StorageError):
                pass
            for bid in sorted(r.checksummed.block_ids()):
                checked += 1
                if r.checksummed.verify(bid):
                    continue
                if self.repair_block(r, bid):
                    repaired += 1
                else:
                    unrepaired += 1
        self.scrub_blocks_checked += checked
        self.scrub_repairs += repaired
        self.scrub_unrepaired += unrepaired
        return {
            "blocks_checked": checked,
            "repairs": repaired,
            "unrepaired": unrepaired,
        }

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Replication health for ``Shard.stats()`` and bench export.

        Every value but ``factor`` and ``breaker_states`` is a count
        that sums across shards.
        """
        owned = Counter(self._retired)
        for r in self.replicas:
            owned.update(r.counts())
        return {
            "factor": self.factor,
            "live_replicas": len(self.live),
            "failovers": self.failovers,
            "rebuilds": self.rebuilds,
            "rebuild_failures": self.rebuild_failures,
            "read_fallbacks": self.read_fallbacks,
            "write_aborts": self.write_aborts,
            "block_repairs": self.block_repairs,
            "writes_rejected": self.writes_rejected,
            "scrub_blocks_checked": self.scrub_blocks_checked,
            "scrub_repairs": self.scrub_repairs,
            "scrub_unrepaired": self.scrub_unrepaired,
            "breaker_states": [r.breaker.state for r in self.replicas],
            **owned,
        }

    def __repr__(self) -> str:
        return (
            f"ReplicaSet(shard={self.shard_id}, factor={self.factor}, "
            f"live={len(self.live)}, failovers={self.failovers})"
        )
