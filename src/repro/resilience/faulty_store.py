"""A storage wrapper that makes the disk lie, deterministically.

:class:`FaultyStore` presents the standard storage protocol over any
inner store and injects the faults a :class:`~repro.resilience.faults.
FaultSchedule` dictates:

- **read errors**: transient (``TransientIOError``; an immediate retry
  succeeds) or permanent (``PermanentIOError``; the block is latched
  broken and every later access fails the same way).
- **write errors**: as above, with nothing applied to the disk.
- **torn writes**: the process dies mid-write, leaving the block with
  its *stale* previous records or a *truncated* prefix of the new ones,
  then raises ``SimulatedCrash``.
- **crashes**: ``SimulatedCrash`` immediately before an operation, or
  at a named :func:`repro.io.hooks.crash_point` inside a structure's
  update path (the ``crash_hook`` attribute wrappers forward to).

With an empty schedule every operation passes straight through and the
wrapper adds **zero physical I/O** -- the counters live in the inner
store and move only on operations that actually reach it (asserted in
``tests/test_resilience_faults.py``; the CI bench gate never sees this
wrapper at all).

Every injected fault is logged once, in the schedule's own
:attr:`~repro.resilience.faults.FaultSchedule.events`.
"""

from __future__ import annotations

from typing import Any, Iterable, Set

from repro.io.layer import StoreLayer
from repro.resilience import faults as F
from repro.resilience.errors import (
    PermanentIOError,
    SimulatedCrash,
    TransientIOError,
)
from repro.resilience.faults import FaultSchedule


def _rotted(data: tuple, u: float) -> tuple:
    """Deterministically rot a payload (pure function of data, u).

    Non-empty blocks get one record replaced by a rot sentinel; empty
    blocks grow one, so the corruption is always detectable.
    """
    rot = ("__bitrot__", int(u * 1e6))
    i = int(u * len(data))
    return data[:i] + (rot,) + data[i + 1:]


class FaultyStore(StoreLayer):
    """Fault-injecting storage layer; ``peek`` and ``flush`` pass
    through untouched (no faults: debugging aid)."""

    def __init__(self, store, schedule: FaultSchedule):
        super().__init__(store)
        self.schedule = schedule
        self._broken_read: Set[int] = set()   # bids with latched read faults
        self._broken_write: Set[int] = set()  # bids with latched write faults
        #: when False the schedule is not consulted (no RNG draws) and all
        #: operations pass through -- used to provision a structure before
        #: exposing it to the hostile environment (chaos tests the *serving*
        #: path, not the bulk load)
        self.armed = True

    # ------------------------------------------------------------------
    # faulted operations
    # ------------------------------------------------------------------
    def _consult(self, op: str, bid):
        if not self.armed:
            return -1, None
        index, decision = self.schedule.next_op(op, bid)
        if decision is not None and decision[0] == F.CRASH_OP:
            raise SimulatedCrash(("op", index, op, bid))
        return index, decision

    def alloc(self) -> int:
        """Allocate on the inner store (crash-before is the only fault)."""
        self._consult("alloc", None)
        return self._store.alloc()

    def free(self, bid: int) -> None:
        """Free on the inner store (crash-before is the only fault)."""
        self._consult("free", bid)
        self._store.free(bid)

    def read(self, bid: int):
        """Read through, possibly raising an injected error."""
        index, decision = self._consult("read", bid)
        if bid in self._broken_read:
            raise PermanentIOError(f"read of broken block {bid}")
        if decision is not None:
            kind = decision[0]
            if kind == F.READ_TRANSIENT:
                raise TransientIOError(f"transient read error on block {bid}")
            if kind == F.READ_PERMANENT:
                self._broken_read.add(bid)
                raise PermanentIOError(f"read of broken block {bid}")
        return self._store.read(bid)

    def write(self, bid: int, records: Iterable[Any]) -> None:
        """Write through, possibly erroring, tearing, or crashing."""
        index, decision = self._consult("write", bid)
        if bid in self._broken_write:
            raise PermanentIOError(f"write to broken block {bid}")
        if decision is not None:
            kind = decision[0]
            if kind == F.WRITE_TRANSIENT:
                raise TransientIOError(f"transient write error on block {bid}")
            if kind == F.WRITE_PERMANENT:
                self._broken_write.add(bid)
                raise PermanentIOError(f"write to broken block {bid}")
            if kind == F.TORN_STALE:
                # the write never reached the platter: stale block, dead
                # process
                raise SimulatedCrash(("torn-stale", index, "write", bid))
            if kind == F.TORN_TRUNCATED:
                data = tuple(records)
                keep = int(decision[1] * len(data))
                self._store.write(bid, data[:keep])
                raise SimulatedCrash(("torn-truncated", index, "write", bid))
            if kind == F.CORRUPT_BLOCK:
                # the write lands, then the medium silently rots the
                # block *beneath* every wrapper (including a checksum
                # layer, which will notice on the next verified read)
                data = tuple(records)
                self._store.write(bid, data)
                self.physical_store.scribble(bid, _rotted(data, decision[1]))
                return
        self._store.write(bid, records)

    # ------------------------------------------------------------------
    # repair support
    # ------------------------------------------------------------------
    @property
    def broken_blocks(self):
        """Bids currently latched broken (read or write), sorted."""
        return sorted(self._broken_read | self._broken_write)

    def heal(self, bid: int) -> None:
        """Clear latched permanent faults on one block.

        The repair channel's half of a block repair or replica rebuild:
        once a repair rewrote the block from a healthy copy, the
        simulated dead sector is remapped and later accesses succeed
        (until the schedule injects a fresh fault).
        """
        self._broken_read.discard(bid)
        self._broken_write.discard(bid)

    # ------------------------------------------------------------------
    # named crash points (see repro.io.hooks.crash_point)
    # ------------------------------------------------------------------
    def crash_hook(self, tag: str) -> None:
        """Die here if the schedule picked this crash-point index."""
        if self.schedule.next_point(tag):
            raise SimulatedCrash(("point", self.schedule.points_seen - 1, tag))

    def __repr__(self) -> str:
        return f"FaultyStore({self.schedule!r})"
