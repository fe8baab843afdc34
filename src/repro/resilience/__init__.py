"""Fault injection, retries, and crash-consistent recovery.

The I/O model the paper (and :mod:`repro.io`) works in assumes every
block transfer succeeds.  This package drops that assumption without
touching the structures' logic:

- :class:`FaultSchedule` / :class:`FaultyStore` -- deterministic,
  seed-scheduled injection of read/write errors, torn writes and
  crashes, with a byte-reproducible fault log.
- :class:`RetryingStore` -- bounded immediate retry of transient
  faults; permanent faults fail fast.
- :class:`JournaledStore` -- write-ahead-journal transactions making
  multi-block updates atomic, with :meth:`JournaledStore.recover`
  restoring the last committed state after any crash.
- :func:`verify_recovery` -- the proof harness: crash a structure at
  every injected point of a workload, recover, and diff invariants and
  query answers against an in-memory oracle.

The layers stack as ``JournaledStore(RetryingStore(FaultyStore(
BlockStore(B))))``; each is independently optional and each presents
the standard storage protocol.  With no faults scheduled and no
transactions open, the whole stack adds zero physical I/O.
"""

from repro.resilience.errors import (
    FaultInjectionError,
    PermanentIOError,
    RecoveryError,
    RetryExhaustedError,
    SimulatedCrash,
    TransientIOError,
)
from repro.resilience.faults import FaultEvent, FaultSchedule
from repro.resilience.faulty_store import FaultyStore
from repro.resilience.journal import JournaledStore
from repro.resilience.retry import RetryingStore
from repro.resilience.verifier import (
    RecoveryReport,
    StructureAdapter,
    pst_adapter,
    verify_recovery,
)

__all__ = [
    "FaultInjectionError",
    "TransientIOError",
    "PermanentIOError",
    "RetryExhaustedError",
    "RecoveryError",
    "SimulatedCrash",
    "FaultEvent",
    "FaultSchedule",
    "FaultyStore",
    "RetryingStore",
    "JournaledStore",
    "StructureAdapter",
    "pst_adapter",
    "verify_recovery",
    "RecoveryReport",
]
