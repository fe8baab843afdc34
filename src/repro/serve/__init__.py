"""Sharded concurrent query-serving engine over the paper's indexes.

The serving tier turns the single-structure, single-threaded indexes
of :mod:`repro.core` into something a system could put behind an RPC
endpoint: contiguous x-slab shards each owning a replica set of
private store chains and 3-sided structures (:mod:`~repro.serve.
shards`, :mod:`~repro.serve.replication`), a batch executor that fans
operation batches across shards under single-writer / multi-reader
locks and merges results deterministically
(:mod:`~repro.serve.executor`), copy-on-write snapshot epochs for
stable long reads (:mod:`~repro.serve.snapshots`), admission control
with load shedding (:mod:`~repro.serve.admission`),
deadlines that bound a batch's waits and report unserved x-slabs --
each shard queue runs whole or not at all, so a batch is late by at
most one queue (:mod:`~repro.serve.deadline`) -- and a
scrub pass that repairs silent corruption from healthy replicas
(:meth:`ReplicaSet.scrub`).  :class:`ServingEngine` is the
facade wiring them together.

See ``docs/SERVING.md`` for the architecture walk-through and
``docs/RESILIENCE.md`` for the replication / self-healing story.
"""

from repro.serve.admission import AdmissionController, EngineOverloaded
from repro.serve.deadline import Deadline
from repro.serve.engine import EngineSnapshot, ServingEngine
from repro.serve.executor import (
    BatchExecutor,
    BatchResult,
    PartialResult,
    ShardTaskError,
)
from repro.serve.locks import ReadWriteLock
from repro.serve.replication import (
    CircuitBreaker,
    Replica,
    ReplicaSet,
    ReplicaSetExhausted,
    ReplicaSpec,
)
from repro.serve.shards import BACKENDS, Shard, SlabRouter
from repro.serve.snapshots import ShardSnapshot, SnapshotReader, SnapshotStore

__all__ = [
    "AdmissionController",
    "BACKENDS",
    "BatchExecutor",
    "BatchResult",
    "CircuitBreaker",
    "Deadline",
    "EngineOverloaded",
    "EngineSnapshot",
    "PartialResult",
    "ReadWriteLock",
    "Replica",
    "ReplicaSet",
    "ReplicaSetExhausted",
    "ReplicaSpec",
    "ServingEngine",
    "Shard",
    "ShardSnapshot",
    "ShardTaskError",
    "SlabRouter",
    "SnapshotReader",
    "SnapshotStore",
]
