"""Block-access tracing: what the I/O counters cannot see.

The paper's model charges every transfer equally, but practitioners also
care about *locality*: sequential block runs are far cheaper on spinning
disks and still matter for SSD prefetching.  :class:`TraceRecorder`
wraps any storage object, records the exact access sequence, and
summarizes it (sequential fraction, distinct blocks, re-reads), enabling
the locality ablation A6 without touching any structure code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Tuple

from repro.io.layer import StoreLayer


@dataclass
class TraceSummary:
    """Aggregate view of an access trace."""

    reads: int
    writes: int
    distinct_blocks: int
    sequential_reads: int      # reads whose bid == previous read bid + 1
    repeat_reads: int          # reads of a block already read before

    @property
    def sequential_fraction(self) -> float:
        """Share of reads that continued a consecutive-bid run."""
        return self.sequential_reads / self.reads if self.reads else 0.0

    @property
    def reread_fraction(self) -> float:
        """Share of reads that revisited an already-read block."""
        return self.repeat_reads / self.reads if self.reads else 0.0


class TraceRecorder(StoreLayer):
    """Storage layer that logs every (op, block id) pair.

    Presents the same protocol as :class:`~repro.io.BlockStore`, so any
    structure runs over it unchanged.  The trace lists tuples
    ``("r"|"w"|"a"|"f", bid)`` in order.
    """

    def __init__(self, store):
        super().__init__(store)
        self.trace: List[Tuple[str, int]] = []

    def alloc(self) -> int:
        """Allocate on the wrapped store, logging the event."""
        bid = self._store.alloc()
        self.trace.append(("a", bid))
        return bid

    def read(self, bid: int):
        """Read through, logging the access."""
        self.trace.append(("r", bid))
        return self._store.read(bid)

    def write(self, bid: int, records: Iterable[Any]) -> None:
        """Write through, logging the access."""
        self.trace.append(("w", bid))
        self._store.write(bid, records)

    def free(self, bid: int) -> None:
        """Free on the wrapped store, logging the event."""
        self.trace.append(("f", bid))
        self._store.free(bid)

    # -- analysis ----------------------------------------------------------
    def clear(self) -> None:
        """Forget the trace so far (e.g. after a build phase)."""
        self.trace = []

    def summary(self) -> TraceSummary:
        """Aggregate the trace into a :class:`TraceSummary`."""
        reads = writes = seq = repeats = 0
        seen: set = set()
        prev_read: Optional[int] = None
        for op, bid in self.trace:
            if op == "r":
                reads += 1
                if prev_read is not None and bid == prev_read + 1:
                    seq += 1
                if bid in seen:
                    repeats += 1
                seen.add(bid)
                prev_read = bid
            elif op == "w":
                writes += 1
        return TraceSummary(
            reads=reads,
            writes=writes,
            distinct_blocks=len(seen),
            sequential_reads=seq,
            repeat_reads=repeats,
        )

    def read_run_lengths(self) -> List[int]:
        """Lengths of maximal consecutive-bid read runs (locality view)."""
        runs: List[int] = []
        prev: Optional[int] = None
        cur = 0
        for op, bid in self.trace:
            if op != "r":
                continue
            if prev is not None and bid == prev + 1:
                cur += 1
            else:
                if cur:
                    runs.append(cur)
                cur = 1
            prev = bid
        if cur:
            runs.append(cur)
        return runs
