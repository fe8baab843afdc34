"""Deadline propagation: a time budget that bounds a batch's waits.

A :class:`Deadline` is an absolute point on the monotonic clock that
rides along with a batch.  It bounds the waits, not the work: the
admission wait and each shard-lock wait are capped by the remaining
budget, the executor checks it before fan-out, and each shard task
checks it once more when it holds its lock.  A shard task that passes
that last check runs its whole queue; one that does not runs none of
it, and the engine returns a :class:`~repro.serve.executor.
PartialResult` naming the x-slabs that were served.  A batch therefore
finishes at most one shard queue after its deadline, and a missing
slab applied none of its ops.
"""

from __future__ import annotations

import time
from typing import Optional


class Deadline:
    """An absolute time budget on the monotonic clock.

    Build one with :meth:`after` (relative seconds) or pass an absolute
    ``time.monotonic()`` value.  Immutable; cheap to share across
    threads.
    """

    __slots__ = ("_at",)

    def __init__(self, at: float):
        self._at = float(at)

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now (<= 0 is already expired)."""
        return cls(time.monotonic() + seconds)

    @property
    def at(self) -> float:
        """The absolute monotonic expiry time."""
        return self._at

    @property
    def expired(self) -> bool:
        """Whether the budget has run out."""
        return time.monotonic() >= self._at

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self._at - time.monotonic())

    @staticmethod
    def remaining_of(deadline: "Optional[Deadline]") -> Optional[float]:
        """``deadline.remaining()`` or None -- lock/wait timeout plumbing."""
        return None if deadline is None else deadline.remaining()

    def __repr__(self) -> str:
        left = self._at - time.monotonic()
        state = f"{left * 1e3:.1f}ms left" if left > 0 else "expired"
        return f"Deadline({state})"
