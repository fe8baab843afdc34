"""Admission control: bounded queue and load shedding.

The serving tier refuses to melt down: at most ``max_inflight``
batches execute at once, and past that the controller applies its
policy --

- ``"block"``: up to ``max_queue`` submitting threads wait their turn
  (classic bounded queue; work is preserved, latency absorbs the
  overload), and overflow beyond the bound is shed.  A caller may bound
  its own wait (``acquire(max_wait=)``; the engine passes a batch's
  remaining deadline) and is shed when the bound passes;
- ``"shed"``: a submission that cannot start immediately is rejected
  (latency is preserved, work is shed) -- the engine surfaces the
  rejection as :class:`EngineOverloaded`.

Every decision is counted on the controller (``admitted``, ``sheds``,
``timed_out``) and summarised, with the current queue depth and
in-flight count, by :meth:`snapshot`.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional


class EngineOverloaded(RuntimeError):
    """The admission controller shed this request (queue full)."""


class AdmissionController:
    """Counting semaphore with a bounded wait queue and a shed policy."""

    def __init__(
        self,
        *,
        max_inflight: int = 4,
        max_queue: int = 16,
        policy: str = "block",
    ):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if policy not in ("block", "shed"):
            raise ValueError("policy must be 'block' or 'shed'")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.policy = policy
        self._cond = threading.Condition()
        self._inflight = 0
        self._waiting = 0
        self.admitted = 0
        self.sheds = 0
        self.timed_out = 0

    # ------------------------------------------------------------------
    def acquire(self, max_wait: Optional[float] = None) -> bool:
        """Admit or shed one request; True means the caller may proceed
        (and must :meth:`release` when done).

        ``max_wait`` bounds this caller's wait in the ``block`` queue
        (``None`` = wait for a slot); a wait past it sheds the request,
        counted in ``shed`` like queue overflow and in ``shed_timed_out``.
        """
        with self._cond:
            if self._inflight < self.max_inflight:
                self._admit_locked()
                return True
            if self.policy == "shed" or self._waiting >= self.max_queue:
                # "shed" never waits; "block" waits while the bounded
                # queue has room and sheds beyond it -- an unbounded
                # wait line would defeat the point of a bounded queue.
                self.sheds += 1
                return False
            deadline = (
                None if max_wait is None else time.monotonic() + max_wait
            )
            self._waiting += 1
            try:
                while self._inflight >= self.max_inflight:
                    if deadline is None:
                        self._cond.wait()
                        continue
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        # waited past the bound: shed from the queue
                        self.timed_out += 1
                        self.sheds += 1
                        return False
                    self._cond.wait(remaining)
            finally:
                self._waiting -= 1
            self._admit_locked()
            return True

    def _admit_locked(self) -> None:
        self._inflight += 1
        self.admitted += 1

    def release(self) -> None:
        """Return one admission slot and wake a waiter."""
        with self._cond:
            self._inflight -= 1
            self._cond.notify()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Structured summary for ``stats()`` and bench export."""
        with self._cond:
            decided = self.admitted + self.sheds
            return {
                "policy": self.policy,
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "inflight": self._inflight,
                "queue_depth": self._waiting,
                "admitted": self.admitted,
                "shed": self.sheds,
                "shed_timed_out": self.timed_out,
                "shed_rate": (self.sheds / decided) if decided else 0.0,
            }

    def __repr__(self) -> str:
        return (
            f"AdmissionController(policy={self.policy!r}, "
            f"inflight={self._inflight}/{self.max_inflight}, "
            f"queued={self._waiting}/{self.max_queue}, shed={self.sheds})"
        )
