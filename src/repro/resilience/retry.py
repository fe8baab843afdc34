"""Bounded exponential-backoff retry, and a store wrapper that applies it.

Transient faults are survivable by construction -- the fault model
guarantees an immediate retry of a transient error succeeds unless the
schedule injects another fault.  :class:`RetryPolicy` makes that
survival *bounded and observable*: at most ``max_attempts`` tries,
exponentially growing capped delays, and a count of every attempt made
(:attr:`RetryPolicy.attempts`) and of the backoff it cost.

Permanent errors raise immediately, and exhausting the attempt budget
raises :class:`~repro.resilience.errors.RetryExhaustedError` chained to
the last error.  A block read or write has no safe partial answer, so
the policy never substitutes one: under a journal the transaction is
rolled back and retried wholesale, and in the serving tier the replica
set fails over to a peer copy.

Delays default to *simulated* time: with ``sleep=None`` the policy
accumulates what it would have slept in :attr:`RetryPolicy.total_backoff`
without stalling the test suite; pass ``time.sleep`` for wall-clock
behaviour.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from repro.io.layer import StoreLayer
from repro.resilience.errors import RetryExhaustedError, TransientIOError


class RetryPolicy:
    """Bounded exponential backoff over transient I/O errors."""

    def __init__(
        self,
        max_attempts: int = 4,
        *,
        base_delay: float = 0.001,
        max_delay: float = 0.25,
        multiplier: float = 2.0,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self.sleep = sleep
        self.total_backoff = 0.0   # simulated seconds waited
        self.attempts = 0          # calls into the protected function

    def delays(self) -> List[float]:
        """The capped backoff sequence (one delay per retry)."""
        out, d = [], self.base_delay
        for _ in range(self.max_attempts - 1):
            out.append(min(d, self.max_delay))
            d *= self.multiplier
        return out

    def _backoff(self, retry_index: int) -> None:
        d = min(self.base_delay * self.multiplier ** retry_index, self.max_delay)
        self.total_backoff += d
        if self.sleep is not None:
            self.sleep(d)

    def call(self, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` under this policy.

        Retries :class:`TransientIOError`.  A permanent error propagates
        at once; an exhausted budget raises :class:`RetryExhaustedError`.
        ``SimulatedCrash`` is a ``BaseException`` and is never caught
        here: dead processes do not retry.
        """
        last: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            self.attempts += 1
            try:
                result = fn(*args, **kwargs)
            except TransientIOError as exc:
                last = exc
                if attempt + 1 < self.max_attempts:
                    self._backoff(attempt)
                continue
            return result
        raise RetryExhaustedError(
            f"gave up after {self.max_attempts} attempts"
        ) from last


class RetryingStore(StoreLayer):
    """Storage layer applying a :class:`RetryPolicy` to every operation.

    Structures opt into retries by wrapping their store; the protocol
    is unchanged.  ``peek`` and ``flush`` pass through without retries.
    """

    def __init__(self, store, policy: Optional[RetryPolicy] = None):
        super().__init__(store)
        self.policy = policy if policy is not None else RetryPolicy()

    def alloc(self) -> int:
        """Allocate with retries."""
        return self.policy.call(self._store.alloc)

    def read(self, bid: int):
        """Read with retries."""
        return self.policy.call(self._store.read, bid)

    def write(self, bid: int, records: Iterable[Any]) -> None:
        """Write with retries (records materialized once, then reused)."""
        data = tuple(records)
        self.policy.call(self._store.write, bid, data)

    def free(self, bid: int) -> None:
        """Free with retries."""
        self.policy.call(self._store.free, bid)

    def __repr__(self) -> str:
        return f"RetryingStore(max_attempts={self.policy.max_attempts})"
