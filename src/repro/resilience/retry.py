"""Bounded immediate retry, as a store layer.

Transient faults are survivable by construction -- the fault model
guarantees an immediate retry of a transient error succeeds unless the
schedule injects another fault.  :class:`RetryingStore` makes that
survival *bounded and observable*: at most ``max_attempts`` tries per
operation, and a count of every attempt made (:attr:`attempts`).  The
simulated disk never waits, so neither does a retry: the next attempt
runs at once.

Permanent errors raise immediately, and exhausting the attempt budget
raises :class:`~repro.resilience.errors.RetryExhaustedError` chained to
the last error.  A block read or write has no safe partial answer, so
the layer never substitutes one: under a journal the transaction is
rolled back and retried wholesale, and in the serving tier the replica
set fails over to a peer copy.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.io.layer import StoreLayer
from repro.resilience.errors import RetryExhaustedError, TransientIOError


class RetryingStore(StoreLayer):
    """Storage layer retrying every operation over transient errors.

    Structures opt into retries by wrapping their store; the protocol
    is unchanged.  ``peek`` and ``flush`` pass through without retries.
    """

    def __init__(self, store, max_attempts: int = 4):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        super().__init__(store)
        self.max_attempts = max_attempts
        self.attempts = 0   # calls into the wrapped store

    def _retry(self, fn: Callable, *args):
        """Run ``fn(*args)``, retrying :class:`TransientIOError`.

        A permanent error propagates at once; an exhausted budget raises
        :class:`RetryExhaustedError`.  ``SimulatedCrash`` is a
        ``BaseException`` and is never caught here: dead processes do
        not retry.
        """
        last: Optional[Exception] = None
        for _ in range(self.max_attempts):
            self.attempts += 1
            try:
                return fn(*args)
            except TransientIOError as exc:
                last = exc
        raise RetryExhaustedError(
            f"gave up after {self.max_attempts} attempts"
        ) from last

    def alloc(self) -> int:
        """Allocate with retries."""
        return self._retry(self._store.alloc)

    def read(self, bid: int):
        """Read with retries."""
        return self._retry(self._store.read, bid)

    def write(self, bid: int, records: Iterable[Any]) -> None:
        """Write with retries (records materialized once, then reused)."""
        self._retry(self._store.write, bid, tuple(records))

    def free(self, bid: int) -> None:
        """Free with retries."""
        self._retry(self._store.free, bid)

    def __repr__(self) -> str:
        return f"RetryingStore(max_attempts={self.max_attempts})"
