"""Bounded exponential-backoff retry, and a store wrapper that applies it.

Transient faults are survivable by construction -- the fault model
guarantees an immediate retry of a transient error succeeds unless the
schedule injects another fault.  :class:`RetryPolicy` makes that
survival *bounded and observable*: at most ``max_attempts`` tries,
exponentially growing capped delays, and a metrics trail
(``retries{layer=retry,outcome=...}``) so bench exports show what the
fault layer cost.

Two failure modes, chosen per policy:

- **fail-fast** (default): permanent errors raise immediately;
  exhausting the attempt budget raises
  :class:`~repro.resilience.errors.RetryExhaustedError` chained to the
  last error.  This is the right mode under a journal, where the txn
  will be rolled back and retried wholesale.
- **degrade**: callers that can serve a partial answer pass
  ``fallback=...`` to :meth:`RetryPolicy.call`; on a permanent error or
  an exhausted budget the fallback value is returned instead of
  raising (and counted as ``outcome=degraded``).  Without a fallback,
  degrade behaves like fail-fast -- a block store read has no safe
  partial answer, so :class:`RetryingStore` never degrades silently.

Delays default to *simulated* time: with ``sleep=None`` the policy
accumulates what it would have slept in :attr:`RetryPolicy.total_backoff`
without stalling the test suite; pass ``time.sleep`` for wall-clock
behaviour.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from repro.io.layer import StoreLayer
from repro.obs.metrics import counter
from repro.resilience.errors import (
    PermanentIOError,
    RetryExhaustedError,
    TransientIOError,
)

_MISSING = object()


class RetryPolicy:
    """Bounded exponential backoff over transient I/O errors."""

    def __init__(
        self,
        max_attempts: int = 4,
        *,
        base_delay: float = 0.001,
        max_delay: float = 0.25,
        multiplier: float = 2.0,
        mode: str = "fail-fast",
        sleep: Optional[Callable[[float], None]] = None,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if mode not in ("fail-fast", "degrade"):
            raise ValueError(f"unknown mode {mode!r}")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self.mode = mode
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

    def call(self, fn: Callable, *args, fallback: Any = _MISSING, **kwargs):
        """Run ``fn(*args, **kwargs)`` under this policy.

        Retries :class:`TransientIOError`; handles
        :class:`PermanentIOError` and budget exhaustion per mode (see
        module docstring).  ``SimulatedCrash`` is a ``BaseException``
        and is never caught here: dead processes do not retry.
        """
        last: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            self.attempts += 1
            try:
                result = fn(*args, **kwargs)
            except TransientIOError as exc:
                last = exc
                counter("retries", layer="retry", outcome="retried").inc()
                if attempt + 1 < self.max_attempts:
                    self._backoff(attempt)
                continue
            except PermanentIOError as exc:
                if self.mode == "degrade" and fallback is not _MISSING:
                    counter("retries", layer="retry", outcome="degraded").inc()
                    return fallback
                raise
            if attempt > 0:
                counter("retries", layer="retry", outcome="recovered").inc()
            return result
        counter("retries", layer="retry", outcome="gave_up").inc()
        if self.mode == "degrade" and fallback is not _MISSING:
            counter("retries", layer="retry", outcome="degraded").inc()
            return fallback
        raise RetryExhaustedError(
            f"gave up after {self.max_attempts} attempts"
        ) from last


class RetryingStore(StoreLayer):
    """Storage layer applying a :class:`RetryPolicy` to every operation.

    Structures opt into retries by wrapping their store; the protocol
    is unchanged.  Reads and writes have no safe partial answer, so no
    fallback is ever supplied: a degrade-mode policy still raises here.
    ``peek`` and ``flush`` pass through without retries.
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
        data = list(records)
        self.policy.call(self._store.write, bid, data)

    def free(self, bid: int) -> None:
        """Free with retries."""
        self.policy.call(self._store.free, bid)

    def __repr__(self) -> str:
        return f"RetryingStore(max_attempts={self.policy.max_attempts})"
