"""RetryingStore: attempt budget, fail-fast modes, store recovery."""

import pytest

from repro.io import BlockStore
from repro.resilience import (
    FaultSchedule,
    FaultyStore,
    PermanentIOError,
    RetryExhaustedError,
    RetryingStore,
    TransientIOError,
)


class FlakyStore(BlockStore):
    """A store whose next ``n_failures`` reads raise ``exc``."""

    def __init__(self, n_failures, exc=TransientIOError):
        super().__init__(8)
        self.left = n_failures
        self.exc = exc

    def read(self, bid):
        if self.left > 0:
            self.left -= 1
            raise self.exc("injected")
        return super().read(bid)


def retrying(n_failures, max_attempts, exc=TransientIOError):
    """A RetryingStore over a FlakyStore holding one block ``[1]``."""
    raw = FlakyStore(n_failures, exc)
    raw.write(raw.alloc(), [1])
    return RetryingStore(raw, max_attempts)


class TestPolicy:
    """The retry policy: an immediate, bounded loop counted in
    ``attempts``."""

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryingStore(BlockStore(8), 0)

    def test_transient_then_success(self):
        store = retrying(2, 4)
        assert store.read(0).records == (1,)
        assert store.attempts == 3

    def test_exhaustion_raises_chained(self):
        store = retrying(99, 3)
        with pytest.raises(RetryExhaustedError) as ei:
            store.read(0)
        assert isinstance(ei.value.__cause__, TransientIOError)
        assert store.attempts == 3

    def test_fail_fast_permanent_raises_immediately(self):
        store = retrying(99, 5, PermanentIOError)
        with pytest.raises(PermanentIOError):
            store.read(0)
        assert store.attempts == 1  # no retries on permanent errors

    def test_metrics_outcomes(self):
        recovered = retrying(1, 4)
        assert recovered.read(0).records == (1,)
        assert recovered.attempts == 2
        exhausted = retrying(99, 2)
        with pytest.raises(RetryExhaustedError):
            exhausted.read(0)
        assert exhausted.attempts == 2

    def test_attempts_accumulate_across_operations(self):
        store = retrying(1, 4)
        assert store.read(0).records == (1,)
        assert store.attempts == 2
        store.write(0, [2])
        assert store.read(0).records == (2,)
        assert store.attempts == 4


class TestRetryingStore:
    def test_recovers_transient_faults_transparently(self):
        raw = BlockStore(8)
        schedule = FaultSchedule(0, read_error_rate=1.0, max_faults=3)
        store = RetryingStore(FaultyStore(raw, schedule), 5)
        b = store.alloc()
        store.write(b, [1, 2])
        # all three budgeted transient read faults burn inside one call
        assert list(store.read(b).records) == [1, 2]
        assert len(schedule.events) == 3

    def test_exhaustion_surfaces(self):
        raw = BlockStore(8)
        schedule = FaultSchedule(0, read_error_rate=1.0)  # unbounded
        store = RetryingStore(FaultyStore(raw, schedule), 3)
        b = store.alloc()
        raw.write(b, [1])
        with pytest.raises(RetryExhaustedError):
            store.read(b)

    def test_permanent_fault_never_degrades_silently(self):
        raw = BlockStore(8)
        schedule = FaultSchedule(
            0, read_error_rate=1.0, transient_fraction=0.0, max_faults=1
        )
        store = RetryingStore(FaultyStore(raw, schedule), 3)
        b = store.alloc()
        raw.write(b, [1])
        with pytest.raises(PermanentIOError):
            store.read(b)

    def test_protocol_passthrough(self):
        raw = BlockStore(16)
        store = RetryingStore(FaultyStore(raw, FaultSchedule(0)))
        assert store.block_size == 16
        assert store.physical_store is raw
        b = store.alloc()
        store.write(b, ["x"])
        assert store.peek(b) == ("x",)
        assert store.blocks_in_use == 1
        store.free(b)
        assert store.blocks_in_use == 0

    def test_zero_added_physical_io(self):
        plain = BlockStore(16)
        raw = BlockStore(16)
        stack = RetryingStore(FaultyStore(raw, FaultSchedule(0)))
        for store in (plain, stack):
            bids = [store.alloc() for _ in range(10)]
            for i, b in enumerate(bids):
                store.write(b, [i])
            for b in bids:
                store.read(b)
        assert (raw.stats.reads, raw.stats.writes) == (
            plain.stats.reads,
            plain.stats.writes,
        )
