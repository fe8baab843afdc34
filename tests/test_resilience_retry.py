"""RetryPolicy / RetryingStore: backoff, modes, metrics, store recovery."""

import pytest

from repro.io import BlockStore
from repro.resilience import (
    FaultSchedule,
    FaultyStore,
    PermanentIOError,
    RetryExhaustedError,
    RetryingStore,
    RetryPolicy,
    TransientIOError,
)


def flaky(n_failures, exc=TransientIOError):
    """A callable that fails ``n_failures`` times, then returns 'ok'."""
    state = {"left": n_failures}

    def fn():
        if state["left"] > 0:
            state["left"] -= 1
            raise exc("injected")
        return "ok"

    return fn


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(0)

    def test_backoff_sequence_capped_exponential(self):
        p = RetryPolicy(5, base_delay=0.01, max_delay=0.05, multiplier=2.0)
        assert p.delays() == [0.01, 0.02, 0.04, 0.05]

    def test_transient_then_success(self):
        p = RetryPolicy(4, base_delay=0.01, max_delay=1.0)
        assert p.call(flaky(2)) == "ok"
        assert p.attempts == 3
        # two retries happened: backoff 0.01 + 0.02 simulated seconds
        assert p.total_backoff == pytest.approx(0.03)

    def test_exhaustion_raises_chained(self):
        p = RetryPolicy(3)
        with pytest.raises(RetryExhaustedError) as ei:
            p.call(flaky(99))
        assert isinstance(ei.value.__cause__, TransientIOError)
        assert p.attempts == 3

    def test_fail_fast_permanent_raises_immediately(self):
        p = RetryPolicy(5)
        with pytest.raises(PermanentIOError):
            p.call(flaky(99, PermanentIOError))
        assert p.attempts == 1  # no retries on permanent errors

    def test_custom_sleep_called(self):
        slept = []
        p = RetryPolicy(3, base_delay=0.5, max_delay=9.9, sleep=slept.append)
        assert p.call(flaky(2)) == "ok"
        assert slept == [0.5, 1.0]

    def test_metrics_outcomes(self):
        recovered = RetryPolicy(4)
        assert recovered.call(flaky(1)) == "ok"
        assert recovered.attempts == 2
        exhausted = RetryPolicy(2)
        with pytest.raises(RetryExhaustedError):
            exhausted.call(flaky(99))
        assert exhausted.attempts == 2


class TestRetryingStore:
    def test_recovers_transient_faults_transparently(self):
        raw = BlockStore(8)
        schedule = FaultSchedule(0, read_error_rate=1.0, max_faults=3)
        store = RetryingStore(FaultyStore(raw, schedule), RetryPolicy(5))
        b = store.alloc()
        store.write(b, [1, 2])
        # all three budgeted transient read faults burn inside one call
        assert list(store.read(b).records) == [1, 2]
        assert len(schedule.events) == 3

    def test_exhaustion_surfaces(self):
        raw = BlockStore(8)
        schedule = FaultSchedule(0, read_error_rate=1.0)  # unbounded
        store = RetryingStore(FaultyStore(raw, schedule), RetryPolicy(3))
        b = store.alloc()
        raw.write(b, [1])
        with pytest.raises(RetryExhaustedError):
            store.read(b)

    def test_permanent_fault_never_degrades_silently(self):
        raw = BlockStore(8)
        schedule = FaultSchedule(
            0, read_error_rate=1.0, transient_fraction=0.0, max_faults=1
        )
        policy = RetryPolicy(3)
        store = RetryingStore(FaultyStore(raw, schedule), policy)
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
