"""Pluggable frame-replacement policies for the buffer pool.

The paper states its bounds in block transfers; *which* blocks a cache
keeps resident decides how many transfers a real workload pays.  The
pool in :mod:`repro.io.bufferpool` delegates that decision to a policy
object so the experiments can compare strategies under identical
workloads:

- :class:`LRUPolicy` -- classic least-recently-used, bit-for-bit the
  behaviour of the original insertion-order pool (the default, and the
  one the gated experiment baselines were recorded under).
- :class:`TwoQPolicy` -- the 2Q algorithm (Johnson & Shasha, VLDB '94):
  a probationary FIFO ``A1in`` absorbs first-touch blocks, a ghost
  queue ``A1out`` remembers recently evicted ids, and only a block
  re-referenced *after* leaving ``A1in`` is admitted to the protected
  LRU ``Am``.  Big sequential sweeps (``BlockedSequence`` CONT-chain
  scans, bulk builds) flow through ``A1in`` without displacing the hot
  upper-level blocks parked in ``Am`` -- scan resistance.
- :class:`ClockPolicy` -- second-chance CLOCK: one reference bit per
  frame and a sweeping hand, approximating LRU at O(1) per touch.

The protocol is deliberately small; the pool owns the frame table and
the policy owns only the ordering:

``record_insert(bid)``
    A frame was admitted (read miss or write of an uncached block).
``record_hit(bid)``
    A resident frame was touched again (read or write hit).
``peek_victim() -> bid | None``
    Choose the next frame to evict *without* removing it -- the pool
    only removes the frame after its dirty write-back succeeded, so a
    failed flush leaves pool and policy consistent.  ``None`` means no
    evictable frame exists (the pool raises ``BlockCapacityError``).
``evicted(bid)``
    The chosen victim actually left the pool (2Q records its ghost).
``record_remove(bid)``
    A frame left outside eviction (``free`` or ``pin``); no ghost.

Policies never see pinned blocks: the pool keeps those in a separate
resident set, exactly as the paper keeps its O(1) catalog blocks in
main memory.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Type, Union


class ReplacementPolicy:
    """Base class: the ordering half of a buffer pool."""

    name = "?"

    def __init__(self, capacity: int):
        self.capacity = capacity

    def record_insert(self, bid: int) -> None:
        raise NotImplementedError

    def record_hit(self, bid: int) -> None:
        raise NotImplementedError

    def peek_victim(self) -> Optional[int]:
        raise NotImplementedError

    def evicted(self, bid: int) -> None:
        """Default: eviction removes like any other removal."""
        self.record_remove(bid)

    def record_remove(self, bid: int) -> None:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(capacity={self.capacity})"


class LRUPolicy(ReplacementPolicy):
    """Least-recently-used; insertion order == recency order.

    Reproduces the original pool's ``OrderedDict`` exactly: admit at
    the MRU end, touch moves to the MRU end, evict from the LRU head.
    The gated experiment baselines assume this eviction sequence.
    """

    name = "lru"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def record_insert(self, bid: int) -> None:
        self._order[bid] = None

    def record_hit(self, bid: int) -> None:
        self._order.move_to_end(bid)

    def peek_victim(self) -> Optional[int]:
        return next(iter(self._order)) if self._order else None

    def record_remove(self, bid: int) -> None:
        self._order.pop(bid, None)

    def clear(self) -> None:
        self._order.clear()

    def __len__(self) -> int:
        return len(self._order)


class TwoQPolicy(ReplacementPolicy):
    """Scan-resistant 2Q: probationary FIFO + ghost queue + protected LRU.

    Parameters follow the paper's tuning guidance: ``A1in`` holds up to
    a quarter of the capacity, the ghost ``A1out`` remembers half a
    capacity's worth of evicted ids (ids only -- no data, so the memory
    cost is negligible).  A block's life cycle:

    1. first touch -> tail of ``A1in`` (FIFO; repeat touches while
       probationary do NOT promote -- correlated accesses within one
       scan pass are not evidence of reuse),
    2. evicted from ``A1in`` -> id parked in ``A1out``,
    3. touched again while ghosted -> admitted to ``Am`` (protected
       LRU): the block demonstrated genuine re-reference distance.

    Reclaim prefers ``A1in`` whenever it is over its share, so
    sequential floods cannibalize themselves and ``Am`` survives.
    """

    name = "2q"

    def __init__(self, capacity: int, *,
                 kin: Optional[int] = None, kout: Optional[int] = None):
        super().__init__(capacity)
        self.kin = max(1, capacity // 4) if kin is None else max(1, kin)
        self.kout = max(1, capacity // 2) if kout is None else max(0, kout)
        self._a1in: "OrderedDict[int, None]" = OrderedDict()
        self._a1out: "OrderedDict[int, None]" = OrderedDict()
        self._am: "OrderedDict[int, None]" = OrderedDict()

    def record_insert(self, bid: int) -> None:
        if bid in self._a1out:
            # re-referenced after probation: proven reuse -> protected
            del self._a1out[bid]
            self._am[bid] = None
        else:
            self._a1in[bid] = None

    def record_hit(self, bid: int) -> None:
        if bid in self._am:
            self._am.move_to_end(bid)
        # hits inside A1in deliberately do not reorder or promote

    def peek_victim(self) -> Optional[int]:
        if self._a1in and (len(self._a1in) > self.kin or not self._am):
            return next(iter(self._a1in))
        if self._am:
            return next(iter(self._am))
        if self._a1in:
            return next(iter(self._a1in))
        return None

    def evicted(self, bid: int) -> None:
        if bid in self._a1in:
            del self._a1in[bid]
            self._a1out[bid] = None
            while len(self._a1out) > self.kout:
                self._a1out.popitem(last=False)
        else:
            self._am.pop(bid, None)

    def record_remove(self, bid: int) -> None:
        # freed or pinned: forget entirely, including the ghost (a freed
        # id may be re-allocated to unrelated data)
        self._a1in.pop(bid, None)
        self._am.pop(bid, None)
        self._a1out.pop(bid, None)

    def clear(self) -> None:
        self._a1in.clear()
        self._a1out.clear()
        self._am.clear()

    def __len__(self) -> int:
        return len(self._a1in) + len(self._am)

    def snapshot(self) -> Dict[str, int]:
        """Queue occupancies for the observability exporters."""
        return {
            "a1in": len(self._a1in),
            "a1out": len(self._a1out),
            "am": len(self._am),
        }


class ClockPolicy(ReplacementPolicy):
    """Second-chance CLOCK: reference bits and a sweeping hand.

    Frames sit on a logical ring (dict order); a touch sets the frame's
    reference bit.  The victim search sweeps from the hand, clearing
    set bits and rotating those frames behind the hand, and picks the
    first frame whose bit is already clear.  O(1) amortized, no
    per-touch reordering -- the classic cheap LRU approximation.
    """

    name = "clock"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._ref: "OrderedDict[int, bool]" = OrderedDict()

    def record_insert(self, bid: int) -> None:
        self._ref[bid] = False

    def record_hit(self, bid: int) -> None:
        self._ref[bid] = True

    def peek_victim(self) -> Optional[int]:
        if not self._ref:
            return None
        # at most one full rotation clears every set bit
        for _ in range(2 * len(self._ref)):
            bid = next(iter(self._ref))
            if self._ref[bid]:
                self._ref[bid] = False
                self._ref.move_to_end(bid)
            else:
                return bid
        return next(iter(self._ref))

    def record_remove(self, bid: int) -> None:
        self._ref.pop(bid, None)

    def clear(self) -> None:
        self._ref.clear()

    def __len__(self) -> int:
        return len(self._ref)


#: Selectable policies, by the name the ``BufferPool(policy=...)``
#: parameter accepts.
POLICIES: Dict[str, Type[ReplacementPolicy]] = {
    LRUPolicy.name: LRUPolicy,
    TwoQPolicy.name: TwoQPolicy,
    ClockPolicy.name: ClockPolicy,
}


def make_policy(
    policy: Union[str, ReplacementPolicy], capacity: int
) -> ReplacementPolicy:
    """Resolve a policy spec: a name or a ready instance."""
    if isinstance(policy, ReplacementPolicy):
        return policy
    try:
        return POLICIES[policy](capacity)
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {policy!r}; "
            f"choose from {sorted(POLICIES)}"
        ) from None
