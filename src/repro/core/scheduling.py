"""Section 3.3.3: scheduling bubble-up operations for worst-case inserts.

When a base-tree node splits, each half's Y-set may be left with fewer
than ``B/2`` points and must be refilled by *bubble-up* operations (each
promotes the current top point of the node's subtree into its Y-set).
Doing all ``B/2`` refills at split time is the amortized strategy of
Section 3.3.2; the paper's Section 3.3.3 gives three ways of *pacing*
them across subsequent inserts so no single insert pays more than
``O(log_B N)`` I/Os for promotions, while every promotion performed is a
COMPLETE bubble-up (so Y-sets stay "the topmost points", merely possibly
under-full, and queries remain correct):

- **heavy-leaf**: each leaf cycles a level counter; every insert into the
  leaf performs one bubble-up on the ancestor at that level (Lemma 7;
  requires leaf parameter ``k = Theta(B log_B N)`` for the full
  guarantee).
- **credit**: path nodes in rebuilding mode accrue one credit per insert
  that passes them; a node at level ``l`` becomes eligible at ``l``
  credits, and each insert spends at most ``2 log_B N`` I/Os' worth of
  eligible bubble-ups bottom-up (Lemma 8).
- **child-split**: on an insert whose leaf splits but whose root does
  not, the lowest non-splitting ancestor (the *designated node*, Lemma 9)
  receives ``beta = O(1)`` bubble-ups.

The **eager** scheduler is the amortized baseline: every refill runs to
completion at split time.

The structural part of a split (partitioning the node and its query
structure) is performed eagerly in all modes; only the refill promotions
are paced.  The extended abstract defers the split itself as well, but
the refill pacing is the part its three lemmas analyze, and experiments
E6b measure exactly that: the per-insert distribution of promotion I/Os.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.io.hooks import crash_point
from repro.obs.spans import span


class BubbleUpScheduler:
    """Base class: receives split/insert events, decides promotion timing."""

    name = "base"

    def __init__(self) -> None:
        self.pst = None
        self.pending: Set[int] = set()   # node bids awaiting Y-set refills
        self.promotions = 0              # total complete bubble-ups run

    def attach(self, pst) -> None:
        """Bind the scheduler to its priority search tree."""
        self.pst = pst

    # -- events ---------------------------------------------------------
    def register_refill(self, parent_bid: int, child_bid: int) -> None:
        """A split left ``child_bid``'s Y-set (stored in ``parent_bid``)
        possibly under-full."""
        raise NotImplementedError

    def on_insert(
        self, path: List[int], split_bids: List[int], root_split: bool
    ) -> None:
        """Called after each insert with the root->leaf path of node bids
        and the bids that split (bottom-up: leaf first)."""

    def on_node_destroyed(self, bid: int) -> None:
        """Forget per-node state for a freed node."""
        self.pending.discard(bid)

    def on_rebuild(self) -> None:
        """Reset all state after a global rebuild."""
        self.pending.clear()

    # -- persistence (crash recovery; see repro.resilience) --------------
    def snapshot_state(self) -> dict:
        """Serializable scheduler state for the journal superblock.

        Returns fresh copies only: the snapshot must not alias live
        mutable state, because it outlives this process in the journal.
        """
        return {"pending": sorted(self.pending), "promotions": self.promotions}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`snapshot_state` (call after :meth:`attach`)."""
        self.pending = set(state["pending"])
        self.promotions = state["promotions"]

    # -- helpers ---------------------------------------------------------
    def _promote(self, parent_bid: int, child_bid: int) -> bool:
        """One complete bubble-up on ``child_bid``; prunes pending."""
        if child_bid not in self.pending:
            return False
        crash_point(self.pst._store, "sched.promote")
        with span(self.pst._store, "pst.promote"):
            done = self.pst.promote_once(parent_bid, child_bid)
            if done:
                self.promotions += 1
            if self.pst.refill_deficit(parent_bid, child_bid) <= 0:
                self.pending.discard(child_bid)
        return done


class EagerScheduler(BubbleUpScheduler):
    """Amortized strategy of Section 3.3.2: refill fully at split time."""

    name = "eager"

    def register_refill(self, parent_bid: int, child_bid: int) -> None:
        with span(self.pst._store, "pst.promote"):
            while self.pst.refill_deficit(parent_bid, child_bid) > 0:
                crash_point(self.pst._store, "sched.refill.step")
                if not self.pst.promote_once(parent_bid, child_bid):
                    break
                self.promotions += 1


class HeavyLeafScheduler(BubbleUpScheduler):
    """Heavy-leaf method: per-leaf cycling level counter (Lemma 7).

    Build the tree with ``k = Theta(B log_B N)`` to get the paper's full
    guarantee; the scheduler itself works for any ``k``.
    """

    name = "heavy-leaf"

    def __init__(self) -> None:
        super().__init__()
        self._counter: Dict[int, int] = {}

    def snapshot_state(self) -> dict:
        """Base state plus the per-leaf cycling counters."""
        state = super().snapshot_state()
        state["counter"] = dict(self._counter)
        return state

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`snapshot_state`."""
        super().restore_state(state)
        self._counter = dict(state["counter"])

    def register_refill(self, parent_bid: int, child_bid: int) -> None:
        if self.pst.refill_deficit(parent_bid, child_bid) > 0:
            self.pending.add(child_bid)

    def on_insert(self, path, split_bids, root_split) -> None:
        if len(path) < 2:
            return
        leaf = path[-1]
        level = self._counter.get(leaf, 1)
        if level >= len(path):           # wrapped past the root
            level = 1
        idx = len(path) - 1 - level
        if idx >= 1:                      # the root has no Y-set
            self._promote(path[idx - 1], path[idx])
        self._counter[leaf] = level + 1

    def on_node_destroyed(self, bid: int) -> None:
        """Forget per-node state for a freed node."""
        super().on_node_destroyed(bid)
        self._counter.pop(bid, None)

    def on_rebuild(self) -> None:
        """Reset all state after a global rebuild."""
        super().on_rebuild()
        self._counter.clear()


class CreditScheduler(BubbleUpScheduler):
    """Credit method: eligibility counters per node (Lemma 8)."""

    name = "credit"

    def __init__(self) -> None:
        super().__init__()
        self._credit: Dict[int, int] = {}

    def snapshot_state(self) -> dict:
        """Base state plus the per-node eligibility credits."""
        state = super().snapshot_state()
        state["credit"] = dict(self._credit)
        return state

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`snapshot_state`."""
        super().restore_state(state)
        self._credit = dict(state["credit"])

    def register_refill(self, parent_bid: int, child_bid: int) -> None:
        if self.pst.refill_deficit(parent_bid, child_bid) > 0:
            self.pending.add(child_bid)
            self._credit.setdefault(child_bid, 0)

    def on_insert(self, path, split_bids, root_split) -> None:
        height = len(path)
        # accrue one credit per rebuilding node on the path
        for idx, bid in enumerate(path):
            if bid in self.pending:
                self._credit[bid] = self._credit.get(bid, 0) + 1
        # spend up to 2*height I/Os of eligible bubble-ups, bottom-up
        budget = 2 * height
        spent = 0
        for level in range(1, height):
            if spent >= budget:
                break
            idx = height - 1 - level
            if idx < 1:
                break                     # the root has no Y-set
            bid = path[idx]
            if bid in self.pending and self._credit.get(bid, 0) >= level:
                if self._promote(path[idx - 1], bid):
                    spent += level
                self._credit[bid] = 1

    def on_node_destroyed(self, bid: int) -> None:
        """Forget per-node state for a freed node."""
        super().on_node_destroyed(bid)
        self._credit.pop(bid, None)

    def on_rebuild(self) -> None:
        """Reset all state after a global rebuild."""
        super().on_rebuild()
        self._credit.clear()


class ChildSplitScheduler(BubbleUpScheduler):
    """Child-split method: the designated node gets beta bubble-ups
    (Lemma 9)."""

    name = "child-split"

    def __init__(self, beta: int = 4) -> None:
        super().__init__()
        self.beta = beta

    def register_refill(self, parent_bid: int, child_bid: int) -> None:
        if self.pst.refill_deficit(parent_bid, child_bid) > 0:
            self.pending.add(child_bid)

    def on_insert(self, path, split_bids, root_split) -> None:
        if root_split:
            return
        split_set = set(split_bids)
        if not split_set or path[-1] not in split_set:
            return  # Lemma 9 considers only inserts whose leaf split
        # length of the contiguous split chain from the leaf upward
        s = 0
        while s < len(path) and path[len(path) - 1 - s] in split_set:
            s += 1
        idx = len(path) - 1 - s          # the designated node
        if idx < 1:                       # designated node is the root
            return
        for _ in range(self.beta):
            if not self._promote(path[idx - 1], path[idx]):
                break


ALL_SCHEDULERS = {
    "eager": EagerScheduler,
    "heavy-leaf": HeavyLeafScheduler,
    "credit": CreditScheduler,
    "child-split": ChildSplitScheduler,
}
