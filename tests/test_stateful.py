"""Hypothesis stateful (rule-based) machines for the dynamic structures.

These generate arbitrary interleavings of inserts, deletes, queries and
maintenance operations and compare every observable against a model,
catching interaction bugs that fixed scenarios miss.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.io import BlockStore
from repro.core.external_pst import ExternalPrioritySearchTree
from repro.core.small_structure import SmallThreeSidedStructure
from repro.geometry import INF, NEG_INF, ThreeSidedQuery
from repro.resilience import (
    FaultSchedule,
    FaultyStore,
    JournaledStore,
    RetryingStore,
    SimulatedCrash,
)
from repro.substrates.av_interval_tree import SlabIntervalTree

coord = st.integers(min_value=0, max_value=25).map(float)
point = st.tuples(coord, coord)


class PSTMachine(RuleBasedStateMachine):
    """External priority search tree vs. a set model."""

    def __init__(self):
        super().__init__()
        self.pst = ExternalPrioritySearchTree(BlockStore(16))
        self.model = set()
        self.ops = 0

    @rule(p=point)
    def insert(self, p):
        if p in self.model:
            return
        self.pst.insert(*p)
        self.model.add(p)
        self.ops += 1

    @rule(p=point)
    def delete(self, p):
        assert self.pst.delete(*p) == (p in self.model)
        self.model.discard(p)
        self.ops += 1

    @rule(a=coord, b=coord, c=coord)
    def query(self, a, b, c):
        if a > b:
            a, b = b, a
        got = sorted(self.pst.query(a, b, c))
        want = sorted(
            p for p in self.model if a <= p[0] <= b and p[1] >= c
        )
        assert got == want

    @rule(b=coord, c=coord)
    def two_sided(self, b, c):
        got = sorted(self.pst.query_two_sided(b, c))
        want = sorted(p for p in self.model if p[0] <= b and p[1] >= c)
        assert got == want

    @rule(a=coord, b=coord, k=st.integers(1, 8))
    def top_k(self, a, b, k):
        if a > b:
            a, b = b, a
        got = self.pst.top_k(a, b, k)
        want = sorted(
            (p for p in self.model if a <= p[0] <= b),
            key=lambda p: (-p[1], p[0]),
        )[:k]
        assert got == want

    @precondition(lambda self: self.ops > 0 and self.ops % 7 == 0)
    @rule()
    def force_rebuild(self):
        self.pst.rebuild()

    @invariant()
    def counts_agree(self):
        assert self.pst.count == len(self.model)


class SmallStructureMachine(RuleBasedStateMachine):
    """Lemma 1 structure vs. a set model."""

    def __init__(self):
        super().__init__()
        self.s = SmallThreeSidedStructure(BlockStore(8))
        self.model = set()

    @rule(p=point)
    def insert(self, p):
        if p in self.model:
            return
        self.s.insert(p)
        self.model.add(p)

    @rule(p=point)
    def delete(self, p):
        assert self.s.delete(p) == (p in self.model)
        self.model.discard(p)

    @rule(a=coord, b=coord, c=coord)
    def query(self, a, b, c):
        if a > b:
            a, b = b, a
        got = sorted(self.s.query(ThreeSidedQuery(a, b, c)))
        want = sorted(
            p for p in self.model if a <= p[0] <= b and p[1] >= c
        )
        assert got == want

    @rule()
    def top(self):
        want = max(self.model, key=lambda p: (p[1], p[0])) if self.model else None
        assert self.s.top() == want

    @invariant()
    def structure_sound(self):
        assert self.s.count == len(self.model)


class SlabIntervalMachine(RuleBasedStateMachine):
    """Slab-based interval tree vs. a set model."""

    def __init__(self):
        super().__init__()
        self.tree = None
        self.model = set()

    @initialize(ivs=st.sets(
        st.tuples(coord, st.integers(0, 15)).map(
            lambda t: (t[0], t[0] + float(t[1]))
        ),
        max_size=30,
    ))
    def build(self, ivs):
        self.model = set(ivs)
        self.tree = SlabIntervalTree(BlockStore(9), sorted(ivs))

    @rule(l=coord, span=st.integers(0, 15))
    def insert(self, l, span):
        iv = (l, l + float(span))
        if iv in self.model:
            return
        self.tree.insert(*iv)
        self.model.add(iv)

    @rule(l=coord, span=st.integers(0, 15))
    def delete(self, l, span):
        iv = (l, l + float(span))
        assert self.tree.delete(*iv) == (iv in self.model)
        self.model.discard(iv)

    @rule(q=st.integers(-2, 45).map(float))
    def stab(self, q):
        got = sorted(self.tree.stab(q))
        want = sorted((l, r) for l, r in self.model if l <= q <= r)
        assert got == want

    @invariant()
    def counts_agree(self):
        if self.tree is not None:
            assert self.tree.count == len(self.model)


class FaultyPSTMachine(RuleBasedStateMachine):
    """PST over ``JournaledStore(RetryingStore(FaultyStore(...)))`` vs a
    set model, with rules that arm crash sites and flip transient-error
    rates *between* the structural operations.

    Every operation runs in a journal transaction.  When an armed site
    fires, the machine plays the death honestly: all live objects are
    discarded, the journal is re-attached and recovered through the
    still-faulty store, the structure is re-attached from the recovered
    meta, and the recovered count (the disk, not the harness) decides
    whether the interrupted commit became durable.  After each recovery
    the full point set is diffed against the model.
    """

    def __init__(self):
        super().__init__()
        self.raw = BlockStore(16)
        self.schedule = FaultSchedule(0)
        self.retrying = RetryingStore(
            FaultyStore(self.raw, self.schedule), max_attempts=8
        )
        self.js = JournaledStore(self.retrying)
        self.anchor = self.js.anchor_bids
        self.js.begin()
        self.pst = ExternalPrioritySearchTree(self.js)
        self.js.commit(self.pst.snapshot_meta())
        self.model = set()
        self.crashes = 0

    def _crash_recover(self):
        """Post-mortem protocol: discard the live objects, recover the
        journal (surviving crashes *during* recovery -- sites are
        one-shot), re-attach.  Returns the recovered point count."""
        self.crashes += 1
        while True:
            try:
                js = JournaledStore.attach(self.retrying, self.anchor)
                meta = js.recover()
                self.js = js
                self.pst = ExternalPrioritySearchTree.attach(js, meta)
                return self.pst.count
            except SimulatedCrash:
                continue

    def _oracle_diff(self):
        while True:
            try:
                got = sorted(self.pst.query(NEG_INF, INF, NEG_INF))
                break
            except SimulatedCrash:
                self._crash_recover()
        assert got == sorted(self.model)

    @rule(p=point)
    def insert(self, p):
        if p in self.model:
            return
        try:
            self.js.begin()
            self.pst.insert(*p)
            self.js.commit(self.pst.snapshot_meta())
            self.model.add(p)
        except SimulatedCrash:
            count = self._crash_recover()
            if count == len(self.model) + 1:
                self.model.add(p)   # the interrupted commit was durable
            else:
                assert count == len(self.model)
            self._oracle_diff()

    @rule(p=point)
    def delete(self, p):
        try:
            self.js.begin()
            present = self.pst.delete(*p)
            self.js.commit(self.pst.snapshot_meta())
            assert present == (p in self.model)
            self.model.discard(p)
        except SimulatedCrash:
            count = self._crash_recover()
            if p in self.model and count == len(self.model) - 1:
                self.model.discard(p)
            else:
                assert count == len(self.model)
            self._oracle_diff()

    @rule(a=coord, b=coord, c=coord)
    def query(self, a, b, c):
        if a > b:
            a, b = b, a
        try:
            got = sorted(self.pst.query(a, b, c))
        except SimulatedCrash:
            self._crash_recover()
            self._oracle_diff()
            return
        want = sorted(
            p for p in self.model if a <= p[0] <= b and p[1] >= c
        )
        assert got == want

    @rule(k=st.integers(0, 12))
    def arm_op_crash(self, k):
        """Die ``k`` storage operations from now."""
        self.schedule.crash_at_ops.add(self.schedule.ops_seen + k)

    @rule(k=st.integers(0, 4))
    def arm_point_crash(self, k):
        """Die at the ``k``-th named crash point from now."""
        self.schedule.crash_at_points.add(self.schedule.points_seen + k)

    @rule(rate=st.sampled_from([0.0, 0.0, 0.08]))
    def set_flakiness(self, rate):
        """Flip transient read/write error rates; the retry layer must
        absorb these without any help from the machine."""
        self.schedule.read_error_rate = rate
        self.schedule.write_error_rate = rate

    @invariant()
    def counts_agree(self):
        assert self.pst.count == len(self.model)


TestPSTMachine = PSTMachine.TestCase
TestPSTMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
TestSmallStructureMachine = SmallStructureMachine.TestCase
TestSmallStructureMachine.settings = settings(
    max_examples=30, stateful_step_count=50, deadline=None
)
TestSlabIntervalMachine = SlabIntervalMachine.TestCase
TestSlabIntervalMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
TestFaultyPSTMachine = FaultyPSTMachine.TestCase
TestFaultyPSTMachine.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
