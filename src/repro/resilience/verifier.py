"""Crash-recovery verification: crash everywhere, recover, diff an oracle.

The verifier drives a structure through an insert workload under a
:class:`~repro.resilience.FaultyStore` whose schedule injects crashes
both *between* storage operations and at the *named crash points* the
structures annotate (see :func:`repro.io.hooks.crash_point`).  Every
operation runs inside a :class:`~repro.resilience.JournaledStore`
transaction whose commit carries the structure's re-attachment meta.

At every injected crash it plays the failure protocol honestly:

1. all Python objects built over the store are discarded (process
   memory is gone; only the disk and the anchor block ids survive),
2. ``JournaledStore.attach`` + ``recover()`` replay or discard the
   journal -- through the *still-faulty* store, so a crash during
   recovery is itself recovered from,
3. the structure is re-attached from the recovered meta and checked:
   its own ``check_invariants()`` must pass and a battery of 3-sided
   queries must match an in-memory oracle that tracks exactly the
   committed points,
4. the workload resumes; whether the interrupted operation's commit
   record survived decides (via the recovered state, not wishful
   bookkeeping) if the operation is retried.

A structure plugs in through a :class:`StructureAdapter`; the external
PST adapter is built in.  Verification reads go through a *separate*
attachment over the raw store so checking state does not perturb the
fault schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.geometry import INF, NEG_INF
from repro.io.blockstore import BlockStore
from repro.io.layer import StoreLayer
from repro.resilience.errors import RecoveryError, SimulatedCrash
from repro.resilience.faults import FaultSchedule
from repro.resilience.faulty_store import FaultyStore
from repro.resilience.journal import JournaledStore

Point = Tuple[float, float]


class _SiteCounter(StoreLayer):
    """Minimal profiling layer: counts operations and crash points."""

    def __init__(self, store):
        super().__init__(store)
        self.ops = 0
        self.points = 0

    def alloc(self):
        self.ops += 1
        return self._store.alloc()

    def read(self, bid):
        self.ops += 1
        return self._store.read(bid)

    def write(self, bid, records):
        self.ops += 1
        self._store.write(bid, records)

    def free(self, bid):
        self.ops += 1
        self._store.free(bid)

    def crash_hook(self, tag):
        self.points += 1


@dataclass
class StructureAdapter:
    """How the verifier talks to one structure kind."""

    build: Callable[[Any], Any]            # store -> fresh empty structure
    attach: Callable[[Any, Any], Any]      # (store, meta) -> structure
    snapshot: Callable[[Any], Any]         # structure -> meta
    insert: Callable[[Any, Point], None]   # apply one workload point
    query: Callable[[Any, float, float, float], List[Point]]
    check: Callable[[Any], None]           # raises on invariant violation


def pst_adapter(
    scheduler_factory: Optional[Callable[[], Any]] = None,
    strict_ysets: bool = True,
) -> StructureAdapter:
    """Adapter for :class:`~repro.core.external_pst.
    ExternalPrioritySearchTree` (eager scheduling by default, where the
    strict Y-set invariant holds at every commit boundary)."""
    from repro.core.external_pst import ExternalPrioritySearchTree

    def build(store):
        kwargs = {}
        if scheduler_factory is not None:
            kwargs["scheduler"] = scheduler_factory()
        # allow_spill lets tiny-B runs (the harness goes down to B=8)
        # overflow internal nodes into continuation blocks
        return ExternalPrioritySearchTree(store, allow_spill=True, **kwargs)

    def attach(store, meta):
        scheduler = scheduler_factory() if scheduler_factory else None
        return ExternalPrioritySearchTree.attach(store, meta, scheduler=scheduler)

    return StructureAdapter(
        build=build,
        attach=attach,
        snapshot=lambda s: s.snapshot_meta(),
        insert=lambda s, p: s.insert(*p),
        query=lambda s, a, b, c: s.query(a, b, c),
        check=lambda s: s.check_invariants(strict_ysets=strict_ysets),
    )


@dataclass
class RecoveryReport:
    """What one verification run did and proved."""

    block_size: int
    seed: int
    n_points: int
    crashes: int = 0               # injected crashes survived
    recoveries: int = 0            # successful recover() completions
    recovery_retries: int = 0     # crashes *during* recovery, re-recovered
    commits: int = 0
    committed_interrupted: int = 0  # crashed ops whose commit was durable
    checks: int = 0                # full invariant+oracle verifications
    queries_diffed: int = 0
    fault_log: List[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"B={self.block_size} seed={self.seed} n={self.n_points}: "
            f"{self.crashes} crashes, {self.recoveries} recoveries "
            f"({self.recovery_retries} re-recovered), {self.checks} checks, "
            f"{self.queries_diffed} queries diffed"
        )


def _profile_sites(
    adapter: StructureAdapter, points: Sequence[Point], block_size: int
) -> Tuple[int, int]:
    """Dry-run the workload to count operations and crash points."""
    counterstore = _SiteCounter(BlockStore(block_size))
    s = adapter.build(counterstore)
    for p in points:
        adapter.insert(s, p)
    return counterstore.ops, counterstore.points


def _pick_sites(
    total: int, n: int, rng: random.Random, lo_frac: float = 0.02
) -> List[int]:
    """``n`` indices spread over [lo_frac*total, total), one per evenly
    sized stratum with a seeded jitter inside it -- so coverage is even
    but different seeds explore different exact sites."""
    if total <= 0 or n <= 0:
        return []
    lo = int(total * lo_frac)
    hi = max(lo + 1, total - 1)
    if n == 1:
        return [rng.randint(lo, hi)]
    step = (hi - lo) / n
    return sorted(
        {
            min(hi, lo + int(i * step + rng.random() * max(1.0, step)))
            for i in range(n)
        }
    )


def _verify_state(
    adapter: StructureAdapter,
    raw_store: BlockStore,
    meta: Any,
    oracle: set,
    rng: random.Random,
    n_queries: int,
) -> int:
    """Invariants + oracle query diff on a fault-free attachment.

    Returns the number of queries diffed; raises AssertionError on any
    mismatch.
    """
    if meta is None:
        assert not oracle, (
            f"nothing recoverable but oracle holds {len(oracle)} points"
        )
        return 0
    s = adapter.attach(raw_store, meta)
    adapter.check(s)
    diffed = 0
    # full sweep: every committed point, nothing else
    got = sorted(adapter.query(s, NEG_INF, INF, NEG_INF))
    want = sorted(oracle)
    assert got == want, (
        f"full-range diff: {len(got)} reported vs {len(want)} committed"
    )
    diffed += 1
    if oracle:
        xs = sorted(p[0] for p in oracle)
        ys = sorted(p[1] for p in oracle)
        for _ in range(n_queries):
            a, b = sorted((rng.choice(xs), rng.choice(xs)))
            c = rng.choice(ys)
            got = sorted(adapter.query(s, a, b, c))
            want = sorted(
                p for p in oracle if a <= p[0] <= b and p[1] >= c
            )
            assert got == want, f"query ({a},{b},{c}) diff"
            diffed += 1
    return diffed


def verify_recovery(
    points: Sequence[Point],
    *,
    block_size: int,
    seed: int = 0,
    n_crashes: int = 24,
    n_queries: int = 10,
    adapter: Optional[StructureAdapter] = None,
    check_final: bool = True,
) -> RecoveryReport:
    """Run the crash-recover-resume protocol over an insert workload.

    Crashes are scheduled at ``n_crashes`` sites, half between storage
    operations and half at named crash points, spread evenly across a
    profiled dry run of the same workload.  Every crash is recovered
    and verified; the report records exactly what happened.
    """
    if adapter is None:
        adapter = pst_adapter()
    points = [(float(x), float(y)) for x, y in points]
    ops_total, points_total = _profile_sites(adapter, points, block_size)
    rng = random.Random(seed ^ 0x5EED)
    op_sites = _pick_sites(ops_total, n_crashes - n_crashes // 2, rng)
    point_sites = _pick_sites(points_total, n_crashes // 2, rng)

    report = RecoveryReport(
        block_size=block_size, seed=seed, n_points=len(points)
    )
    raw = BlockStore(block_size)
    schedule = FaultSchedule(
        seed, crash_at_ops=op_sites, crash_at_points=point_sites
    )
    faulty = FaultyStore(raw, schedule)

    def recover_attach(anchor) -> Tuple[JournaledStore, Any, Any]:
        """Mount + recover through the faulty store, surviving crashes
        during recovery itself (sites are one-shot, so this converges)."""
        for _attempt in range(n_crashes + 2):
            try:
                js2 = JournaledStore.attach(faulty, anchor)
                meta2 = js2.recover()
                report.recoveries += 1
                if meta2 is None:
                    return js2, None, None
                return js2, adapter.attach(js2, meta2), meta2
            except SimulatedCrash:
                report.crashes += 1
                report.recovery_retries += 1
        raise RecoveryError("recovery did not converge")

    # ---- bootstrap: create the journaled store and the empty structure
    while True:
        try:
            js = JournaledStore(faulty)
            anchor = js.anchor_bids
            js.begin()
            structure = adapter.build(js)
            js.commit(adapter.snapshot(structure))
            report.commits += 1
            break
        except SimulatedCrash:
            # crash before the first commit: the disk holds nothing we
            # need; start over with a fresh journal on the same disk
            report.crashes += 1

    oracle: set = set()
    i = 0
    while i < len(points):
        p = points[i]
        try:
            js.begin()
            adapter.insert(structure, p)
            js.commit(adapter.snapshot(structure))
            report.commits += 1
            oracle.add(p)
            i += 1
        except SimulatedCrash:
            report.crashes += 1
            js, structure, meta = recover_attach(anchor)
            # did the interrupted commit become durable?  The disk, not
            # the harness, is the source of truth.
            if structure is not None and structure.count == len(oracle) + 1:
                oracle.add(p)
                report.committed_interrupted += 1
                i += 1
            elif structure is not None:
                assert structure.count == len(oracle), (
                    f"recovered count {structure.count} matches neither "
                    f"{len(oracle)} nor {len(oracle) + 1}"
                )
            report.queries_diffed += _verify_state(
                adapter, raw, meta, oracle, rng, n_queries
            )
            report.checks += 1
            if structure is None:
                # crashed before anything committed: rebuild from scratch
                while True:
                    try:
                        js.begin()
                        structure = adapter.build(js)
                        js.commit(adapter.snapshot(structure))
                        report.commits += 1
                        break
                    except SimulatedCrash:
                        report.crashes += 1
                        js, structure, _ = recover_attach(anchor)
                        if structure is not None:
                            break

    if check_final:
        report.queries_diffed += _verify_state(
            adapter, raw, adapter.snapshot(structure), oracle, rng, n_queries
        )
        report.checks += 1
    report.fault_log = schedule.log_lines()
    return report
