"""Seeded closed-loop, single-client driver for ``ServingEngine``.

One client submits a batch of ``BATCH_OPS`` trace operations, waits for
the answer, and submits the next.  A run is:

1. generate the points and the whole trace from the seed (untimed);
2. build ``SETUP_BUILDS`` fresh engines, timing each (``setup_s`` is
   their median); the last one serves the run;
3. warm up with ``WARMUP_BATCHES`` batches, then ``gc.collect()``;
4. the timed phase: batches until ``seconds`` were spent inside
   ``execute()``, at least ``MIN_BATCHES`` batches ran (so the p99 has
   ten batches beyond it) and the exact-count window of
   ``CHECK_OPS`` ops is complete;
5. a second fresh engine replays warm-up plus the exact-count window
   (traced when ``--trace 1``): its exact counts must equal the timed
   engine's, bit for bit;
6. every answer of every batch is checked against :class:`Oracle`.

Timing metrics are reported at a nominal machine speed (see
:mod:`reference`): reference samples run around every build and every
``REF_EVERY`` timed batches, outside the measured time.  Each build is
scaled by its own two samples, the timed phase by their median.

Exact counts are taken over the fixed window of the first
``CHECK_OPS`` timed ops, with the buffer pools flushed at its end so
deferred write-backs are charged to the ops that dirtied them; a
time-bounded phase would otherwise cover a different prefix each run.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.serve.engine import ServingEngine

from reference import Speedometer, fanout_reference_unit
from workloads import (
    BATCH_OPS, BLOCK_SIZE, EXTENT, Op, Oracle, Workload, make_points,
    make_trace,
)

SETUP_BUILDS = 15
WARMUP_BATCHES = 100
CHECK_OPS = 4800
MIN_BATCHES = 1000
REF_EVERY = 16
# trace headroom: the timed phase never runs out of ops below this rate
MAX_OPS_PER_S = 6000


def engine_config(w: Workload) -> Dict[str, object]:
    """Engine keyword arguments: the workload's plus the common ones."""
    cfg: Dict[str, object] = dict(
        block_size=BLOCK_SIZE,
        io_latency=0.0,
        max_workers=min(2, os.cpu_count() or 1),
        extent=EXTENT,
    )
    cfg.update(w.engine)
    return cfg


def replicas(engine: ServingEngine):
    return [r for sh in engine.router.shards for r in sh.replica_set.replicas]


def physical_io(engine: ServingEngine) -> int:
    """All-replica ``BlockStore`` reads plus writes."""
    return sum(r.base_store.stats.reads + r.base_store.stats.writes
               for r in replicas(engine))


def blocks_in_use(engine: ServingEngine) -> int:
    """All-replica blocks allocated on the physical stores."""
    return sum(r.base_store.blocks_in_use for r in replicas(engine))


@dataclass
class Checkpoint:
    """Exact counts over the fixed window, plus its timing."""

    physical_io: int
    blocks: int
    live_points: int
    busy_s: float


@dataclass
class Phase:
    """What one closed-loop stretch of batches produced."""

    # per batch: one fingerprint per op (see ``fingerprint``), or None
    # when the batch raised
    answers: List[Optional[list]] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    shard_tasks: int = 0
    returned_points: int = 0
    busy_s: float = 0.0
    ops: int = 0
    errors: int = 0
    checkpoint: Optional[Checkpoint] = None


def fingerprint(answer: object) -> object:
    """A compact, GC-untracked stand-in for one op's answer.

    Query answers (point lists) become the hash of their tuple, which is
    deterministic for floats; ``None`` and booleans stay as they are.
    Holding every raw answer would grow the heap with the run length,
    and with it collector work and peak RSS.
    """
    if type(answer) is list:
        return hash(tuple(answer))
    return answer


def drive(
    engine: ServingEngine,
    ops: List[Op],
    start: int,
    *,
    seconds: float = 0.0,
    min_batches: int = 0,
    check_ops: int = 0,
    on_window_start=None,
    on_window_end=None,
    speed: Optional[Speedometer] = None,
) -> Phase:
    """Run whole batches from ``ops[start:]`` in a closed loop.

    Only the time spent inside ``execute()`` is measured (``busy_s``):
    the client's own bookkeeping between batches (fingerprinting
    answers, the checkpoint) is think time, not engine time.  Stops
    once ``seconds`` were measured and at least ``min_batches`` batches
    and ``check_ops`` ops ran (or the trace is exhausted).  With
    ``speed``, reference samples run before the first batch and after
    every ``REF_EVERY`` batches.
    """
    phase = Phase()
    i = start
    busy = 0.0
    if speed is not None:
        speed.sample()
    if on_window_start is not None:
        on_window_start()
    io0 = physical_io(engine)
    while i + BATCH_OPS <= len(ops):
        batch = ops[i:i + BATCH_OPS]
        t0 = perf_counter()
        try:
            res = engine.execute(batch)
        except Exception:  # a failed batch is a miss, not a crash
            t1 = perf_counter()
            if phase.errors == 0:
                traceback.print_exc(file=sys.stderr)
            phase.errors += 1
            phase.answers.append(None)
        else:
            t1 = perf_counter()
            phase.shard_tasks += res.shards_touched
            prints = [fingerprint(r) for r in res.results]
            phase.answers.append(prints)
            phase.returned_points += sum(
                len(r) for r in res.results if type(r) is list)
        phase.latencies.append(t1 - t0)
        busy += t1 - t0
        i += BATCH_OPS
        if speed is not None and len(phase.latencies) % REF_EVERY == 0:
            speed.sample()
        done = i - start
        if done == check_ops:
            if on_window_end is not None:
                on_window_end()
            for r in replicas(engine):
                r.flush()
            phase.checkpoint = Checkpoint(
                physical_io=physical_io(engine) - io0,
                blocks=blocks_in_use(engine),
                live_points=engine.count,
                busy_s=busy,
            )
        if (busy >= seconds and len(phase.latencies) >= min_batches
                and done >= check_ops):
            break
    phase.busy_s = busy
    phase.ops = i - start
    return phase


def build_engines(w: Workload, points, n: int,
                  speed: Optional[Speedometer] = None,
                  ) -> Tuple[ServingEngine, List[float], List[float]]:
    """Build ``n`` fresh engines, timing each; return the last one.

    Returns the engine, the build times as measured and, with ``speed``
    (reference samples around every build), at the nominal speed.
    """
    times: List[float] = []
    engine = None
    for _ in range(n):
        if engine is not None:
            engine.close()
            engine = None
        gc.collect()
        if speed is not None:
            speed.sample()
        t0 = perf_counter()
        engine = ServingEngine(points, **engine_config(w))
        times.append(perf_counter() - t0)
    if speed is None:
        return engine, times, []
    speed.sample()
    # build j ran between samples j and j + 1
    return engine, times, [speed.nominal(t, j + 1) for j, t in enumerate(times)]


def warm_up(engine: ServingEngine, ops: List[Op]) -> Phase:
    phase = drive(engine, ops[:WARMUP_BATCHES * BATCH_OPS], 0,
                  min_batches=WARMUP_BATCHES)
    gc.collect()
    return phase


def check_answers(points, ops: List[Op], phases: List[Phase]) -> List[int]:
    """Replay ``ops`` on the oracle; per phase, the ops answered wrong.

    A batch that raised counts all of its ops as wrong.
    """
    oracle = Oracle(points)
    wrong: List[int] = []
    i = 0
    for phase in phases:
        bad = 0
        for prints in phase.answers:
            batch = ops[i:i + BATCH_OPS]
            i += BATCH_OPS
            for j, (kind, arg) in enumerate(batch):
                expect = fingerprint(oracle.apply(kind, arg))
                if prints is None or prints[j] != expect:
                    bad += 1
        wrong.append(bad)
    return wrong


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(samples)
    k = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[k]


def peak_rss_mb() -> float:
    """The process's peak resident set so far."""
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    """The process's resident set now (the peak where /proc is absent)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return peak_rss_mb()
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str, int]]  # name -> (value, unit, samples)
    notes: List[str] = field(default_factory=list)
    # timing metrics before scaling to the nominal machine, and the
    # references' median times
    measured: Dict[str, float] = field(default_factory=dict)
    # printed, but not in BENCHMARK.json: too unsteady to gate on
    ungated: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    # traced runs: self time per op of every layer in ``tracing.LAYERS``
    layer_self_us_per_op: Dict[str, float] = field(default_factory=dict)


def run(w: Workload, seed: int, seconds: float, traced: bool) -> RunResult:
    """One full run; ``traced`` selects the per-layer metrics."""
    points = make_points(w, seed)
    n_ops = WARMUP_BATCHES * BATCH_OPS + max(
        MIN_BATCHES * BATCH_OPS, CHECK_OPS, int(seconds * MAX_OPS_PER_S))
    n_ops -= n_ops % BATCH_OPS
    ops = make_trace(w, seed, points, n_ops)
    start = WARMUP_BATCHES * BATCH_OPS
    # the inputs live all run: keep them out of every later collection,
    # and out of the memory charged to the engine
    gc.collect()
    gc.freeze()
    rss_base = rss_mb()

    setup_speed = Speedometer()
    engine, setup_times, setup_nominal = build_engines(
        w, points, SETUP_BUILDS, setup_speed)
    # the fan-out reference gets a pool as wide as the engine's executor
    ref_pool = ThreadPoolExecutor(max_workers=engine_config(w)["max_workers"])
    timed_speed = Speedometer(lambda: fanout_reference_unit(ref_pool))
    try:
        warm = warm_up(engine, ops)
        timed = drive(engine, ops, start, seconds=seconds,
                      min_batches=MIN_BATCHES, check_ops=CHECK_OPS,
                      speed=timed_speed)
    finally:
        engine.close()
        ref_pool.shutdown()
    del engine
    gc.collect()

    # second fresh engine over the same warm-up + window: exact counts
    # must repeat; with tracing it also yields the per-layer ledger
    replay, _, _ = build_engines(w, points, 1)
    ledger = None
    try:
        replay_warm = warm_up(replay, ops)
        if traced:
            from ledger import LayerLedger

            ledger = LayerLedger(replay)
            again = drive(replay, ops, start, check_ops=CHECK_OPS,
                          on_window_start=ledger.start,
                          on_window_end=ledger.stop)
        else:
            again = drive(replay, ops, start, check_ops=CHECK_OPS)
    finally:
        replay.close()

    notes: List[str] = []
    if timed.busy_s < seconds:
        notes.append(f"the trace ran out after {timed.busy_s:.2f} s of the "
                     f"{seconds:g} s asked for; raise MAX_OPS_PER_S")
    cp, cp2 = timed.checkpoint, again.checkpoint
    exact_ok = (cp is not None and cp2 is not None
                and (cp.physical_io, cp.blocks, cp.live_points)
                == (cp2.physical_io, cp2.blocks, cp2.live_points))
    if not exact_ok:
        notes.append(f"exact counts differ between engines: {cp} vs {cp2}")

    wrong_warm, wrong_timed = check_answers(points, ops, [warm, timed])
    wrong_replay = check_answers(points, ops, [replay_warm, again])
    attempted = timed.ops
    failed = wrong_timed
    if wrong_warm or sum(wrong_replay):
        notes.append(f"wrong answers outside the timed phase: warm-up "
                     f"{wrong_warm}, replay {sum(wrong_replay)}")
    if failed:
        notes.append(f"{failed} of {attempted} timed ops answered wrong "
                     f"({timed.errors} batches raised)")
    correct = exact_ok and not failed and not wrong_warm and not sum(wrong_replay)

    if traced:
        window_ops = CHECK_OPS
        untraced = window_ops / cp.busy_s
        traced_tput = window_ops / cp2.busy_s
        rows = ledger.rows(ops[start:start + window_ops], again, untraced,
                           traced_tput)
        metrics = {name: (value, unit, window_ops) for name, value, unit in rows}
        return RunResult(correct, attempted, failed, metrics, notes,
                         layer_self_us_per_op=ledger.layer_self_us_per_op(window_ops))

    lat_ms = [x * 1000.0 for x in timed.latencies]
    n_batches = len(lat_ms)
    measured = {
        "throughput_ops_s": timed.ops / timed.busy_s,
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p95_ms": percentile(lat_ms, 95),
        "setup_s": statistics.median(setup_times),
        "reference_setup_ms": setup_speed.median() * 1000.0,
        "reference_timed_ms": timed_speed.median() * 1000.0,
    }
    # to the nominal machine: times scale by k, rates by 1 / k
    k = timed_speed.scale()
    metrics = {
        "throughput_ops_s": (measured["throughput_ops_s"] / k, "ops/s", timed.ops),
        "latency_p50_ms": (measured["latency_p50_ms"] * k, "ms", n_batches),
        "setup_s": (statistics.median(setup_nominal), "s", len(setup_times)),
        "physical_io_per_op": (cp.physical_io / CHECK_OPS, "io/op", CHECK_OPS),
        "space_blocks_per_kpoint": (
            1000.0 * cp.blocks / cp.live_points, "blocks/kpoint", 1),
        "peak_rss_mb": (peak_rss_mb() - rss_base, "MB", 1),
        "success_rate": ((attempted - failed) / attempted, "ratio", attempted),
    }
    # the tail: its quartile spread over ten runs reached 0.15-0.21 of
    # its median (p95) and 0.22-0.42 (p99), too wide to gate on
    ungated = {
        "latency_p95_ms": (measured["latency_p95_ms"] * k, "ms", n_batches),
        "latency_p99_ms": (percentile(lat_ms, 99) * k, "ms", n_batches),
    }
    return RunResult(correct, attempted, failed, metrics, notes,
                     measured=measured, ungated=ungated)
