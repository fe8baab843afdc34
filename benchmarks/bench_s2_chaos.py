"""S2 -- chaos serving: replicated engine under seeded fault injection.

The self-healing tier's claim is *observational equivalence under
duress*: a replication_factor=2 engine with live fault injection
(transient and permanent read/write errors plus silent block
corruption), a mid-run primary kill and periodic scrubbing must return
byte-identical answers to the fault-free run and lose no acknowledged
write -- every fault is healed in place, rolled back, or failed over.

Everything here is deterministic: replicas draw from per-stream seeded
:class:`~repro.resilience.faults.FaultSchedule` forks, breakers and
retry bounds are count-driven, and scrub cycles run at fixed op
indices, so the chaos run's exact I/O counts (and every repair
counter) are reproducible and gated like any other experiment.

Gated counters:

- ``wrong_answers`` / ``lost_acked_writes`` / ``write_rejections`` --
  the zero-tolerance correctness core,
- ``scrub_unrepaired`` -- the scrubber must repair 100% of the rot it
  finds (a healthy peer copy always exists at factor 2),
- ``determinism_mismatch`` -- a second identical chaos run must match
  the first byte for byte,
- ``overhead_excess`` -- all-replica physical I/O of the chaos run may
  cost at most ``OVERHEAD_BOUND``x the fault-free replicated run
  (repairs, rollbacks and rebuilds are honest I/O, but bounded),
- exact all-replica I/O of the chaos run, pinning the cost model.

Wall-clock throughput rides in ``perf`` (never gated).
"""

from repro.serve import ServingEngine
from repro.workloads import uniform_points
from repro.workloads.traces import generate_trace

from conftest import record_result

B = 16
N_BASE = 1500
N_OPS = 400
BATCH = 20
EXTENT = 1_000_000.0
N_SHARDS = 2
FACTOR = 2
FAULT_SEED = 902
KILL_AT_BATCH = 8          # kill shard 0's primary here, heal 2 batches later
SCRUB_EVERY = 4            # batches between scrub cycles
ROT_AT_BATCH = 15          # scribble at-rest rot right before this scrub
ROT_BLOCKS = 6             # blocks rotted on shard 1's secondary replica
OVERHEAD_BOUND = 4.0       # chaos I/O <= 4x the fault-free replicated run
CHAOS_RATES = {
    "corrupt_rate": 0.02,
    "read_error_rate": 0.02,
    "write_error_rate": 0.02,
    "transient_fraction": 0.5,
}


def _engine(base, factor, chaos):
    kwargs = {}
    if chaos:
        kwargs = dict(fault_seed=FAULT_SEED, fault_rates=dict(CHAOS_RATES))
    return ServingEngine(
        base, n_shards=N_SHARDS, block_size=B, backend="log",
        replication_factor=factor, max_workers=N_SHARDS, **kwargs,
    )


def _inject_rot(eng):
    """Scribble at-rest rot under the whole chain of shard 1's secondary.

    This models media decay between writes: the bytes flip on disk with
    no fault-schedule draw, no failed op, nothing for the transactional
    write path to catch.  Only the scrubber's CRC walk can find it.  The secondary is chosen because reads prefer the primary,
    so the rot stays latent until the scrub cycle that follows.
    """
    r = eng.router.shards[1].replica_set.replicas[1]
    r.flush()  # no dirty frame may later overwrite the rot
    bids = [
        b
        for b in sorted(r.checksummed.block_ids())
        if r.checksummed.crc_of(b) is not None
    ][:ROT_BLOCKS]
    for b in bids:
        r.base_store.scribble(b, [("bitrot", b)])
    return len(bids)


def _replay(base, trace, *, factor, chaos, kill=False):
    """Run the trace in fixed batches; returns (answers, final, stats,
    blocks rotted)."""
    eng = _engine(base, factor, chaos)
    answers = []
    rotted = 0
    batches = [trace[i:i + BATCH] for i in range(0, len(trace), BATCH)]
    for bi, batch in enumerate(batches):
        if kill and bi == KILL_AT_BATCH:
            eng.kill_replica(0, 0, "chaos monkey: primary of shard 0")
        if kill and bi == KILL_AT_BATCH + 2:
            eng.heal()
        res = eng.execute(batch)
        answers.append(res.results)
        if chaos and bi == ROT_AT_BATCH:
            rotted += _inject_rot(eng)
        if chaos and bi % SCRUB_EVERY == SCRUB_EVERY - 1:
            eng.scrub()
    if chaos:
        eng.scrub()  # final pass: nothing rotten may outlive the run
    final = eng.execute([("q4", (0.0, EXTENT, 0.0, EXTENT))]).results[0]
    stats = eng.stats()
    eng.close()
    return answers, final, stats, rotted


def _oracle_final(trace, base):
    """Live set after the trace (acknowledged-write ground truth)."""
    live = set(base)
    for kind, arg in trace:
        if kind == "ins":
            live.add(arg)
        elif kind == "del":
            live.discard(arg)
    return sorted(live)


def _run():
    base = uniform_points(N_BASE, seed=901)
    trace = generate_trace(
        N_OPS, mix=(0.35, 0.25, 0.25), q4_weight=0.15, seed=FAULT_SEED,
        extent=EXTENT, initial=base,
    )

    # -- fault-free references ------------------------------------------
    o_answers, o_final, o_stats, _ = _replay(
        base, trace, factor=1, chaos=False
    )
    r_answers, r_final, r_stats, _ = _replay(
        base, trace, factor=FACTOR, chaos=False
    )
    assert r_answers == o_answers  # replication alone changes nothing
    ref_io = (
        r_stats["total_replica_reads"] + r_stats["total_replica_writes"]
    )

    # -- the chaos run (and its determinism double) ---------------------
    c_answers, c_final, c_stats, c_rot = _replay(
        base, trace, factor=FACTOR, chaos=True, kill=True
    )
    d_answers, d_final, d_stats, _ = _replay(
        base, trace, factor=FACTOR, chaos=True, kill=True
    )

    wrong = sum(
        1
        for ba, bo in zip(c_answers, o_answers)
        for a, o in zip(ba, bo)
        if a != o
    )
    lost = len(set(_oracle_final(trace, base)) - set(c_final))
    chaos_io = (
        c_stats["total_replica_reads"] + c_stats["total_replica_writes"]
    )
    overhead = chaos_io / ref_io if ref_io else 0.0
    determinism_mismatch = int(
        c_answers != d_answers
        or c_final != d_final
        or c_stats["replication"] != d_stats["replication"]
        or c_stats["scrub"] != d_stats["scrub"]
    )
    repl = c_stats["replication"]
    scrub = c_stats["scrub"]

    rows = [
        ["fault-free r=1", "-", "-", "-", "-", "-",
         o_stats["total_reads"] + o_stats["total_writes"]],
        ["fault-free r=2", "-", "-", "-", "-", "-", ref_io],
        [
            f"chaos r=2 (seed {FAULT_SEED})",
            repl["failovers"],
            repl["rebuilds"],
            repl["read_fallbacks"],
            scrub["repairs"],
            f"{overhead:.2f}x",
            chaos_io,
        ],
    ]
    gate = {
        "wrong_answers": wrong,
        "lost_acked_writes": lost,
        "write_rejections": repl["writes_rejected"],
        "scrub_unrepaired": scrub["unrepaired"],
        "rot_injected": c_rot,
        "rot_missed_by_scrub": max(0, c_rot - scrub["repairs"]),
        "rebuild_failures": repl["rebuild_failures"],
        "dead_replicas_at_end": FACTOR * N_SHARDS - repl["live_replicas"],
        "determinism_mismatch": determinism_mismatch,
        "overhead_excess": round(max(0.0, overhead - OVERHEAD_BOUND), 3),
        "chaos_total_replica_io": chaos_io,
    }
    perf = {
        "overhead_ratio": round(overhead, 3),
        "failovers": repl["failovers"],
        "rebuilds": repl["rebuilds"],
        "read_fallbacks": repl["read_fallbacks"],
        "breaker_opened": repl["breaker_opened"],
        "crc_mismatches": repl["crc_mismatches"],
        "scrub_cycles": scrub["cycles"],
        "scrub_repairs": scrub["repairs"],
        "scrub_blocks_checked": scrub["blocks_checked"],
    }
    return rows, gate, perf


def test_s2_chaos(benchmark):
    rows, gate, perf = benchmark.pedantic(_run, rounds=1, iterations=1)
    record_result(
        "S2",
        title=(
            f"[S2] Chaos serving: {N_OPS}-op trace over a {N_BASE}-point "
            f"base at replication_factor={FACTOR} with live fault "
            f"injection, a primary kill and periodic scrub (B={B})"
        ),
        headers=[
            "configuration", "failovers", "rebuilds", "read fallbacks",
            "scrub repairs", "I/O overhead", "replica I/O",
        ],
        rows=rows,
        gate=gate,
        perf=perf,
        notes=(
            "Answers under chaos are asserted byte-identical to the "
            "fault-free oracle and no acknowledged write is lost; "
            f"{ROT_BLOCKS} blocks of at-rest bitrot are scribbled under "
            "a secondary replica mid-run and the "
            "scrubber must repair every rotten block it finds and the "
            "whole run (fault draws, repairs, failovers, exact I/O) is "
            "deterministic given the seed. Overhead compares all-replica "
            f"physical I/O against the fault-free factor-{FACTOR} run "
            f"and is gated at {OVERHEAD_BOUND}x."
        ),
    )
    assert gate["wrong_answers"] == 0, "chaos run returned wrong answers"
    assert gate["lost_acked_writes"] == 0, "acknowledged writes were lost"
    assert gate["scrub_unrepaired"] == 0, "scrubber left rot unrepaired"
    assert gate["rot_injected"] == ROT_BLOCKS, "at-rest rot injection failed"
    assert gate["rot_missed_by_scrub"] == 0, "scrub missed injected bitrot"
    assert gate["determinism_mismatch"] == 0, "chaos run not reproducible"
    assert gate["overhead_excess"] == 0.0, (
        f"failover overhead past {OVERHEAD_BOUND}x: {perf['overhead_ratio']}"
    )
