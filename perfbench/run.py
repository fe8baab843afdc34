"""Benchmark entry point for the serving engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload query_log_cached --seed 1 \\
        --seconds 12 --trace 0

Prints a table of every metric (name, value, unit, sample count) and,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of an untraced run; ``--trace 1`` the
per-layer ledger of a traced replay.  Exits nonzero, after printing the
result, when any answer was wrong or an exact count did not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the repro package is not under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    from driver import run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace))

    kind = "per-layer (traced replay)" if args.trace else "end-to-end"
    print(f"{args.workload} seed={args.seed} {kind}")
    print(f"  {'metric':<54} {'value':>14}  {'unit':<14} samples")
    for name, (value, unit, samples) in result.metrics.items():
        print(f"  {name:<54} {value:>14.4f}  {unit:<14} {samples}")
    for name, (value, unit, samples) in result.ungated.items():
        print(f"  {name + ' (not gated)':<54} {value:>14.4f}  {unit:<14} {samples}")
    if args.trace:
        layer_self = result.layer_self_us_per_op
        top = max(layer_self, key=layer_self.get)
        print(f"  largest self-time layer: {top} "
              f"({layer_self[top]:.1f} us/op of "
              f"{sum(layer_self.values()):.1f} us/op traced)")
    if result.measured:
        print("  as measured, before scaling to the nominal machine: " + ", ".join(
            f"{name} {value:.4f}" for name, value in result.measured.items()))
    for note in result.notes:
        print(f"  NOTE: {note}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _samples) in result.metrics.items()
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
