"""Run the benchmark over several seeds; report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads churn_pst_rf2 --seeds 1-5 --seconds 12
    python3 perfbench/spread.py --trace 1 --seeds 1-2 --repeat

Runs one process per (workload, seed), one after another (never in
parallel: they would slow each other down), with the command, run
length and bounds in ``BENCHMARK.json``.  For every end-to-end metric
it prints the median, the quartiles and their distance as a share of
the median -- the spread -- next to the metric's bound.  A spread above
a third of the bound is flagged ``WIDE``; above the bound, ``FAIL``.

``--repeat`` runs every seed twice and asserts that the exact counts
repeat bit for bit (see ``EXACT`` below).  Exits nonzero on a failed
run, a ``FAIL`` spread or an exact count that did not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Counts that must repeat bit for bit across runs of one seed.
EXACT = {
    0: ("physical_io_per_op", "space_blocks_per_kpoint"),
    1: ("core.static_index.catalog_entries_tested_per_query",
        "io.checksum.crc_computations_per_op"),
}


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        values: Dict[str, List[float]] = {}
        for seed in parse_seeds(args.seeds):
            out = run_once(spec, workload, seed, args.seconds, args.trace)
            if not out["correct"] or out["failed"]:
                print(f"{workload} seed {seed}: incorrect run: {out}")
                status = 1
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if args.repeat:
                again = run_once(spec, workload, seed, args.seconds, args.trace)
                for name in EXACT[args.trace]:
                    a, b = out["metrics"][name]["value"], again["metrics"][name]["value"]
                    same = a == b
                    print(f"{workload} seed {seed}: {name} "
                          f"{a!r} vs {b!r} {'repeats' if same else 'DIFFERS'}")
                    status |= 0 if same else 1
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()
                if k in bounds or args.trace), flush=True)
        if args.trace:
            continue
        print(f"\n{workload}: {len(values['setup_s'])} runs")
        print(f"  {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, 0.0)
            flag = ""
            if spread > bound:
                flag, status = "FAIL", 1
            elif spread > bound / 3:
                flag = "WIDE"
            print(f"  {name:<26} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.3f} {bound:>6.2f} {flag}")
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
