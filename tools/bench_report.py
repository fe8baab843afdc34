#!/usr/bin/env python3
"""Benchmark runner / regression gate for the repro bench suite.

Three modes:

  run (default)
      Runs the full ``benchmarks/`` suite with wall-clock timing disabled
      (the suite is deterministic in I/O counts, which is what we gate
      on), then writes ``BENCH_<tag>.json`` at the repo root and prints a
      summary of the gated counters.

          python tools/bench_report.py --tag local

  compare
      Compares two bench JSON files produced by this tool (or by any
      bench run via ``benchmarks/conftest.py``) and exits nonzero if any
      gated I/O counter regressed beyond the tolerance.

          python tools/bench_report.py --compare BENCH_baseline.json \
              BENCH_local.json --tolerance 2%

  markdown
      Renders a bench JSON file as markdown tables.  Experiments that
      export a ``cache`` section (A7, the pooled serving runs) get an
      extra per-pool table with policy, hit-rate, prefetch and
      write-coalescing columns -- like ``perf``, informational only,
      never gated.

          python tools/bench_report.py --markdown BENCH_local.json

Exit codes: 0 success / no regression; 1 regression or invalid input;
2 bench suite failed to run.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.obs.export import (  # noqa: E402
    SchemaError,
    compare,
    load_bench_json,
    to_markdown,
)


def _parse_tolerance(text: str) -> float:
    """Accept '2', '2%', '2.5%' -> percent as float."""
    text = text.strip()
    if text.endswith("%"):
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid tolerance {text!r}: expected a number like '2' or '2%'"
        )
    if value < 0:
        raise argparse.ArgumentTypeError("tolerance must be >= 0")
    return value


def _run_suite(tag: str, pytest_args: list) -> int:
    out_path = REPO_ROOT / f"BENCH_{tag}.json"
    env = dict(os.environ)
    env["BENCH_TAG"] = tag
    sep = os.pathsep
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = f"{SRC}{sep}{existing}" if existing else str(SRC)
    cmd = [
        sys.executable, "-m", "pytest", "benchmarks/",
        "--benchmark-disable", "-q",
    ] + pytest_args
    print(f"$ {' '.join(cmd)}  (BENCH_TAG={tag})")
    proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
    if proc.returncode != 0:
        print("bench suite failed; no report written", file=sys.stderr)
        return 2
    if not out_path.exists():
        print(f"bench suite passed but {out_path} was not written",
              file=sys.stderr)
        return 2
    payload = load_bench_json(out_path)
    n_gates = sum(
        len(exp["gate"]) for exp in payload["experiments"].values()
    )
    print(f"\nwrote {out_path}: {len(payload['experiments'])} experiments, "
          f"{n_gates} gated counters")
    return 0


def _compare(old_path: str, new_path: str, tolerance_pct: float,
             strict: bool) -> int:
    try:
        old = load_bench_json(old_path)
        new = load_bench_json(new_path)
    except (OSError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = compare(old, new, tolerance_pct=tolerance_pct)
    print(result.summary(strict=strict))
    return 0 if result.ok(strict=strict) else 1


def _markdown(path: str) -> int:
    try:
        payload = load_bench_json(path)
    except (OSError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(to_markdown(payload))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_report",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--tag", default="local",
        help="tag for the output file BENCH_<tag>.json (default: local)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"),
        help="compare two bench JSON files instead of running the suite",
    )
    parser.add_argument(
        "--tolerance", type=_parse_tolerance, default=0.0, metavar="PCT",
        help="allowed regression per gated counter, e.g. '2%%' (default 0)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="in compare mode, also fail on improvements (drift detection)",
    )
    parser.add_argument(
        "--markdown", metavar="JSON",
        help="render a bench JSON file as markdown and exit",
    )
    parser.add_argument(
        "pytest_args", nargs="*",
        help="extra arguments forwarded to pytest in run mode "
             "(e.g. -k e6 to run a subset)",
    )
    args, unknown = parser.parse_known_args(argv)

    if args.compare and args.markdown:
        parser.error("--compare and --markdown are mutually exclusive")
    if args.compare:
        if unknown:
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        return _compare(args.compare[0], args.compare[1],
                        args.tolerance, args.strict)
    if args.markdown:
        if unknown:
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        return _markdown(args.markdown)
    # unknown flags (e.g. -k, -x) are forwarded to pytest in run mode
    return _run_suite(args.tag, unknown + args.pytest_args)


if __name__ == "__main__":
    sys.exit(main())
