#!/usr/bin/env python3
"""Benchmark of the standing-long-jump analyser.

    python3 perfbench/run.py --workload jump_paper --seed 0 --seconds 30 --trace 0

Runs one workload (``jump_paper``, ``class_session`` or
``service_mixed``, see README.md) against the program in ``src/`` of the
checkout it sits in, checks every output, and prints a summary line
followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every workload reports the same metrics: ``--trace 0`` the end-to-end
metrics of untraced runs; ``--trace 1`` installs spans around each
layer's public functions and reports the per-layer metrics instead
(spans are written to ``perfbench/out/``).  Facts that only one
workload has, such as the service's per-path latencies, go on the
summary line.  The exit code is 0 only when every output was
correct; a missing program, a crash of the benchmark itself or a wrong
output exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from common import OUT, SRC


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("jump_paper", "class_session", "service_mixed"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "service_mixed":
        from service import run_service_mixed as run
    elif args.workload == "jump_paper":
        from library import run_jump_paper as run
    else:
        from library import run_class_session as run
    try:
        outcome = run(args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 3
    correct = outcome.failed == 0 and outcome.attempted > 0
    failed_ratio = outcome.failed / max(outcome.attempted, 1)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_ratio": failed_ratio,
        "run_wall_s": round(time.perf_counter() - started, 2),
        **outcome.notes,
        "problems": outcome.problems,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"summary-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(summary, indent=1, default=str))
    print("summary " + json.dumps(summary, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": outcome.metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
