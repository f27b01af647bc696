"""Driver entry: one workload, one result line.

``python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S
--trace 0|1`` measures one workload for about ``S`` seconds — five fresh
repetitions sharing the budget, or one traced repetition — and prints,
as the last line of standard output, the JSON object the benchmark
contract asks for.  Everything else lives in ``python -m benchmarks.suite``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from benchmarks.suite import harness, spec  # noqa: E402 - needs ROOT on the path

#: Repetitions (fresh processes, each with its own set-up) per run.
REPETITIONS = 5


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        return report(args)
    except harness.BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2


def report(args: argparse.Namespace) -> int:
    if args.trace:
        result = harness.run_traced_pass(
            [args.workload], seed=args.seed, seconds=args.seconds, out_dir=ROOT / ".bench_out"
        )[args.workload]
        attempted = sum(unit["attempted"] for unit in result["units"])
        failed = attempted - sum(unit["completed"] for unit in result["units"])
    else:
        result = harness.run_set(
            [args.workload], seed=args.seed, repetitions=REPETITIONS, seconds=args.seconds
        )["workloads"][args.workload]
        attempted, failed = result["attempted"], result["failed"]
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    if failed == attempted:
        raise harness.BenchmarkError(f"{args.workload}: no operation completed, nothing to report")
    if args.trace:
        # The result line must carry every per-layer metric as a number:
        # a layer the workload does not exercise (``spec.absent``) did
        # no work, and is written as 0 here and nowhere else.
        values = {m: result["layers"].get(m.name, 0.0) for m in spec.PER_LAYER}
    else:
        values = {m: result["end_to_end"][m.name]["value"] for m in spec.END_TO_END}
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": value, "unit": m.unit} for m, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
