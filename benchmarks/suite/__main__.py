"""``python -m benchmarks.suite run|compare`` — the whole benchmark, one command.

``run`` measures every workload (a set of interleaved fresh-process
repetitions), checks every output, prints every end-to-end metric by
name with its unit, and exits non-zero if any correctness check fails.
``run --traced`` adds the traced pass and prints the per-layer metrics.
``compare A.json B.json`` judges B against A with the fixed bounds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import compare, harness, spec, stats

#: Timed budget of one traced repetition (pieces, then full-stack calls).
TRACED_SECONDS = 10.0


def _print_workload(name: str, result: dict) -> None:
    print(
        f"\n{name}: {result['units']} units; the quiet quarter pools "
        f"{result['operations_pooled']} operations, tail = p{result['tail_percentile']} "
        f"({result['operations_beyond_tail']} beyond it)"
    )
    for metric in spec.END_TO_END:
        stat = result["end_to_end"][metric.name]
        if stat is None:
            print(f"  {metric.name:<18} {'n/a':>12} (no operation completed)")
            continue
        print(
            f"  {metric.name:<18} {stat['value']:>12.4f} {metric.unit:<5} "
            f"q1 {stat['q1']:.4f}  q3 {stat['q3']:.4f}  min {stat['min']:.4f}  "
            f"spread {stats.spread(stat) * 100:.1f}%  "
            f"(bound {metric.bound * 100:.0f}%)"
            + (f"  whole run {result['whole_run'][metric.name]['value']:.4f}"
               if metric.name in result["whole_run"] else "")
        )
    print(
        f"  {spec.FAILED_SHARE.name:<18} {result['failed_share']:>12.4f} ratio "
        f"({result['failed']} of {result['attempted']} operations)"
    )
    traced = result.get("traced")
    if traced:
        print(f"  per-layer (traced pass; labels {traced['labels']}, checks {traced['checks']}):")
        for metric in spec.PER_LAYER:
            if metric.name in traced["layers"]:
                print(f"    {metric.name:<38} {traced['layers'][metric.name]:>14.4f} {metric.unit}")
    for problem in result["problems"] + (traced["problems"] if traced else []):
        print(f"  PROBLEM: {problem}")


def cmd_run(args: argparse.Namespace) -> int:
    names = args.workload or [w.name for w in spec.WORKLOADS]
    repetitions, seconds = (1, 0.0) if args.smoke else (spec.SET_REPETITIONS, spec.SET_SECONDS)

    def progress(name: str, index: int, result: dict) -> None:
        print(f"  [{index + 1}/{repetitions}] {name}: {len(result['units'])} units", file=sys.stderr)

    result = harness.run_set(
        names, seed=args.seed, repetitions=repetitions, seconds=seconds, progress=progress
    )
    # A smoke pass is one unit per workload: it proves the plumbing,
    # its numbers mean nothing next to a full set's.
    result["comparable"] = not args.smoke
    if args.traced:
        out_dir = Path(args.out).resolve().parent if args.out else harness.ROOT / ".bench_out"
        budget = 0.0 if args.smoke else TRACED_SECONDS
        traced = harness.run_traced_pass(names, seed=args.seed, seconds=budget, out_dir=out_dir)
        for name, record in traced.items():
            result["workloads"][name]["traced"] = {
                key: record[key] for key in ("layers", "labels", "checks", "problems")
            }
        print(f"span files: {out_dir}/trace-<workload>.jsonl", file=sys.stderr)

    env = result["environment"]
    print(
        f"benchmarks.suite: seed {result['seed']}, {repetitions} repetitions x "
        f"{len(names)} workloads, git {env['git_sha']}, python {env['python']}, "
        f"{env['cpu_count']} cpus, load {env['load_1m_start']:.2f} -> {env['load_1m_end']:.2f}, "
        f"{env['wall_s']:.0f}s"
        + ("" if result["comparable"] else "  [SMOKE: not comparable]")
    )
    if env["noisy"]:
        print("WARNING: 1-minute load average exceeds the cpu count; this set is marked noisy")
    if env["harness_gap_s"]:
        print(f"harness gap between repetitions: median {env['harness_gap_s']['value'] * 1e3:.1f} ms")
    for name in names:
        _print_workload(name, result["workloads"][name])
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    failed = [
        name for name, workload in result["workloads"].items()
        if workload["failed"] or workload["problems"] or workload.get("traced", {}).get("problems")
    ]
    if failed:
        print(f"\nFAILED checks: {', '.join(failed)}")
        return 1
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    before = json.loads(Path(args.before).read_text(encoding="utf-8"))
    after = json.loads(Path(args.after).read_text(encoding="utf-8"))
    rows, failed = compare.compare(before, after)
    print(compare.render(rows))
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="measure every workload and check every output")
    run.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    run.add_argument("--out", help="write the full result (JSON) here; span files go beside it")
    run.add_argument("--traced", action="store_true", help="add the per-layer traced pass")
    run.add_argument("--smoke", action="store_true", help="one unit per workload, not comparable")
    run.add_argument("--workload", action="append", choices=sorted(spec.WORKLOAD_BY_NAME))
    run.set_defaults(handler=cmd_run)

    cmp_ = commands.add_parser("compare", help="judge result B against result A")
    cmp_.add_argument("before")
    cmp_.add_argument("after")
    cmp_.set_defaults(handler=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except harness.BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
