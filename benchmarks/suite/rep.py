"""One repetition: a fresh process, from interpreter start to checked results.

Run by the harness as ``python -m benchmarks.suite.rep``; prints one JSON
object as the last line of standard output.  Set-up (imports, input
generation, an untimed warm-up) ends at the first timed operation; the
harness passes its own clock reading at spawn so ``setup_s`` includes
interpreter start-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from . import spec
from .spans import Spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: ``gateway.vet_s + *.execute_s`` may differ from the wall time of the
#: full-stack call by this share of it.
CONSERVATION = 0.15


def repeat(run, budget_s: float) -> list:
    """Call *run* until the next call would overrun *budget_s*
    (judged by the mean so far); always at least once."""
    results = []
    started = time.perf_counter()
    while True:
        results.append(run())
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(results) > budget_s:
            return results


def unit_record(unit, *, void: bool = False) -> dict:
    """What a unit contributes to the set: counts, wall time and the
    latency of each of its operations (pooled by the harness)."""
    return {
        "attempted": unit.attempted,
        "completed": 0 if void else unit.completed,
        "wall_s": unit.wall_s,
        "latencies_ms": unit.latencies_ms,
    }


def check_oracle(workload: str, seed: int, observed: dict) -> list[str]:
    """Mismatches against ``expected.json``, which pins the default
    seed: verdicts, fingerprints, gateway mode and admission counts.  A
    deliberate change of behaviour re-pins it in a benchmark-only PR."""
    if seed != spec.DEFAULT_SEED:
        return []
    expected = json.loads((HERE / "expected.json").read_text())[workload]
    return [
        f"expected.json: {key} pinned {pinned!r}, observed {observed.get(key)!r}"
        for key, pinned in expected.items()
        if observed.get(key) != pinned
    ]


def untraced(workload, args) -> dict:
    units = repeat(workload.run_unit, args.seconds)
    first = units[0]
    # Checks on the repetition as a whole: failing one fails every
    # operation in it (a unit's own checks already count in the unit).
    whole = check_oracle(args.workload, args.seed, first.oracle)
    if workload.spec.deterministic and any(
        unit.counters != first.counters or unit.oracle != first.oracle for unit in units
    ):
        whole.append("same-seed units disagree on the memory transport")
    return {
        "units": [unit_record(unit, void=bool(whole)) for unit in units],
        "counters": first.counters,
        "oracle": first.oracle,
        "problems": sorted({problem for unit in units for problem in unit.problems}) + whole,
    }


def conservation_problems(checks: dict) -> list[str]:
    """The pieces must add up to the call they replace, or no layer
    number of the repetition means what its name says."""
    return [
        f"{name}: pieces / reference call = {ratio:.3f}, outside 1 +- {CONSERVATION}"
        for name, ratio in checks.items()
        if abs(ratio - 1) > CONSERVATION
    ]


def traced(workload, args, spans: Spans) -> dict:
    """The untraced full-stack call and, straight after it, the public
    pieces that replace it under spans, turn by turn in this one process
    (a slow spell of the machine then falls on both), to check that the
    pieces add up to the call."""
    pieces, full = [], []

    def one_of_each() -> None:
        with spans.span("bench.full_stack"):
            full.append(workload.run_unit())
        pieces.append(workload.run_traced_unit(spans))

    repeat(one_of_each, args.seconds * 3 / 4)

    from . import probes

    layers = {
        name: statistics.median(piece["layers"][name] for piece in pieces)
        for name in pieces[0]["layers"]
    }
    pieces_s = statistics.median(piece["pieces_s"] for piece in pieces)
    rate = statistics.median(unit.completed / unit.wall_s for unit in full)
    extra_layers, reference_walls, problems = workload.extras(spans)
    layers.update(extra_layers)
    layers.update(probes.run_all(args.seed, spans))
    if "cluster.sim_gap" in workload.spec.layers:
        layers["cluster.sim_gap"] = layers["sim.txn_per_s"] / rate
    for name in ("workloads.generate", "core.reduce"):
        if f"{name}_s" in workload.spec.layers:
            layers[f"{name}_s"] = sum(s.seconds for s in spans.closed if s.name == name)
    if set(layers) != set(workload.spec.layers):
        raise RuntimeError(
            f"{args.workload}: per-layer metrics produced and declared differ: "
            f"{sorted(set(layers) ^ set(workload.spec.layers))}"
        )

    checks = {
        "conservation": statistics.median(
            piece["pieces_s"] / unit.wall_s for piece, unit in zip(pieces, full)
        )
    }
    checks.update({name: pieces_s / wall for name, wall in reference_walls.items()})
    problems = set(problems)
    problems.update(problem for unit in full for problem in unit.problems)
    problems.update(problem for piece in pieces for problem in piece["problems"])
    problems.update(conservation_problems(checks))
    vet_share = None
    if "gateway.vet_s" in layers:
        vet_share = statistics.median(
            piece["layers"]["gateway.vet_s"] / unit.wall_s for piece, unit in zip(pieces, full)
        )
    problems.update(workload.design_problems(layers, vet_share))
    return {
        "units": [unit_record(unit) for unit in full],
        "problems": sorted(problems),
        "layers": layers,
        "labels": pieces[0]["labels"],
        "checks": checks,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.suite.rep")
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed budget")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--repetition", default="0")
    args = parser.parse_args(argv)

    # One core for the whole repetition: on the two-vCPU box this was
    # sized on, the cores differ by 7% and a migration mid-run shows
    # up as a step in every timing.  The harness waits on the other.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    spans = Spans(f"{args.workload}#{args.repetition}", keep=args.traced)
    with spans.span("bench.repetition"):
        with spans.span("bench.setup"):
            from . import workloads

            workload = workloads.make(args.workload)
            workload.build(args.seed, spans)
            workload.warm()
        setup_s = time.time() - args.spawned_at
        with spans.span("bench.timed"):
            result = traced(workload, args, spans) if args.traced else untraced(workload, args)
    if args.traced:
        result["spans"] = spans.records()
    result.update(
        workload=args.workload,
        seed=args.seed,
        repetition=args.repetition,
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
