"""Spawn repetitions, pool them into a set, stamp the environment.

One *repetition* of a workload is a fresh subprocess (``rep.py``).  A
*set* is N repetitions per workload, interleaved round-robin across the
workloads so machine drift hits them all equally.  Load comes from this
one process: repetitions never overlap.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from . import spec, stats

ROOT = Path(__file__).resolve().parents[2]
#: Wall-clock cap on one repetition; the longest lasts a few seconds.
REPETITION_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """A repetition did not produce a result."""


def run_repetition(
    workload: str, *, seed: int, seconds: float, traced: bool = False, repetition: str = "0"
) -> tuple[dict, float, float]:
    """(result, spawned, exited): the repetition's JSON and this
    process's clock just before the spawn and just after the exit."""
    command = [
        sys.executable, "-m", "benchmarks.suite.rep",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", f"{seconds:.3f}",
        "--repetition", repetition,
        "--spawned-at", repr(time.time()),
    ]
    if traced:
        command.append("--traced")
    spawned = time.perf_counter()
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=REPETITION_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: repetition exceeded {REPETITION_TIMEOUT_S}s") from None
    exited = time.perf_counter()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload}: repetition exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1]), spawned, exited


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


TIMED = ("throughput_ops_s", "latency_p50_ms", "latency_tail_ms")


def timed_metrics(units: list[dict], tail: int, share: float) -> tuple[dict | None, int]:
    """Throughput and the two latency percentiles over the fastest
    *share* of *units* (more, until they pool the operations the tail
    percentile needs for ten to lie beyond it), and how many operations
    that pooled; no metrics when none of them completed."""
    ranked = sorted(units, key=lambda unit: unit["wall_s"])
    keep = math.ceil(len(ranked) * share)
    while keep < len(ranked) and (
        sum(len(unit["latencies_ms"]) for unit in ranked[:keep]) < stats.tail_pool(tail)
    ):
        keep += 1
    pooled = [latency for unit in ranked[:keep] for latency in unit["latencies_ms"]]
    if not pooled:
        return None, 0
    return {
        "throughput_ops_s": (
            sum(unit["completed"] for unit in ranked[:keep])
            / sum(unit["wall_s"] for unit in ranked[:keep])
        ),
        "latency_p50_ms": stats.percentile(pooled, 50),
        "latency_tail_ms": stats.percentile(pooled, tail),
    }, len(pooled)


def aggregate(workload: spec.WorkloadSpec, repetitions: list[dict]) -> dict:
    """Pool one workload's repetitions into its end-to-end metrics.

    Set-up time and peak RSS are per repetition; the headline is their
    median.  Throughput and the two latency percentiles are taken over
    the **quiet quarter**: the set's units ranked by wall time, the
    fastest ``spec.QUIET_SHARE`` of them kept, their operations pooled
    (``timed_metrics``).  The machine this was sized on slows by 10-40%
    for seconds at a time and never speeds up; over ten 18 s runs the
    same three numbers taken over every unit spread 6-14%, 5-27% and
    11-43% between their quartiles, over the quiet quarter 2-6%, 3-6%
    and 6-10%.  The every-unit numbers stay in the result
    (``whole_run``) and ``compare`` shows them, because a stall the
    program causes in one unit in five shows only there."""
    per_rep = [rep["units"] for rep in repetitions]
    units = [unit for rep_units in per_rep for unit in rep_units]

    def summaries(share: float) -> tuple[dict, int]:
        headline, pooled = timed_metrics(units, workload.tail, share)
        if headline is None:
            return dict.fromkeys(TIMED), 0
        each = [timed_metrics(rep_units, workload.tail, share)[0] for rep_units in per_rep]
        return {
            name: stats.summary([one[name] for one in each if one], headline[name])
            for name in TIMED
        }, pooled

    quiet, pooled = summaries(spec.QUIET_SHARE)
    whole, _ = summaries(1.0)
    end_to_end = {
        "setup_s": stats.summary([rep["setup_s"] for rep in repetitions]),
        **quiet,
        "peak_rss_mb": stats.summary([rep["peak_rss_mb"] for rep in repetitions]),
    }
    attempted = sum(unit["attempted"] for unit in units)
    completed = sum(unit["completed"] for unit in units)
    first = repetitions[0]
    problems = sorted({problem for rep in repetitions for problem in rep["problems"]})
    if workload.deterministic and any(
        rep["counters"] != first["counters"] or rep["oracle"] != first["oracle"]
        for rep in repetitions
    ):
        problems.append("same-seed repetitions disagree on the memory transport")
        completed = 0
    return {
        "end_to_end": end_to_end,
        "whole_run": whole,
        "attempted": attempted,
        "failed": attempted - completed,
        "failed_share": (attempted - completed) / attempted,
        "tail_percentile": workload.tail,
        "operations_pooled": pooled,
        "operations_beyond_tail": pooled - math.ceil(workload.tail / 100 * pooled),
        "units": len(units),
        "counters": first["counters"],
        "oracle": first["oracle"],
        "problems": problems,
    }


def run_set(
    workloads: list[str], *, seed: int, repetitions: int, seconds: float, progress=None
) -> dict:
    """One set: *repetitions* fresh processes per workload sharing
    *seconds* of timed budget, round-robin across *workloads*."""
    load_start = os.getloadavg()[0]
    started = time.perf_counter()
    collected: dict[str, list[dict]] = {name: [] for name in workloads}
    gaps: list[float] = []
    last_exit = None
    for index in range(repetitions):
        for name in workloads:
            result, spawned, exited = run_repetition(
                name, seed=seed, seconds=seconds / repetitions, repetition=str(index)
            )
            if last_exit is not None:
                gaps.append(spawned - last_exit)
            last_exit = exited
            collected[name].append(result)
            if progress:
                progress(name, index, result)
    load_end = os.getloadavg()[0]
    cpus = os.cpu_count() or 1
    return {
        "suite": 1,
        "seed": seed,
        "repetitions": repetitions,
        "seconds": seconds,
        "environment": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "cpu_count": cpus,
            "load_1m_start": load_start,
            "load_1m_end": load_end,
            # Another busy process per core: timings are not trustworthy.
            "noisy": max(load_start, load_end) > cpus,
            "wall_s": time.perf_counter() - started,
            # What the generator itself costs between one repetition's
            # exit and the next one's spawn; never part of ``setup_s``.
            "harness_gap_s": stats.summary(gaps) if gaps else None,
        },
        "workloads": {
            name: aggregate(spec.WORKLOAD_BY_NAME[name], reps) for name, reps in collected.items()
        },
    }


def run_traced_pass(workloads: list[str], *, seed: int, seconds: float, out_dir: Path) -> dict:
    """One traced repetition per workload; span files land in *out_dir*."""
    out_dir.mkdir(parents=True, exist_ok=True)
    traced = {}
    for name in workloads:
        result, _, _ = run_repetition(
            name, seed=seed, seconds=seconds, traced=True, repetition="traced"
        )
        with open(out_dir / f"trace-{name}.jsonl", "w", encoding="utf-8") as handle:
            for record in result.pop("spans"):
                handle.write(json.dumps(record) + "\n")
        traced[name] = result
    return traced
