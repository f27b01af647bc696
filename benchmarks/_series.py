"""Shared reporting helper for the benchmark harness.

Each experiment prints the series the paper's claim concerns (and the
reproduction's measured shape) to stdout *and* persists it under
``benchmarks/results/`` so EXPERIMENTS.md can be regenerated from a run.
A ``REPRO_BENCH_QUICK`` run (CI's smoke mode) persists to the
git-ignored ``.bench_out/`` instead: quick-mode numbers must never
overwrite the committed full-mode series.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections.abc import Sequence

RESULTS_DIR = (
    pathlib.Path(__file__).parent.parent / ".bench_out"
    if os.environ.get("REPRO_BENCH_QUICK")
    else pathlib.Path(__file__).parent / "results"
)


def metrics_snapshot(stats=None, cache=None, *, decisions=False) -> dict:
    """An observability snapshot to embed into a result row: per-phase
    wall seconds (and error counts) from *stats* (a
    :class:`~repro.service.ServiceStats`), the hit ratio from *cache*
    (a :class:`~repro.service.VerdictCache`), and — with *decisions* —
    the process-wide ``repro_decisions_total`` counter series (which
    decision-ladder rungs fired, cumulative for this process)."""
    snapshot: dict = {}
    if stats is not None:
        snapshot["phase_seconds"] = {
            name: round(seconds, 6)
            for name, seconds in sorted(stats.phase_seconds.items())
        }
        if stats.phase_errors:
            snapshot["phase_errors"] = dict(sorted(stats.phase_errors.items()))
    if cache is not None:
        snapshot["cache_hit_rate"] = round(cache.hit_rate(), 4)
    if decisions:
        from repro.obs import metrics

        dump = metrics.REGISTRY.to_dict().get("repro_decisions_total", {})
        snapshot["decisions"] = dump.get("series", {})
    return snapshot


def write_bench(
    name: str, *, params: dict, samples: dict, metrics: dict | None = None
) -> pathlib.Path:
    """Persist a benchmark result in the standard envelope.

    Every ``BENCH_*.json`` file has the same four-part shape: ``name``,
    ``params`` (the knobs that produced the run — seeds, sweep sizes,
    budgets), ``samples`` (the measured series, keyed by sample name),
    an optional ``metrics`` snapshot (:func:`metrics_snapshot` or a
    registry excerpt), and the host ``cpu_count`` (so parallelism
    numbers can be read honestly on single-CPU CI hosts).

    Two experiments writing into the same file (E8's agreement and
    scaling runs both land in ``BENCH_multi.json``) merge: the
    ``params``/``samples``/``metrics`` mappings are combined key-wise,
    later calls winning on conflicts.
    """
    path = RESULTS_DIR / f"{name}.json"
    merged: dict = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text())
        except (OSError, ValueError):
            merged = {}
    envelope = {
        "name": name,
        "params": {**merged.get("params", {}), **params},
        "samples": {**merged.get("samples", {}), **samples},
        "cpu_count": os.cpu_count() or 1,
    }
    combined_metrics = {**merged.get("metrics", {}), **(metrics or {})}
    if combined_metrics:
        envelope["metrics"] = combined_metrics
    RESULTS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(envelope, indent=2, sort_keys=True) + "\n")
    return path


def report(experiment: str, title: str, lines: Sequence[str]) -> None:
    """Print a series block and persist it to results/<experiment>.txt."""
    block = [f"[{experiment}] {title}"] + [f"  {line}" for line in lines]
    text = "\n".join(block)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{experiment}.txt").write_text(text + "\n")


def table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> list[str]:
    """Fixed-width table lines."""
    widths = [
        max(len(str(header)), *(len(str(row[i])) for row in rows))
        if rows
        else len(str(header))
        for i, header in enumerate(headers)
    ]
    def fmt(cells):
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))

    return [fmt(headers)] + [fmt(row) for row in rows]


def fitted_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x): the growth exponent
    of a power-law-ish series."""
    import math

    pairs = [
        (math.log(x), math.log(y))
        for x, y in zip(xs, ys)
        if x > 0 and y > 0
    ]
    n = len(pairs)
    mean_x = sum(x for x, _ in pairs) / n
    mean_y = sum(y for _, y in pairs) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
    den = sum((x - mean_x) ** 2 for x, _ in pairs)
    return num / den
