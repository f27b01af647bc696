"""Self-tests of the benchmark (``pytest benchmarks/suite``; not tier-1)."""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from . import compare, harness, rep, spec, stats, workloads  # noqa: E402 - src first
from .workloads import ClusterWorkload  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _names(section: str) -> list[str]:
    return [entry["name"] for entry in CONTRACT[section]]


def test_contract_names_match_the_suite():
    assert _names("workloads") == [w.name for w in spec.WORKLOADS]
    assert _names("end_to_end") == [m.name for m in spec.END_TO_END]
    assert _names("per_layer") == [m.name for m in spec.PER_LAYER]
    every = _names("workloads") + _names("end_to_end") + _names("per_layer")
    assert all(NAME.fullmatch(name) for name in every)
    assert len(every) == len(set(every))
    for entry, metric in zip(CONTRACT["end_to_end"], spec.END_TO_END):
        assert (entry["unit"], entry["better"], entry["bound"]) == (
            metric.unit, metric.better, metric.bound
        )
    assert CONTRACT["paths"] == ["benchmarks/suite"]


def _driver(*args: str) -> dict:
    done = subprocess.run(
        [*CONTRACT["command"], *args], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_driver_line_carries_exactly_the_contract_metrics():
    result = _driver("--workload", "tree-uniform", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == _names("end_to_end")
    # The traced run checks conservation and the workload's design on
    # its own live numbers; ``correct`` carries the outcome.
    traced = _driver("--workload", "tree-uniform", "--seed", "3", "--seconds", "8", "--trace", "1")
    assert traced["correct"] and traced["failed"] == 0
    assert list(traced["metrics"]) == _names("per_layer")
    units = {entry["name"]: entry["unit"] for entry in CONTRACT["per_layer"]}
    assert all(value["unit"] == units[name] for name, value in traced["metrics"].items())
    span_names = {
        json.loads(line)["name"]
        for line in (ROOT / ".bench_out" / "trace-tree-uniform.jsonl").read_text().splitlines()
    }
    assert {"bench.repetition", "bench.setup", "bench.timed", "workloads.generate",
            "gateway.vet", "cluster.execute"} <= span_names


def test_tail_percentile_rule():
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(999) == 90
    sample = list(range(1, 1001))
    assert stats.percentile(sample, 99) == 990  # ten samples beyond it
    assert stats.percentile(sample, 50) == 500


def _unit(wall_s: float, latencies_ms: list[float], attempted: int | None = None) -> dict:
    return {
        "attempted": len(latencies_ms) if attempted is None else attempted,
        "completed": len(latencies_ms), "wall_s": wall_s, "latencies_ms": latencies_ms,
    }


def _repetition(units: list[dict]) -> dict:
    return {
        "units": units, "setup_s": 0.5, "peak_rss_mb": 30.0,
        "counters": {}, "oracle": {}, "problems": [],
    }


def test_timed_metrics_pool_the_operations_of_the_quiet_quarter():
    workload = spec.WORKLOAD_BY_NAME["transfer-mem"]  # tail = p90
    quiet = [float(v) for v in range(1, 101)]
    slowed = [v + 1000 for v in quiet]
    # Eight units of 100 operations in two repetitions, one quiet unit each.
    result = harness.aggregate(workload, [
        _repetition([_unit(2.0, slowed), _unit(1.0, quiet), _unit(2.0, slowed), _unit(2.0, slowed)]),
        _repetition([_unit(2.0, slowed), _unit(2.0, slowed), _unit(2.0, slowed), _unit(1.0, quiet)]),
    ])
    assert (result["units"], result["operations_pooled"]) == (8, 200)
    # The percentile is taken over that pool, and ten lie beyond it.
    assert result["operations_beyond_tail"] == 20 >= stats.TAIL_MIN_BEYOND
    assert result["end_to_end"]["latency_tail_ms"]["value"] == sorted(quiet * 2)[-21] == 90
    assert result["end_to_end"]["latency_p50_ms"]["value"] == 50
    assert result["end_to_end"]["throughput_ops_s"]["value"] == 100
    assert result["whole_run"]["latency_p50_ms"]["value"] == 1034  # rank 400 of 800
    assert result["whole_run"]["throughput_ops_s"]["value"] == pytest.approx(800 / 14)


def test_the_quiet_quarter_is_topped_up_to_the_pool_its_percentile_needs():
    workload = spec.WORKLOAD_BY_NAME["admit-2pl-zipf"]  # 12 operations a unit, tail = p90
    units = [_unit(1.0 + index / 100, [float(index)] * 12) for index in range(20)]
    result = harness.aggregate(workload, [_repetition(units)])
    assert result["operations_pooled"] == 108  # nine units, not five
    assert result["operations_beyond_tail"] >= stats.TAIL_MIN_BEYOND


def test_nothing_completed_is_failed_share_one_not_a_crash():
    result = harness.aggregate(
        spec.WORKLOAD_BY_NAME["transfer-mem"], [_repetition([_unit(1.0, [], attempted=2)])]
    )
    assert result["failed_share"] == 1 and result["end_to_end"]["latency_p50_ms"] is None


def test_traced_numbers_are_checked_where_they_are_measured():
    assert rep.conservation_problems({"conservation": 1.10, "arena_cell": 0.90}) == []
    assert len(rep.conservation_problems({"conservation": 0.5, "arena_cell": 1.0})) == 1
    admit = workloads.make("admit-2pl-zipf")
    assert admit.design_problems({}, vet_share=0.9) == []
    assert admit.design_problems({}, vet_share=0.5)
    layers = {"cluster.messages_per_commit": 40.0, "cluster.msgs_per_commit.probe": 18.0}
    transfer = workloads.make("transfer-mem")
    assert transfer.design_problems(layers, vet_share=0.001) == []
    assert transfer.design_problems({**layers, "cluster.msgs_per_commit.probe": 8.0}, 0.001)
    assert transfer.design_problems(layers, vet_share=0.2)


def test_a_counter_the_program_dropped_stops_the_benchmark():
    with pytest.raises(LookupError):
        workloads._series("repro_cluster_no_such_total")


def test_any_mismatch_with_the_pinned_oracle_is_a_problem():
    pinned = json.loads((HERE / "expected.json").read_text())["transfer-mem"]
    assert rep.check_oracle("transfer-mem", spec.DEFAULT_SEED, pinned) == []
    moved = {**pinned, "history": "0" * 16}
    assert len(rep.check_oracle("transfer-mem", spec.DEFAULT_SEED, moved)) == 1
    assert rep.check_oracle("transfer-mem", spec.DEFAULT_SEED + 1, moved) == []


def _report(site_orders: dict, *, serializable: bool = True) -> SimpleNamespace:
    outcome = SimpleNamespace(committed=True, outcome="committed", seconds=0.001)
    return SimpleNamespace(
        serializable=serializable, audit_complete=True, site_orders=site_orders,
        outcomes=[outcome, outcome], transactions=2, messages=16, retries_total=0, dropped=0,
        gateway=None, history_fingerprint="h" * 64, outcome_fingerprint="o" * 64,
    )


def test_a_doctored_history_fails_every_operation():
    # ``checked`` reads the message counter a finished run leaves behind.
    workloads.REGISTRY.counter("repro_cluster_messages_total", "as a run registers it")
    workload = ClusterWorkload(spec.WORKLOAD_BY_NAME["transfer-mem"], warm_rounds=1)
    honest = workload.checked(_report({"x": ["T1", "T2"], "y": ["T1", "T2"]}), wall=1.0)
    assert (honest.attempted, honest.completed, honest.problems) == (2, 2, [])
    # T1 before T2 on x, T2 before T1 on y: a cycle the report's own
    # flag denies — the re-audit must not take its word.
    doctored = workload.checked(_report({"x": ["T1", "T2"], "y": ["T2", "T1"]}), wall=1.0)
    assert (doctored.attempted, doctored.completed) == (2, 0)
    assert any("re-audit" in problem for problem in doctored.problems)


def _synthetic_result() -> dict:
    def stat(value: float) -> dict:
        return stats.summary([value * f for f in (0.99, 1.0, 1.0, 1.01, 1.0)])

    workload = {
        "end_to_end": {
            "setup_s": stat(0.5), "throughput_ops_s": stat(300.0), "latency_p50_ms": stat(12.0),
            "latency_tail_ms": stat(25.0), "peak_rss_mb": stat(30.0),
        },
        "whole_run": {"throughput_ops_s": stat(280.0)},
        "failed_share": 0.0,
        "counters": {"messages": 4217, "retries": 294},
    }
    return {"seed": spec.DEFAULT_SEED, "workloads": {"transfer-mem": workload}}


def test_compare_flags_a_throughput_drop_and_a_one_message_drift():
    before = _synthetic_result()
    rows, failed = compare.compare(before, copy.deepcopy(before))
    assert not failed and {row["verdict"] for row in rows} <= {"unchanged", "=="}

    after = copy.deepcopy(before)
    slow = after["workloads"]["transfer-mem"]
    # Five points past the bound (the issue's 15% drop, at its 10% bound).
    dropped = 300.0 * (1 - spec.END_TO_END[1].bound - 0.05)
    slow["end_to_end"]["throughput_ops_s"] = stats.summary([dropped * f for f in (0.99, 1.0, 1.01)])
    slow["counters"]["messages"] += 1
    rows, failed = compare.compare(before, after)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert failed
    assert verdicts["throughput_ops_s"] == "worse"
    assert verdicts["counters.messages"] == "drift"
    assert verdicts["counters.retries"] == "=="
    assert verdicts["latency_p50_ms"] == "unchanged"

    noisy = copy.deepcopy(before)
    noisy["workloads"]["transfer-mem"]["end_to_end"]["throughput_ops_s"] = stats.summary(
        [240.0, 270.0, 300.0, 330.0, 360.0]
    )
    rows, _ = compare.compare(before, noisy)
    assert {r["metric"]: r["verdict"] for r in rows}["throughput_ops_s"] == "unresolved"

    failing = copy.deepcopy(before)
    failing["workloads"]["transfer-mem"]["failed_share"] = 0.01
    assert compare.compare(before, failing)[1]

    # One unit in five stalls: the quiet quarter does not see it, the
    # whole-run row does.
    stalling = copy.deepcopy(before)
    stalling["workloads"]["transfer-mem"]["whole_run"]["throughput_ops_s"] = stats.summary(
        [200.0 * f for f in (0.99, 1.0, 1.01)]
    )
    rows, failed = compare.compare(before, stalling)
    assert {r["metric"]: r["verdict"] for r in rows}["throughput_ops_s (whole run)"] == "worse"
    assert not failed  # shown, not gated: this box moves it as much between two equal sets


def test_smoke_pass_is_quick_and_marked_not_comparable(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "run", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert time.perf_counter() - started < 30
    result = json.loads(out.read_text())
    assert result["comparable"] is False
    assert list(result["workloads"]) == _names("workloads")
    for name in _names("workloads") + _names("end_to_end") + ["failed_share"]:
        assert name in done.stdout
    assert all(w["failed_share"] == 0 for w in result["workloads"].values())


def test_the_recorded_baseline_passed_its_own_checks():
    """A record of the seed-commit set in ``baseline.json``; the checks
    themselves run on live numbers (``rep.traced``, ``harness.aggregate``)."""
    baseline = json.loads((HERE / "baseline.json").read_text())["workloads"]
    assert list(baseline) == _names("workloads")
    for name, workload in baseline.items():
        assert workload["failed_share"] == 0 and not workload["problems"], name
        assert not workload["traced"]["problems"], name
        assert set(workload["traced"]["layers"]) == set(spec.WORKLOAD_BY_NAME[name].layers)
        assert rep.conservation_problems(workload["traced"]["checks"]) == []
        # The percentile fixed in spec.py left ten beyond it in the pool
        # it was taken over (a driver run pools less: README, tail rule).
        assert workload["operations_beyond_tail"] >= stats.TAIL_MIN_BEYOND, name
