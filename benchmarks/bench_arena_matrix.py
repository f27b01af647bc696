"""E17 — the arena matrix: policy × workload × fault plan sweeps.

Series: the three committed traffic specs in ``examples/workloads/``
(uniform closed-loop baseline, Zipfian hot-key skew with a two-region
latency matrix, open-loop Poisson overload) driven through the cluster
runtime under each locking policy (2PL, tree protocol, vetted-optimal
admission), fault-free and with the committed hot-spot fault plan
(a recoverable site crash plus a grant delay pinned to the hot key).
Cell keys read ``policy:workload:faults``.

The claims under test are the arena's contracts:

* every cell — all policies, all workloads, faults or not — commits a
  conflict-serializable history and the audit saw every site; aborts
  and retries are reported as rates, never as correctness failures;
* memory-transport cells are bit-deterministic: a second identical
  sweep reproduces every cell's history and outcome fingerprints;
* a cell's fingerprints do not depend on the rest of the sweep — the
  per-cell CRC seed makes each cell a pure function of (seed, cell).

Throughput and latency land in ``results/BENCH_arena.json`` in the
standard envelope; ``tools/check_bench_regression.py --suite arena``
compares those numbers against ``benchmarks/baselines.json`` in CI.
``REPRO_BENCH_QUICK=1`` shrinks every spec for smoke runs.
"""

import os

from repro.arena import NO_FAULTS, run_arena
from repro.cluster import ClusterConfig
from repro.faults import FaultPlan
from repro.workloads import POLICIES, TrafficSpec

from _series import report, table, write_bench

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
#: Instances per spec: quick mode keeps CI cells under a second each;
#: full mode leans on the vetting budget and the retry machinery.
TRANSACTIONS = 6 if QUICK else 24
SEED = 17
MAX_RETRIES = 8

WORKLOADS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples",
    "workloads",
)
SPEC_FILES = ("uniform-baseline.json", "zipfian-hot.json", "overload-open-loop.json")
FAULT_PLAN_FILE = "faults-hotspot.json"


def load_specs() -> list[TrafficSpec]:
    return [
        TrafficSpec.load(os.path.join(WORKLOADS_DIR, name)).scaled(
            transactions=TRANSACTIONS
        )
        for name in SPEC_FILES
    ]


def load_fault_plans():
    plan = FaultPlan.load(os.path.join(WORKLOADS_DIR, FAULT_PLAN_FILE))
    return [(NO_FAULTS, None), ("faults-hotspot", plan)]


def sweep():
    return run_arena(
        load_specs(),
        policies=list(POLICIES),
        fault_plans=load_fault_plans(),
        seed=SEED,
        config=ClusterConfig(max_retries=MAX_RETRIES),
    )


def test_arena_matrix(benchmark):
    first = sweep()
    second = sweep()

    cells = {cell.label: cell for cell in first.cells}
    assert len(first.cells) == len(POLICIES) * len(SPEC_FILES) * 2

    # Correctness: every cell passes the serializability audit on a
    # complete history.  (Aborted instances are a performance outcome.)
    for cell in first.cells:
        assert cell.serializable, f"{cell.label}: history not serializable"
        assert cell.audit_complete, f"{cell.label}: audit incomplete"
        assert cell.committed + cell.retry_exhausted + cell.errors == (
            cell.transactions
        ), f"{cell.label}: outcomes do not add up"

    # Determinism: the second sweep replays every cell bit for bit.
    for before, after in zip(first.cells, second.cells):
        assert before.label == after.label
        assert before.history_fingerprint == after.history_fingerprint, before.label
        assert before.outcome_fingerprint == after.outcome_fingerprint, before.label
        assert before.committed == after.committed, before.label
        assert before.retries_total == after.retries_total, before.label

    benchmark(
        lambda: run_arena(
            [load_specs()[0].scaled(transactions=2)],
            policies=["2pl"],
            seed=SEED,
        )
    )

    samples = {
        f"{cell.policy}:{cell.workload}:{cell.fault_plan}": {
            "transactions": cell.transactions,
            "committed": cell.committed,
            "retry_exhausted": cell.retry_exhausted,
            "errors": cell.errors,
            "retries_total": cell.retries_total,
            "abort_rate": round(cell.abort_rate, 4),
            "retry_rate": round(cell.retry_rate, 4),
            "seconds": round(cell.wall_seconds, 4),
            "txn_per_s": round(cell.throughput_txn_s, 1),
            "p50_ms": round(cell.p50_ms, 3) if cell.p50_ms is not None else None,
            "p99_ms": round(cell.p99_ms, 3) if cell.p99_ms is not None else None,
            "serializable": cell.serializable,
            "audit_complete": cell.audit_complete,
            "history_fingerprint": cell.history_fingerprint,
            "outcome_fingerprint": cell.outcome_fingerprint,
        }
        for cell in first.cells
    }

    rows = [
        (
            label,
            row["committed"],
            f"{row['abort_rate']:.0%}",
            f"{row['txn_per_s']:.0f}",
            row["p99_ms"] if row["p99_ms"] is not None else "-",
        )
        for label, row in sorted(samples.items())
    ]
    report(
        "E17-arena-matrix",
        f"{len(POLICIES)} policies × {len(SPEC_FILES)} workloads × 2 fault "
        f"plans, {TRANSACTIONS} txns each",
        table(["cell", "committed", "abort", "txn/s", "p99ms"], rows)
        + [f"sweep wall time {first.wall_seconds:.2f}s, all audits clean"],
    )
    write_bench(
        "BENCH_arena",
        params={
            "transactions": TRANSACTIONS,
            "seed": SEED,
            "max_retries": MAX_RETRIES,
            "policies": list(POLICIES),
            "workloads": [os.path.splitext(name)[0] for name in SPEC_FILES],
            "fault_plans": [NO_FAULTS, "faults-hotspot"],
        },
        samples=samples,
    )
    assert cells  # sweep produced at least one cell
