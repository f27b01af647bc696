"""The arena: deterministic policy × workload × fault-plan sweeps.

What the E17 acceptance hinges on: cell seeds are a pure function of
the arena seed and the cell coordinates; a memory-transport cell's
fingerprints are bit-identical when re-run standalone; every cell of a
fault-free and a faulted sweep passes the serializability audit; and
the report's JSON shape is what CI's ``arena-smoke`` job reads.
"""

import json
import pathlib

import pytest

from repro.arena import (
    NO_FAULTS,
    VET_CYCLE_LIMIT,
    ArenaCell,
    cell_seed,
    run_arena,
    run_cell,
)
from repro.cluster.gateway import Gateway
from repro.faults import FaultPlan
from repro.workloads import TrafficSpec, generate_workload

SPEC = TrafficSpec.from_dict(
    {
        "name": "arena-unit",
        "entities": 6,
        "sites": 2,
        "transactions": 4,
        "keys": {"distribution": "zipfian", "skew": 1.2},
        "mix": {"entities_per_txn": 2},
        "arrival": {"process": "closed", "concurrency": 3},
    }
)

OPEN_SPEC = TrafficSpec.from_dict(
    {
        "name": "arena-open",
        "entities": 6,
        "sites": 2,
        "transactions": 4,
        "keys": {"distribution": "uniform"},
        "mix": {"entities_per_txn": 2},
        "arrival": {"process": "open", "rate_per_1000_ticks": 100.0},
    }
)

HOTSPOT_PLAN = FaultPlan.from_dict(
    {
        "site_crashes": [
            {"site": 2, "at": 6, "recover_at": 14, "semantics": "freeze"}
        ],
        "grant_delays": [{"entity": "e0", "at": 2, "until": 8}],
    }
)


class TestCellSeed:
    def test_pure_function_of_coordinates(self):
        assert cell_seed(7, "2pl", "w", "none") == cell_seed(7, "2pl", "w", "none")
        assert cell_seed(7, "2pl", "w", "none") != cell_seed(8, "2pl", "w", "none")
        assert cell_seed(7, "2pl", "w", "none") != cell_seed(7, "tree", "w", "none")
        assert cell_seed(7, "2pl", "w", "none") != cell_seed(7, "2pl", "w", "hot")

    def test_fits_in_31_bits(self):
        assert 0 <= cell_seed(2**40, "p", "w", "f") < 2**31


class TestRunCell:
    @pytest.mark.parametrize("policy", ["2pl", "tree", "vetted-optimal"])
    def test_memory_cell_is_bit_deterministic(self, policy):
        first = run_cell(SPEC, policy=policy, seed=11)
        second = run_cell(SPEC, policy=policy, seed=11)
        assert first.history_fingerprint == second.history_fingerprint
        assert first.outcome_fingerprint == second.outcome_fingerprint
        assert first.committed == second.committed
        assert first.retries_total == second.retries_total

    def test_cell_passes_audit_and_counts(self):
        cell = run_cell(SPEC, policy="2pl", seed=1)
        assert cell.ok
        assert cell.transactions == SPEC.transactions
        assert cell.committed + cell.retry_exhausted + cell.errors == cell.transactions
        assert cell.seed == cell_seed(1, "2pl", SPEC.name, NO_FAULTS)
        assert cell.p50_ms is not None and cell.p50_ms > 0
        assert cell.throughput_txn_s > 0

    def test_faulted_cell_still_serializable(self):
        cell = run_cell(
            SPEC,
            policy="2pl",
            fault_plan=HOTSPOT_PLAN,
            fault_plan_name="hotspot",
            seed=1,
        )
        assert cell.ok
        assert cell.fault_plan == "hotspot"

    def test_open_loop_cell_runs(self):
        cell = run_cell(OPEN_SPEC, policy="tree", seed=2)
        assert cell.ok
        assert cell.committed == OPEN_SPEC.transactions

    def test_rates(self):
        cell = ArenaCell(
            policy="2pl",
            workload="w",
            fault_plan="none",
            seed=0,
            transport="memory",
            mode="vetted-safe",
            transactions=4,
            committed=3,
            retry_exhausted=1,
            errors=0,
            retries_total=2,
            throughput_txn_s=10.0,
            p50_ms=1.0,
            p99_ms=2.0,
            serializable=True,
            audit_complete=True,
            history_fingerprint="h",
            outcome_fingerprint="o",
            wall_seconds=0.1,
        )
        assert cell.abort_rate == pytest.approx(0.25)
        assert cell.retry_rate == pytest.approx(0.5)
        assert cell.ok

    def test_incomplete_audit_is_not_ok(self):
        cell = run_cell(SPEC, policy="2pl", seed=1)
        cell.audit_complete = False
        assert not cell.ok


class TestRunArena:
    def test_sweep_covers_cross_product(self):
        report = run_arena(
            [SPEC, OPEN_SPEC],
            policies=["2pl", "tree"],
            fault_plans=[(NO_FAULTS, None), ("hotspot", HOTSPOT_PLAN)],
            seed=7,
        )
        assert len(report.cells) == 2 * 2 * 2
        assert report.all_ok and not report.failures
        labels = {(c.policy, c.workload, c.fault_plan) for c in report.cells}
        assert ("tree", "arena-open", "hotspot") in labels

    def test_sweep_cells_match_standalone_runs(self):
        """A cell's fingerprints do not depend on what else the sweep
        ran — the property that makes per-cell baselines meaningful."""
        report = run_arena([SPEC], policies=["2pl", "tree"], seed=3)
        for cell in report.cells:
            alone = run_cell(SPEC, policy=cell.policy, seed=3)
            assert alone.history_fingerprint == cell.history_fingerprint
            assert alone.outcome_fingerprint == cell.outcome_fingerprint

    def test_to_dict_shape(self):
        report = run_arena([SPEC], policies=["2pl"], seed=0)
        payload = report.to_dict()
        assert payload["all_ok"] is True
        assert payload["policies"] == ["2pl"]
        assert payload["workloads"] == ["arena-unit"]
        assert payload["fault_plans"] == ["none"]
        (cell,) = payload["cells"]
        assert cell["policy"] == "2pl"
        assert set(cell) >= {
            "history_fingerprint",
            "outcome_fingerprint",
            "throughput_txn_s",
            "p50_ms",
            "p99_ms",
            "abort_rate",
            "retry_rate",
            "serializable",
            "audit_complete",
        }

    def test_render_mentions_every_cell(self):
        report = run_arena([SPEC], policies=["2pl"], seed=0)
        text = report.render()
        assert "arena: 1 policies × 1 workloads × 1 fault plans" in text
        assert "arena-unit" in text
        assert "1 cells in" in text


class TestBudgetedVettingIsPinned:
    """The ``2pl × zipfian-hot`` cell at twelve transactions — the
    system the benchmark's ``admit-2pl-zipf`` workload vets — decision
    by decision.  Which cycles the budget sees is decided by the order
    they are enumerated in, so a change to the enumeration (a different
    root, a syntactic shortcut) moves these numbers and, with them, the
    mode and fingerprints the benchmark pins: this test makes that a
    visible, deliberate diff."""

    def test_decision_vector(self):
        path = pathlib.Path(__file__).parents[2] / "examples/workloads/zipfian-hot.json"
        spec = TrafficSpec.from_dict({**json.loads(path.read_text()), "transactions": 12})
        system = generate_workload(
            spec, policy="2pl", seed=cell_seed(0, "2pl", spec.name, NO_FAULTS)
        ).system
        gateway = Gateway(cycle_limit=VET_CYCLE_LIMIT)
        decision = gateway.vet(system)
        service = gateway.stats_dict()["service"]
        assert decision.mode == "runtime-guarded"
        assert [d.admitted for d in decision.decisions] == [True] * 9 + [False] * 3
        assert [d.verdict.method for d in decision.decisions] == (
            ["admission"] * 9 + ["budget-exceeded"] * 3
        )
        # A budget rejection reports the cycles it did examine.
        checked = [d.cycles_checked for d in decision.decisions]
        assert checked == [0, 0, 0, 0, 2, 12, 60, 96, 614, 1995, 1995, 1996]
        assert service["cycles_checked"] == sum(checked) == 6770
        for name in ("pairs_trivial", "pairs_from_cache", "pairs_vetted"):
            assert service[name] == sum(
                getattr(d, name) for d in decision.decisions
            )
