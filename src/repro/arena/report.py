"""Arena result model: one cell per policy × workload × fault plan.

Each :class:`ArenaCell` condenses one :class:`~repro.cluster.runtime.
ClusterReport` into the numbers the sweep compares across cells —
throughput, p50/p99 transaction latency, abort/retry rates — plus the
two determinism fingerprints and the serializability audit verdict.
The scalar metrics are wall-clock and vary run to run; the
fingerprints and the audit are exact, and they are what the arena's
CI smoke and ``tests/arena`` (E17's contracts) assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.runtime import ClusterReport
from ..stats import percentile


@dataclass
class ArenaCell:
    """One (policy, workload, fault plan) cell's results."""

    policy: str
    workload: str
    fault_plan: str
    seed: int
    transport: str
    mode: str
    transactions: int
    committed: int
    retry_exhausted: int
    errors: int
    retries_total: int
    throughput_txn_s: float
    p50_ms: float | None
    p99_ms: float | None
    serializable: bool
    audit_complete: bool
    history_fingerprint: str
    outcome_fingerprint: str
    wall_seconds: float
    #: The cell's hottest entities — the top of the run's merged
    #: contention ranking (:attr:`ClusterReport.contention`), as
    #: ``"entity(N waits)"`` strings.
    hot_entities: list[str] = field(default_factory=list)

    @property
    def abort_rate(self) -> float:
        """Fraction of instances that never committed (exhausted their
        retries or errored out)."""
        if not self.transactions:
            return 0.0
        return (self.transactions - self.committed) / self.transactions

    @property
    def retry_rate(self) -> float:
        """Mean abort-and-retry events per submitted instance."""
        if not self.transactions:
            return 0.0
        return self.retries_total / self.transactions

    @property
    def ok(self) -> bool:
        """Did this cell pass the serializability audit on a complete
        history?  (Aborts are a performance outcome, not a failure.)"""
        return self.serializable and self.audit_complete

    @property
    def label(self) -> str:
        return f"{self.policy} × {self.workload} × {self.fault_plan}"

    @classmethod
    def from_report(
        cls,
        report: ClusterReport,
        *,
        policy: str,
        workload: str,
        fault_plan: str,
        seed: int,
    ) -> "ArenaCell":
        """Condense one cluster run into a cell."""
        latencies_ms = [
            outcome.seconds * 1000.0
            for outcome in report.outcomes
            if outcome.committed
        ]
        errors = sum(1 for o in report.outcomes if o.outcome == "error")
        throughput = (
            report.committed / report.wall_seconds
            if report.wall_seconds > 0
            else 0.0
        )
        return cls(
            policy=policy,
            workload=workload,
            fault_plan=fault_plan,
            seed=seed,
            transport=report.transport,
            mode=report.mode,
            transactions=report.transactions,
            committed=report.committed,
            retry_exhausted=report.retry_exhausted,
            errors=errors,
            retries_total=report.retries_total,
            throughput_txn_s=throughput,
            p50_ms=percentile(latencies_ms, 50),
            p99_ms=percentile(latencies_ms, 99),
            serializable=report.serializable,
            audit_complete=report.audit_complete,
            history_fingerprint=report.history_fingerprint,
            outcome_fingerprint=report.outcome_fingerprint,
            wall_seconds=report.wall_seconds,
            hot_entities=[
                f"{row['entity']}({row['waits']} waits)"
                for row in report.contention[:3]
                if row.get("waits")
            ],
        )

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "workload": self.workload,
            "fault_plan": self.fault_plan,
            "seed": self.seed,
            "transport": self.transport,
            "mode": self.mode,
            "transactions": self.transactions,
            "committed": self.committed,
            "retry_exhausted": self.retry_exhausted,
            "errors": self.errors,
            "retries_total": self.retries_total,
            "abort_rate": round(self.abort_rate, 4),
            "retry_rate": round(self.retry_rate, 4),
            "throughput_txn_s": round(self.throughput_txn_s, 2),
            "p50_ms": round(self.p50_ms, 3) if self.p50_ms is not None else None,
            "p99_ms": round(self.p99_ms, 3) if self.p99_ms is not None else None,
            "serializable": self.serializable,
            "audit_complete": self.audit_complete,
            "history_fingerprint": self.history_fingerprint,
            "outcome_fingerprint": self.outcome_fingerprint,
            "wall_seconds": round(self.wall_seconds, 4),
            "hot_entities": self.hot_entities,
        }


@dataclass
class ArenaReport:
    """The whole sweep: a list of cells plus the shared configuration."""

    transport: str
    seed: int
    policies: list[str]
    workloads: list[str]
    fault_plans: list[str]
    cells: list[ArenaCell] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def all_ok(self) -> bool:
        """Every cell serializable on a complete history."""
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> list[ArenaCell]:
        return [cell for cell in self.cells if not cell.ok]

    def to_dict(self) -> dict:
        return {
            "transport": self.transport,
            "seed": self.seed,
            "policies": self.policies,
            "workloads": self.workloads,
            "fault_plans": self.fault_plans,
            "cells": [cell.to_dict() for cell in self.cells],
            "all_ok": self.all_ok,
            "wall_seconds": round(self.wall_seconds, 4),
        }

    def render(self) -> str:
        """A fixed-width matrix table, one row per cell."""
        header = (
            f"arena: {len(self.policies)} policies × "
            f"{len(self.workloads)} workloads × "
            f"{len(self.fault_plans)} fault plans "
            f"({self.transport} transport, seed {self.seed})"
        )
        columns = (
            f"  {'policy':<16} {'workload':<20} {'faults':<14} "
            f"{'txn/s':>8} {'p50ms':>7} {'p99ms':>7} "
            f"{'abort':>6} {'retry':>6} {'audit':>6}  hot"
        )
        lines = [header, columns]
        for cell in self.cells:
            p50 = f"{cell.p50_ms:.1f}" if cell.p50_ms is not None else "-"
            p99 = f"{cell.p99_ms:.1f}" if cell.p99_ms is not None else "-"
            audit = "ok" if cell.ok else "FAIL"
            hot = cell.hot_entities[0] if cell.hot_entities else "-"
            lines.append(
                f"  {cell.policy:<16} {cell.workload:<20} "
                f"{cell.fault_plan:<14} {cell.throughput_txn_s:>8.1f} "
                f"{p50:>7} {p99:>7} {cell.abort_rate:>6.1%} "
                f"{cell.retry_rate:>6.2f} {audit:>6}  {hot}"
            )
        lines.append(
            f"  {len(self.cells)} cells in {self.wall_seconds:.2f}s"
            + ("" if self.all_ok else f", {len(self.failures)} FAILED the audit")
        )
        return "\n".join(lines)
