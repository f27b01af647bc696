"""The arena: sweep policy × workload × fault plan through the cluster.

The single-run harness (:func:`repro.cluster.run_cluster`) answers "what
happened on this one configuration"; the arena answers the comparative
question the paper's §6 poses — how do the safe locking families (2PL,
the tree protocol) and gateway-vetted optimal admission *behave* under
the same traffic and the same faults?  :func:`run_arena` executes every
cell of the cross-product sequentially, each on a fresh cluster with a
cell-specific deterministic seed, and collects one
:class:`~repro.arena.report.ArenaCell` per run.

Cells are seeded by ``crc32(seed / policy / workload / plan)``, so a
cell's memory-transport fingerprints are a pure function of the arena
seed and the cell's coordinates — stable across processes and across
re-orderings of the sweep, which is what lets ``tests/arena`` and the
CI smoke (E17's contracts) assert bit-identical reruns cell by cell.
"""

from __future__ import annotations

import time
import zlib
from collections.abc import Sequence
from dataclasses import replace

from ..cluster.gateway import Gateway
from ..cluster.runtime import ClusterConfig, run_sync
from ..faults.plan import FaultPlan
from ..workloads.traffic import VET_CYCLE_LIMIT, TrafficSpec, generate_workload
from .report import ArenaCell, ArenaReport

#: Fault-plan name meaning "run this cell fault-free".
NO_FAULTS = "none"


def cell_seed(seed: int, policy: str, workload: str, fault_plan: str) -> int:
    """The deterministic per-cell seed: a CRC-32 of the arena seed and
    the cell coordinates (*not* Python's salted ``hash``)."""
    label = f"{seed}/{policy}/{workload}/{fault_plan}"
    return zlib.crc32(label.encode("utf-8")) & 0x7FFFFFFF


def run_cell(
    spec: TrafficSpec,
    *,
    policy: str,
    fault_plan: FaultPlan | None = None,
    fault_plan_name: str = NO_FAULTS,
    seed: int = 0,
    config: ClusterConfig | None = None,
) -> ArenaCell:
    """Run one cell: generate *spec* under *policy*, drive it through a
    fresh cluster with *fault_plan* injected, condense the report.
    *config* carries the knobs every cell shares (default: all
    defaults); its seed, fault plan, gateway and traffic fields are
    the cell's and are overwritten."""
    derived = cell_seed(seed, policy, spec.name, fault_plan_name)
    workload = generate_workload(spec, policy=policy, seed=derived)
    config = replace(
        config or ClusterConfig(), seed=derived, fault_plan=fault_plan, **workload.cluster_kwargs()
    )
    gateway = Gateway(cycle_limit=VET_CYCLE_LIMIT) if config.vet else None
    report = run_sync(workload.system, replace(config, gateway=gateway))
    return ArenaCell.from_report(
        report,
        policy=policy,
        workload=spec.name,
        fault_plan=fault_plan_name,
        seed=derived,
    )


def run_arena(
    specs: Sequence[TrafficSpec],
    *,
    policies: Sequence[str],
    fault_plans: Sequence[tuple[str, FaultPlan | None]] = ((NO_FAULTS, None),),
    seed: int = 0,
    config: ClusterConfig | None = None,
) -> ArenaReport:
    """Sweep every (policy, spec, fault plan) cell, in deterministic
    iteration order: policies outermost, then workloads, then plans.

    Cells run sequentially — each boots its own cluster on its own
    event loop, so one cell's scheduling can never leak into another's
    memory-transport fingerprint.
    """
    started = time.perf_counter()
    config = config or ClusterConfig()
    report = ArenaReport(
        transport=config.transport,
        seed=seed,
        policies=list(policies),
        workloads=[spec.name for spec in specs],
        fault_plans=[name for name, _ in fault_plans],
    )
    for policy in policies:
        for spec in specs:
            for plan_name, plan in fault_plans:
                report.cells.append(
                    run_cell(
                        spec,
                        policy=policy,
                        fault_plan=plan,
                        fault_plan_name=plan_name,
                        seed=seed,
                        config=config,
                    )
                )
    report.wall_seconds = time.perf_counter() - started
    return report
