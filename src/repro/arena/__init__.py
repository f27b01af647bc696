"""Policy × workload × fault-plan sweeps over the cluster runtime.

The arena is the repo's comparative harness (experiment E17): it takes
traffic specs (:mod:`repro.workloads.traffic`), a set of locking
policies and a set of fault plans, runs every cell of the cross-product
through :func:`repro.cluster.run_cluster` on a fresh deterministic
cluster, and reports throughput, p50/p99 latency and abort/retry rates
per cell — with every committed history still passing the
serializability audit, faults or not.  ``repro arena`` is the CLI
front end; ``tests/arena`` pins the contracts and the benchmark suite's
``admit-2pl-zipf`` workload measures the ``2pl × zipfian-hot`` cell.
"""

from .report import ArenaCell, ArenaReport
from .runner import NO_FAULTS, VET_CYCLE_LIMIT, cell_seed, run_arena, run_cell

__all__ = [
    "ArenaCell",
    "ArenaReport",
    "NO_FAULTS",
    "VET_CYCLE_LIMIT",
    "cell_seed",
    "run_arena",
    "run_cell",
]
