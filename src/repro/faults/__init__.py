"""Deterministic fault injection and recovery for the simulator.

The paper's engine "never reorders or aborts on its own"; this package
is where the reproduction grows past that boundary toward the
distributed-systems reality the paper's closing remark defers: sites
crash (and their lock tables freeze or evaporate), lock grants lag,
transactions die mid-flight, and detected deadlocks are *resolved* —
a victim rolls back and retries under exponential backoff — instead of
terminating the run.  Everything is seeded and replays byte-for-byte.

* :mod:`repro.faults.plan` — the declarative :class:`FaultPlan`
  (JSON-round-trippable) and :func:`random_plan`;
* :mod:`repro.faults.injector` — per-run plan state the engine
  consults;
* :mod:`repro.faults.policies` — deadlock-resolution victim selection
  and the abort backoff;
* :mod:`repro.faults.chaos` — seed sweeps with aggregate
  completion/abort/retry statistics.
"""

from .chaos import ChaosReport, chaos_sweep, percentile
from .injector import FaultInjector
from .plan import (
    CRASH_SEMANTICS,
    FaultPlan,
    GrantDelay,
    MessageDrop,
    SiteCrash,
    TransactionCrash,
    random_plan,
)
from .policies import POLICIES, choose_victim, validate_policy

__all__ = [
    "CRASH_SEMANTICS",
    "ChaosReport",
    "FaultInjector",
    "FaultPlan",
    "GrantDelay",
    "MessageDrop",
    "POLICIES",
    "SiteCrash",
    "TransactionCrash",
    "chaos_sweep",
    "choose_victim",
    "percentile",
    "random_plan",
    "validate_policy",
]
