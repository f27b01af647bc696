"""The paper's model and results: databases, transactions, schedules,
the geometric method, ``D(T1, T2)``, safety deciders, certificates,
many-transaction systems and the Theorem 3 reduction."""

from .certificates import (
    UnsafenessCertificate,
    certificate_from_dominator,
    certificate_via_corollary_2,
)
from .closure import (
    ClosureContradiction,
    ClosureResult,
    close_with_respect_to,
    closure_violations,
    is_closed,
)
from .dgraph import (
    PairLockOrder,
    d_graph,
    d_graph_of_total_orders,
    dominators_of,
    is_d_strongly_connected,
    is_dominator_of,
    shared_locked_entities,
    some_dominator_of,
)
from .entity import DistributedDatabase
from .fastcheck import is_d_strongly_connected_fast, is_safe_total_orders_fast
from .geometry import GeometricPicture, Rectangle
from .herbrand import (
    herbrand_state_of,
    is_final_state_serializable,
    serializability_tests_agree,
)
from .multi import (
    BGraphKernel,
    b_graph_of_cycle,
    b_graph_of_triple,
    decide_safety_multi,
    interaction_graph,
)
from .schedule import (
    Schedule,
    ScheduledStep,
    TransactionSystem,
    all_legal_schedules,
    conflict_graph,
    find_nonserializable_schedule,
)
from .safety import (
    SafetyVerdict,
    decide_safety,
    decide_safety_exact,
    decide_safety_exhaustive,
    is_safe_sufficient,
    is_safe_two_site,
    sites_of_pair,
)
from .step import Step, StepKind, lock, unlock, update
from .transaction import StepPlan, Transaction, TransactionBuilder

__all__ = [
    "BGraphKernel",
    "ClosureContradiction",
    "ClosureResult",
    "DistributedDatabase",
    "GeometricPicture",
    "PairLockOrder",
    "Rectangle",
    "SafetyVerdict",
    "Schedule",
    "ScheduledStep",
    "Step",
    "StepKind",
    "StepPlan",
    "Transaction",
    "TransactionBuilder",
    "TransactionSystem",
    "UnsafenessCertificate",
    "all_legal_schedules",
    "b_graph_of_cycle",
    "b_graph_of_triple",
    "certificate_from_dominator",
    "certificate_via_corollary_2",
    "close_with_respect_to",
    "closure_violations",
    "conflict_graph",
    "d_graph",
    "d_graph_of_total_orders",
    "decide_safety",
    "decide_safety_exact",
    "decide_safety_exhaustive",
    "decide_safety_multi",
    "dominators_of",
    "find_nonserializable_schedule",
    "herbrand_state_of",
    "interaction_graph",
    "is_closed",
    "is_d_strongly_connected_fast",
    "is_d_strongly_connected",
    "is_dominator_of",
    "is_final_state_serializable",
    "is_safe_sufficient",
    "is_safe_total_orders_fast",
    "is_safe_two_site",
    "lock",
    "serializability_tests_agree",
    "shared_locked_entities",
    "sites_of_pair",
    "some_dominator_of",
    "unlock",
    "update",
]
