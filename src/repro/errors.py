"""Typed exceptions for the whole package.

The paper's model (§2) imposes structural constraints on databases,
transactions and schedules; each violated constraint raises a dedicated
exception so callers (and the failure-injection tests) can tell exactly
which rule broke.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ModelError(ReproError, ValueError):
    """A structural violation of the paper's model (§2)."""


class DatabaseError(ModelError):
    """Invalid distributed database definition (entities/sites/stored-at)."""


class TransactionError(ModelError):
    """Invalid transaction: bad partial order or step structure."""


class LockingError(TransactionError):
    """Violation of the paper's locking constraints: at most one Lx-Ux
    pair per entity, lock before unlock, at least one update between
    them, and no update outside its pair."""


class SiteOrderError(TransactionError):
    """Steps on entities stored at the same site are not totally ordered
    (the paper's distribution restriction, §2)."""


class ScheduleError(ModelError):
    """A step sequence that is not a legal schedule: it contradicts a
    transaction's partial order or violates lock exclusion."""


class CertificateError(ReproError):
    """An unsafeness certificate failed verification."""


class ReductionError(ReproError):
    """The Theorem 3 reduction was fed a formula outside the restricted
    CNF form it requires."""


class AdmissionError(ReproError):
    """A protocol-level mistake against the admission service
    (:mod:`repro.service`): duplicate transaction name, database
    mismatch, or eviction of an unknown transaction.  Distinct from a
    *rejection*, which is a normal decision outcome."""


class AdmissionTimeout(AdmissionError):
    """One admission exceeded its wall-clock budget
    (:class:`~repro.service.AdmissionRegistry` ``admission_timeout``).
    The registry is left unchanged; the caller may retry or shed the
    request."""


class VettingBudgetError(AdmissionError):
    """An admission's Proposition-2 cycle vetting hit its deterministic
    work bound (:class:`~repro.service.AdmissionRegistry`
    ``cycle_limit``) before reaching a verdict.  The registry is left
    unchanged; safety of the extension is *undecided*, never assumed.

    *counters* is the work the abandoned admission did get through
    (``pairs_trivial``, ``pairs_from_cache``, ``pairs_vetted``,
    ``cycles_checked``), for whoever reports the outcome."""

    def __init__(
        self, message: str, *, counters: dict[str, int] | None = None
    ) -> None:
        super().__init__(message)
        self.counters = dict(counters or {})


class TrafficSpecError(ReproError):
    """An invalid traffic-model spec (:mod:`repro.workloads.traffic`):
    unknown keys, an unknown key distribution or arrival process,
    malformed latency matrix, or out-of-range knobs."""


class FaultPlanError(ReproError):
    """An invalid fault-injection plan (:mod:`repro.faults`): unknown
    site or transaction, malformed times, or an unknown crash
    semantics / deadlock-resolution policy."""
