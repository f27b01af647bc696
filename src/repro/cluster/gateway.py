"""The cluster's admission gateway.

Before a workload touches the live cluster, the gateway pushes it
through the same static safety vetting ``repro serve`` runs
(:class:`~repro.service.registry.AdmissionRegistry`: fingerprint cache
+ incremental Proposition-2 / Theorem-1 pair vetting).  The outcome
decides the runtime *mode*:

* every transaction admitted → ``"vetted-safe"``: the paper guarantees
  every interleaving serializes, so runtime deadlock handling is a
  no-op safety net;
* any rejection → ``"runtime-guarded"``: the system runs anyway, but
  correctness now rests on the cluster's probe-based deadlock
  resolution, abort/retry and the final serializability audit of the
  committed site orders.

Round clones of the same transactions share fingerprints, so the
gateway vets the *base* system once — admission is per program shape,
not per instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.safety import SafetyVerdict
from ..core.schedule import TransactionSystem
from ..errors import VettingBudgetError
from ..service.registry import AdmissionDecision, AdmissionRegistry


@dataclass
class GatewayDecision:
    """The gateway's verdict on one workload."""

    mode: str  # "vetted-safe" | "runtime-guarded" | "unvetted"
    admitted: list[str] = field(default_factory=list)
    rejected: list[str] = field(default_factory=list)
    decisions: list[AdmissionDecision] = field(default_factory=list)

    @property
    def safe(self) -> bool:
        return self.mode == "vetted-safe"

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "decisions": [d.to_dict() for d in self.decisions],
        }


class Gateway:
    """Static admission in front of the cluster runtime."""

    def __init__(self, *, cycle_limit: int | None = None) -> None:
        self.registry = AdmissionRegistry(cycle_limit=cycle_limit)

    def vet(self, system: TransactionSystem) -> GatewayDecision:
        """Vet *system*'s transactions; the mode is ``"vetted-safe"``
        only when every one is admitted.

        With a ``cycle_limit``, an admission whose cycle vetting
        exhausts the budget is treated as a *rejection* ("could not be
        certified statically"), not an error: the transaction still
        runs, in ``runtime-guarded`` mode, where deadlock resolution
        and the final serializability audit carry the guarantee.
        """
        decisions: list[AdmissionDecision] = []
        for transaction in system.transactions:
            try:
                decisions.append(
                    self.registry.admit(transaction, want_certificate=False)
                )
            except VettingBudgetError as exc:
                decisions.append(
                    AdmissionDecision(
                        admitted=False,
                        name=transaction.name,
                        verdict=SafetyVerdict(
                            safe=False,
                            method="budget-exceeded",
                            detail=str(exc),
                        ),
                        # What the abandoned admission did examine.
                        **exc.counters,
                    )
                )
        admitted = [d.name for d in decisions if d.admitted]
        rejected = [d.name for d in decisions if not d.admitted]
        mode = "vetted-safe" if not rejected else "runtime-guarded"
        return GatewayDecision(
            mode=mode,
            admitted=admitted,
            rejected=rejected,
            decisions=decisions,
        )

    def stats_dict(self) -> dict:
        return self.registry.stats_dict()

    def close(self) -> None:
        # Nothing to release; benchmarks/suite/workloads.py still calls it.
        pass
