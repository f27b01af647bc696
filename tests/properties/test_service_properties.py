"""Property-based tests for the admission service.

For random two-site workloads, sequential admission through the
registry must agree with the offline :func:`repro.core.decide_safety`
at every step — and stay bit-identical when the verdicts come from a
warmed cache instead of fresh decisions.
Rejected admissions must carry replayable evidence.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core import TransactionSystem, decide_safety
from repro.service import AdmissionRegistry, VerdictCache
from repro.sim import ReplayDriver, run_once
from repro.workloads import random_system

workload_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10**9),
        "transactions": st.integers(3, 5),
        "entities": st.integers(2, 4),
        "per_tx": st.integers(2, 3),
        "cross_arcs": st.integers(0, 2),
    }
)


def build(params) -> TransactionSystem:
    rng = random.Random(params["seed"])
    return random_system(
        rng,
        transactions=params["transactions"],
        sites=2,
        entities=params["entities"],
        entities_per_transaction=min(params["per_tx"], params["entities"]),
        cross_arcs=params["cross_arcs"],
    )


def admit_fleet(system, **registry_kwargs):
    registry = AdmissionRegistry(**registry_kwargs)
    return registry.admit_system(system, want_certificate=True)


@settings(max_examples=25, deadline=None)
@given(workload_params)
def test_admission_matches_offline_decider_stepwise(params):
    system = build(params)
    registry = AdmissionRegistry()
    accepted = []
    for transaction in system.transactions:
        decision = registry.admit(transaction, want_certificate=False)
        offline = decide_safety(
            TransactionSystem(
                accepted + [transaction], database=system.database
            ),
            want_certificate=False,
        )
        assert decision.admitted == offline.safe
        if decision.admitted:
            accepted.append(transaction)
    assert registry.names == [t.name for t in accepted]


@settings(max_examples=15, deadline=None)
@given(workload_params)
def test_cached_path_agrees(params):
    system = build(params)
    cache = VerdictCache()
    cold = admit_fleet(system, cache=cache)
    warm = admit_fleet(system, cache=cache)

    cold_bits = [decision.admitted for decision in cold]
    assert [decision.admitted for decision in warm] == cold_bits
    # The warm pass decided everything from the cache.
    assert sum(decision.pairs_vetted for decision in warm) == 0


@settings(max_examples=15, deadline=None)
@given(workload_params)
def test_pair_rejections_carry_replayable_witnesses(params):
    system = build(params)
    for decision in admit_fleet(system):
        if decision.admitted or decision.failing_pair is None:
            continue
        verdict = decision.verdict
        assert not verdict.safe
        if verdict.witness is None:
            continue  # some methods certify unsafety without a schedule
        first, second = decision.failing_pair
        names = {t.name: t for t in system.transactions}
        pair_system = TransactionSystem(
            [names[first], names[second]], database=system.database
        )
        result = run_once(pair_system, ReplayDriver(verdict.witness))
        assert result.outcome == "non-serializable"
