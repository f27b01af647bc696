"""Property-based tests for the many-transaction theory (§6)."""

import random

from hypothesis import given, settings, strategies as st

from repro.core import (
    BGraphKernel,
    TransactionSystem,
    b_graph_of_cycle,
    b_graph_of_triple,
    decide_safety,
    decide_safety_exhaustive,
    decide_safety_multi,
    interaction_graph,
)
from repro.core.multi import directed_cycles_of_interaction_graph
from repro.graphs import has_cycle
from repro.workloads import random_system

multi_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10**9),
        "transactions": st.integers(3, 4),
        "sites": st.integers(1, 2),
        "entities": st.integers(2, 4),
        "per_tx": st.integers(2, 3),
    }
)


def build(params) -> TransactionSystem:
    rng = random.Random(params["seed"])
    return random_system(
        rng,
        transactions=params["transactions"],
        sites=params["sites"],
        entities=params["entities"],
        entities_per_transaction=min(params["per_tx"], params["entities"]),
    )


@settings(max_examples=30, deadline=None)
@given(multi_params)
def test_proposition_2_matches_definition(params):
    system = build(params)
    assert (
        decide_safety_multi(system).safe
        == decide_safety_exhaustive(system, state_budget=4_000_000).safe
    )


@settings(max_examples=30, deadline=None)
@given(multi_params)
def test_subsystem_monotonicity(params):
    """Safety is monotone under removing transactions: an unsafe
    subsystem makes the whole system unsafe (any schedule of the
    subsystem extends to one of the system by appending the rest)."""
    system = build(params)
    if decide_safety(system, want_certificate=False).safe:
        transactions = system.transactions
        for drop in range(len(transactions)):
            rest = [tx for i, tx in enumerate(transactions) if i != drop]
            sub = TransactionSystem(rest)
            assert decide_safety(sub, want_certificate=False).safe


@settings(max_examples=30, deadline=None)
@given(multi_params)
def test_interaction_graph_is_symmetric(params):
    system = build(params)
    graph = interaction_graph(system)
    for tail, head in graph.arcs():
        assert graph.has_arc(head, tail)


@settings(max_examples=20, deadline=None)
@given(multi_params)
def test_all_two_phase_systems_safe(params):
    rng = random.Random(params["seed"])
    system = random_system(
        rng,
        transactions=params["transactions"],
        sites=params["sites"],
        entities=params["entities"],
        entities_per_transaction=min(params["per_tx"], params["entities"]),
        two_phase=True,
    )
    assert decide_safety_multi(system).safe


# Denser than multi_params: five transactions over few entities give
# interaction cycles of length 3-5 that share most of their triples.
kernel_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10**9),
        "transactions": st.integers(3, 5),
        "sites": st.integers(1, 3),
        "entities": st.integers(3, 5),
        "per_tx": st.integers(2, 4),
    }
)


@settings(max_examples=40, deadline=None)
@given(kernel_params)
def test_b_graph_kernel_matches_reference_graphs(params):
    """The memoised kernel against the ``DiGraph`` reference: the same
    arcs for every triple, the same answer for every cycle — asked of
    one kernel, so later cycles are served from earlier cycles' memo."""
    system = build(params)
    kernel = BGraphKernel(system)
    for cycle in directed_cycles_of_interaction_graph(system, limit=200):
        assert kernel.cycle_is_cyclic(cycle) == has_cycle(
            b_graph_of_cycle(system, cycle)
        )
        for index in range(len(cycle)):
            left, middle, right = (
                cycle[(index + offset) % len(cycle)] for offset in range(3)
            )
            arcs = kernel.triple_arcs(left, middle, right)
            reference = b_graph_of_triple(
                system[left], system[middle], system[right]
            ).arcs()
            assert len(arcs) == len(reference)
            assert set(arcs) == set(reference)
