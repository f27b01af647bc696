"""Property-based tests of the paper's theorems.

Strategies draw generator parameters plus a seed and build workloads
through the deterministic generators of :mod:`repro.workloads`, so
every example is a valid model instance by construction and failures
shrink over the parameter space.
"""

import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    PairLockOrder,
    ScheduledStep,
    d_graph,
    decide_safety,
    decide_safety_exact,
    decide_safety_exhaustive,
    dominators_of,
    is_safe_two_site,
    shared_locked_entities,
)
from repro.core.safety import realizing_schedule
from repro.graphs import (
    CycleError,
    DiGraph,
    find_cycle,
    is_acyclic,
    is_strongly_connected,
    strongly_connected_components,
    topological_sort,
)
from repro.workloads import random_pair_system

pair_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10**9),
        "sites": st.integers(1, 4),
        "entities": st.integers(2, 4),
        "shared": st.integers(2, 4),
        "cross_arcs": st.integers(0, 3),
    }
)


def build_pair(params):
    rng = random.Random(params["seed"])
    return random_pair_system(
        rng,
        sites=params["sites"],
        entities=params["entities"],
        shared=min(params["shared"], params["entities"]),
        cross_arcs=params["cross_arcs"],
    )


@settings(max_examples=60, deadline=None)
@given(pair_params)
def test_exact_decider_agrees_with_definition(params):
    """decide_safety_exact ≡ exhaustive schedule search, any sites."""
    system = build_pair(params)
    first, second = system.pair()
    assert (
        decide_safety_exact(first, second).safe
        == decide_safety_exhaustive(system).safe
    )


@settings(max_examples=60, deadline=None)
@given(pair_params)
def test_theorem_1_sufficiency(params):
    """Strong connectivity of D ⇒ safety (at any number of sites)."""
    system = build_pair(params)
    first, second = system.pair()
    if is_strongly_connected(d_graph(first, second)):
        assert decide_safety_exhaustive(system).safe


@settings(max_examples=60, deadline=None)
@given(pair_params)
def test_theorem_2_characterization_at_two_sites(params):
    """At ≤ 2 sites: safe ⟺ D strongly connected."""
    params = dict(params, sites=min(params["sites"], 2))
    system = build_pair(params)
    first, second = system.pair()
    assert is_safe_two_site(first, second) == (
        decide_safety_exhaustive(system).safe
    )


@settings(max_examples=40, deadline=None)
@given(pair_params)
def test_unsafe_two_site_certificates_always_verify(params):
    """Theorem 2's constructive direction: every unsafe two-site system
    yields an independently verifiable certificate."""
    params = dict(params, sites=min(params["sites"], 2))
    system = build_pair(params)
    verdict = decide_safety(system)
    if not verdict.safe:
        assert verdict.certificate is not None
        assert verdict.certificate.verify()
        assert not verdict.certificate.schedule.is_serializable()


@settings(max_examples=40, deadline=None)
@given(pair_params)
def test_witness_schedules_are_legal_and_nonserializable(params):
    system = build_pair(params)
    first, second = system.pair()
    verdict = decide_safety_exact(first, second)
    if not verdict.safe:
        # Schedule construction re-validates legality; check the claim.
        assert not verdict.witness.is_serializable()


@settings(max_examples=40, deadline=None)
@given(pair_params)
def test_serial_schedules_always_serializable(params):
    system = build_pair(params)
    names = system.names
    for order in (names, list(reversed(names))):
        schedule = system.serial_schedule(order)
        assert schedule.is_serializable()
        assert schedule.is_serial()


@settings(max_examples=40, deadline=None)
@given(pair_params)
def test_safety_is_symmetric_in_transaction_order(params):
    """{T1, T2} safe ⟺ {T2, T1} safe (D reverses, connectivity stays)."""
    system = build_pair(params)
    first, second = system.pair()
    assert (
        decide_safety_exact(first, second).safe
        == decide_safety_exact(second, first).safe
    )


# ----------------------------------------------------------------------
# The closure-bitset kernels against the definitions they replace
# ----------------------------------------------------------------------

multi_site_pair_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10**9),
        "sites": st.integers(2, 4),
        "entities": st.integers(2, 6),
        "shared": st.integers(2, 6),
        "cross_arcs": st.integers(0, 3),
        "two_phase": st.booleans(),
    }
)


def build_multi_site_pair(params):
    return random_pair_system(
        random.Random(params["seed"]),
        sites=params["sites"],
        entities=params["entities"],
        shared=params["shared"],
        cross_arcs=params["cross_arcs"],
        two_phase=params["two_phase"],
    ).pair()


@settings(max_examples=80, deadline=None)
@given(multi_site_pair_params)
def test_d_graph_is_definition_1_arc_for_arc(params):
    """``d_graph`` on closure bitsets ≡ Definition 1 asked of
    ``Transaction.precedes``, node and arc order included."""
    first, second = build_multi_site_pair(params)
    entities = shared_locked_entities(first, second)
    expected = [
        (x, y)
        for x in entities
        for y in entities
        if x != y
        and first.precedes(first.lock_step(x), first.unlock_step(y))
        and second.precedes(second.lock_step(y), second.unlock_step(x))
    ]
    graph = d_graph(first, second)
    assert graph.nodes() == entities
    assert graph.arcs() == expected


def step_level_graph(first, second, bits) -> DiGraph:
    """``T1 ∪ T2 ∪ arcs(bits)`` over scheduled steps — the graph the
    bit-vector argument is stated on, built from public parts only."""
    graph = DiGraph()
    for tx in (first, second):
        for step in tx.steps:
            graph.add_node(ScheduledStep(tx.name, step))
        for before, after in tx.poset().arcs():
            graph.add_arc(
                ScheduledStep(tx.name, before), ScheduledStep(tx.name, after)
            )
    for entity, bit in bits.items():
        earlier, later = (first, second) if bit == 0 else (second, first)
        graph.add_arc(
            ScheduledStep(earlier.name, earlier.unlock_step(entity)),
            ScheduledStep(later.name, later.lock_step(entity)),
        )
    return graph


@settings(max_examples=60, deadline=None)
@given(multi_site_pair_params)
def test_entity_level_realizability_is_step_level_acyclicity(params):
    """For EVERY bit vector over the shared entities: the alternation
    test on ``V`` answers what ``is_acyclic`` answers on the steps, and
    a realizable vector's schedule is that graph's topological sort."""
    first, second = build_multi_site_pair(params)
    order = PairLockOrder(first, second)
    shared = order.entities
    for ones in range(1 << len(shared)):
        bits = {
            entity: (ones >> position) & 1
            for position, entity in enumerate(shared)
        }
        graph = step_level_graph(first, second, bits)
        zeros = order.mask(e for e, bit in bits.items() if bit == 0)
        acyclic = is_acyclic(graph)
        assert order.realizable(zeros) == acyclic
        if acyclic:
            schedule = realizing_schedule(first, second, bits)
            assert schedule.steps == topological_sort(graph)


# ----------------------------------------------------------------------
# The exact rung on D's rows against the graph references
# ----------------------------------------------------------------------

small_shared_pair_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10**9),
        "sites": st.integers(2, 4),
        "entities": st.integers(2, 6),
        "shared": st.integers(0, 6),  # k = 0 and 1 included
        "cross_arcs": st.integers(0, 3),
        "two_phase": st.booleans(),
    }
)


@settings(max_examples=120, deadline=None)
@given(small_shared_pair_params)
def test_row_dominators_are_the_graph_dominators_in_order(params):
    """``PairLockOrder.dominators(limit)`` ≡ ``dominators_of`` on the
    ``DiGraph`` D, as masks, enumeration order and every cut-off
    included."""
    order = PairLockOrder(*build_multi_site_pair(params))
    graph = order.d_graph()
    everything = [order.mask(d) for d in dominators_of(graph)]
    assert list(order.dominators()) == everything
    for limit in range(-1, len(everything) + 2):
        assert list(order.dominators(limit)) == [
            order.mask(d) for d in dominators_of(graph, limit=limit)
        ]


@settings(max_examples=120, deadline=None)
@given(small_shared_pair_params)
def test_row_strong_connectivity_is_the_graph_test(params):
    order = PairLockOrder(*build_multi_site_pair(params))
    assert order.strongly_connected() == is_strongly_connected(order.d_graph())
    assert order.components() == [
        order.mask(c) for c in strongly_connected_components(order.d_graph())
    ]


def reference_topological_sort(graph, key=None):
    """``topological_sort`` as it was before it delegated to
    ``topological_order``: a heap of ``(key, insertion position)``."""
    indegree = {node: graph.in_degree(node) for node in graph.nodes()}
    order_of = {node: position for position, node in enumerate(graph.nodes())}

    def sort_key(node):
        if key is None:
            return (order_of[node],)
        return (key(node), order_of[node])

    heap = []
    tiebreak = 0
    for node, degree in indegree.items():
        if degree == 0:
            heapq.heappush(heap, (sort_key(node), tiebreak, node))
            tiebreak += 1
    result = []
    while heap:
        _, _, node = heapq.heappop(heap)
        result.append(node)
        for nxt in graph.successors(node):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                heapq.heappush(heap, (sort_key(nxt), tiebreak, nxt))
                tiebreak += 1
    if len(result) != graph.node_count():
        raise CycleError(
            "graph contains a directed cycle; no topological order exists",
            find_cycle(graph),
        )
    return result


@st.composite
def labelled_digraphs(draw):
    """Digraphs whose insertion order is not label order, acyclic or
    not (self-loops included)."""
    count = draw(st.integers(0, 9))
    labels = draw(st.permutations([f"n{index}" for index in range(count)]))
    if not labels:
        return DiGraph()
    node = st.sampled_from(labels)
    arcs = draw(st.lists(st.tuples(node, node), max_size=20))
    if draw(st.booleans()):  # acyclic: keep the arcs that follow insertion order
        arcs = [(a, b) for a, b in arcs if labels.index(a) < labels.index(b)]
    return DiGraph(labels, arcs)


@settings(max_examples=200, deadline=None)
@given(labelled_digraphs(), st.integers(1, 4), st.booleans())
def test_topological_sort_is_the_reference_sort(graph, ties, keyed):
    """Same order with and without a key (ties broken by insertion
    position); on a cyclic graph the same ``CycleError`` message and
    ``.cycle``."""
    key = (lambda node: int(node[1:]) % ties) if keyed else None
    try:
        expected = reference_topological_sort(graph, key)
    except CycleError as exc:
        with pytest.raises(CycleError) as raised:
            topological_sort(graph, key)
        assert str(raised.value) == str(exc)
        assert raised.value.cycle == exc.cycle
    else:
        assert topological_sort(graph, key) == expected
