"""Many-transaction systems — §6, Proposition 2."""

import random

import pytest

from repro.core import (
    DistributedDatabase,
    TransactionBuilder,
    TransactionSystem,
    b_graph_of_cycle,
    b_graph_of_triple,
    decide_safety,
    decide_safety_exhaustive,
    decide_safety_multi,
    interaction_graph,
)
from repro.workloads import random_system


def chain_transaction(name, db, entities, two_phase=False):
    """Totally ordered transaction accessing *entities* in sequence."""
    builder = TransactionBuilder(name, db)
    if two_phase:
        locks = [builder.lock(entity) for entity in entities]
        for entity in entities:
            builder.update(entity)
        unlocks = [builder.unlock(entity) for entity in entities]
        steps = locks + unlocks
    else:
        steps = []
        for entity in entities:
            steps.extend(builder.access(entity))
    previous = None
    for step in steps:
        if previous is not None:
            builder.precede(previous, step)
        previous = step
    return builder.build()


@pytest.fixture
def db():
    return DistributedDatabase.single_site(["a", "b", "c"])


class TestInteractionGraph:
    def test_edge_iff_common_entity(self, db):
        t1 = chain_transaction("T1", db, ["a", "b"])
        t2 = chain_transaction("T2", db, ["b", "c"])
        t3 = chain_transaction("T3", db, ["c"])
        graph = interaction_graph(TransactionSystem([t1, t2, t3]))
        assert graph.has_arc("T1", "T2") and graph.has_arc("T2", "T1")
        assert graph.has_arc("T2", "T3")
        assert not graph.has_arc("T1", "T3")


class TestBGraphs:
    def test_b_graph_nodes_are_shared_entities(self, db):
        t1 = chain_transaction("T1", db, ["a", "b"])
        t2 = chain_transaction("T2", db, ["a", "b", "c"])
        t3 = chain_transaction("T3", db, ["c"])
        graph = b_graph_of_triple(t1, t2, t3)
        pair12 = frozenset({"T1", "T2"})
        pair23 = frozenset({"T2", "T3"})
        assert set(graph.nodes()) == {
            ("a", pair12), ("b", pair12), ("c", pair23)
        }

    def test_arc_lx_before_uy_in_middle(self, db):
        # In T2 = a then b then c: La precedes Uc, so (a_12, c_23).
        t1 = chain_transaction("T1", db, ["a"])
        t2 = chain_transaction("T2", db, ["a", "c"])
        t3 = chain_transaction("T3", db, ["c"])
        graph = b_graph_of_triple(t1, t2, t3)
        assert graph.has_arc(
            ("a", frozenset({"T1", "T2"})), ("c", frozenset({"T2", "T3"}))
        )

    def test_lock_order_arcs_within_pair(self, db):
        t1 = chain_transaction("T1", db, ["a", "b"])
        t2 = chain_transaction("T2", db, ["a", "b"])
        t3 = chain_transaction("T3", db, ["a"])
        graph = b_graph_of_triple(t1, t2, t3)
        pair12 = frozenset({"T1", "T2"})
        # In T2, La precedes Lb: arc (a_12, b_12).
        assert graph.has_arc(("a", pair12), ("b", pair12))

    def test_b_graph_of_cycle_unions_triples(self, db):
        t1 = chain_transaction("T1", db, ["a", "b"], two_phase=True)
        t2 = chain_transaction("T2", db, ["b", "c"], two_phase=True)
        t3 = chain_transaction("T3", db, ["c", "a"], two_phase=True)
        system = TransactionSystem([t1, t2, t3])
        union = b_graph_of_cycle(system, ["T1", "T2", "T3"])
        assert union.node_count() == 3  # b_12, c_23, a_31


class TestProposition2:
    def test_unsafe_pair_caught_by_condition_a(self, db):
        t1 = chain_transaction("T1", db, ["a", "b"])
        t2 = chain_transaction("T2", db, ["b", "a"])
        t3 = chain_transaction("T3", db, ["c"])
        verdict = decide_safety_multi(TransactionSystem([t1, t2, t3]))
        assert not verdict.safe
        assert "subsystem" in verdict.detail

    def test_two_phase_triangle_is_safe(self, db):
        t1 = chain_transaction("T1", db, ["a", "b"], two_phase=True)
        t2 = chain_transaction("T2", db, ["b", "c"], two_phase=True)
        t3 = chain_transaction("T3", db, ["c", "a"], two_phase=True)
        system = TransactionSystem([t1, t2, t3])
        verdict = decide_safety_multi(system)
        assert verdict.safe
        assert decide_safety_exhaustive(system).safe

    def test_no_cycle_limit_to_answer_safe_from(self, db):
        """A truncated enumeration cannot prove condition (b), so there
        is no keyword to truncate it with."""
        t1 = chain_transaction("T1", db, ["a", "b"], two_phase=True)
        t2 = chain_transaction("T2", db, ["b", "c"], two_phase=True)
        t3 = chain_transaction("T3", db, ["c", "a"], two_phase=True)
        with pytest.raises(TypeError):
            decide_safety_multi(TransactionSystem([t1, t2, t3]), cycle_limit=1)

    def test_pairwise_safe_globally_unsafe_triangle(self, db):
        """The classical phenomenon Proposition 2's condition (b) exists
        for: every pair safe, the three-cycle not."""
        # Each Ti accesses its two entities in one lock-couple region so
        # that each pair shares exactly ONE entity (pairs trivially
        # safe), but the triangle can mis-serialize.
        t1 = chain_transaction("T1", db, ["a", "b"])
        t2 = chain_transaction("T2", db, ["b", "c"])
        t3 = chain_transaction("T3", db, ["c", "a"])
        system = TransactionSystem([t1, t2, t3])
        for pair_names in (("T1", "T2"), ("T2", "T3"), ("T1", "T3")):
            sub = TransactionSystem([system[n] for n in pair_names])
            assert decide_safety(sub).safe  # one shared entity each
        exhaustive = decide_safety_exhaustive(system)
        verdict = decide_safety_multi(system)
        assert not exhaustive.safe
        assert not verdict.safe
        assert "cycle" in verdict.detail

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_exhaustive_on_random_systems(self, seed):
        rng = random.Random(seed)
        system = random_system(
            rng,
            transactions=3,
            sites=rng.choice([1, 2]),
            entities=rng.randint(2, 4),
            entities_per_transaction=2,
            cross_arcs=0,
        )
        verdict = decide_safety_multi(system)
        exhaustive = decide_safety_exhaustive(system, state_budget=4_000_000)
        assert verdict.safe == exhaustive.safe, (
            f"Prop2={verdict.safe} ({verdict.detail}) vs "
            f"exhaustive={exhaustive.safe}"
        )

    def test_front_end_routes_multi(self, db):
        t1 = chain_transaction("T1", db, ["a", "b"], two_phase=True)
        t2 = chain_transaction("T2", db, ["b", "c"], two_phase=True)
        t3 = chain_transaction("T3", db, ["c", "a"], two_phase=True)
        verdict = decide_safety(TransactionSystem([t1, t2, t3]))
        assert verdict.method == "proposition-2"
