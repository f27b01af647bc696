"""Topological sorting: plain, keyed, exhaustive, cycle reporting."""

import random

import pytest

from repro.graphs import (
    CycleError,
    DiGraph,
    all_topological_sorts,
    find_cycle,
    is_acyclic,
    topological_order,
    topological_sort,
)


def is_topological(graph: DiGraph, order) -> bool:
    position = {node: index for index, node in enumerate(order)}
    return all(position[a] < position[b] for a, b in graph.arcs())


class TestIsAcyclic:
    def test_empty_and_singleton(self):
        assert is_acyclic(DiGraph())
        assert is_acyclic(DiGraph("a"))

    def test_dag(self):
        assert is_acyclic(DiGraph("abc", [("a", "b"), ("a", "c"), ("b", "c")]))

    def test_cycle(self):
        assert not is_acyclic(DiGraph("ab", [("a", "b"), ("b", "a")]))

    def test_self_loop(self):
        assert not is_acyclic(DiGraph("a", [("a", "a")]))


class TestFindCycle:
    def test_none_on_dag(self):
        assert find_cycle(DiGraph("abc", [("a", "b"), ("b", "c")])) is None

    def test_reports_closed_walk(self):
        graph = DiGraph("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        cycle = find_cycle(graph)
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        for tail, head in zip(cycle, cycle[1:]):
            assert graph.has_arc(tail, head)

    def test_self_loop_cycle(self):
        cycle = find_cycle(DiGraph("a", [("a", "a")]))
        assert cycle == ["a", "a"]


class TestTopologicalSort:
    def test_respects_arcs(self):
        graph = DiGraph("dcba", [("a", "b"), ("c", "b"), ("b", "d")])
        order = topological_sort(graph)
        assert is_topological(graph, order)
        assert sorted(order) == ["a", "b", "c", "d"]

    def test_raises_on_cycle_with_witness(self):
        graph = DiGraph("ab", [("a", "b"), ("b", "a")])
        with pytest.raises(CycleError) as excinfo:
            topological_sort(graph)
        assert excinfo.value.cycle  # the witness cycle is attached

    def test_deterministic_without_key(self):
        graph = DiGraph("zyx")
        assert topological_sort(graph) == ["z", "y", "x"]  # insertion order

    def test_key_prioritizes_available(self):
        # b and c both available after a; key pulls c first.
        graph = DiGraph("abc", [("a", "b"), ("a", "c")])
        order = topological_sort(graph, key=lambda n: 0 if n == "c" else 1)
        assert order == ["a", "c", "b"]

    def test_key_cannot_violate_precedence(self):
        graph = DiGraph("ab", [("a", "b")])
        order = topological_sort(graph, key=lambda n: 0 if n == "b" else 1)
        assert order == ["a", "b"]

    @pytest.mark.parametrize("seed", range(10))
    def test_random_dags(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 30)
        graph = DiGraph(range(n))
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.2:
                    graph.add_arc(a, b)
        order = topological_sort(graph)
        assert is_topological(graph, order)


class TestTopologicalOrder:
    def test_smallest_ready_id_first(self):
        assert topological_order(4, [(2, 0), (3, 1)]) == [2, 0, 3, 1]

    def test_a_parallel_arc_changes_nothing(self):
        arcs = [(2, 0), (2, 0), (3, 1), (3, 1), (3, 1)]
        assert topological_order(4, arcs) == [2, 0, 3, 1]

    def test_priority_then_id(self):
        assert topological_order(4, [(1, 0)], priority=[0, 1, 1, 0]) == [3, 1, 0, 2]

    def test_cycle_is_find_cycle_on_the_ids(self):
        arcs = [(0, 1), (1, 2), (2, 1), (2, 1)]
        with pytest.raises(CycleError) as excinfo:
            topological_order(3, arcs)
        assert excinfo.value.cycle == find_cycle(DiGraph(range(3), arcs)) == [1, 2, 1]


class TestAllTopologicalSorts:
    def test_antichain_gives_factorial(self):
        graph = DiGraph("abc")
        assert len(list(all_topological_sorts(graph))) == 6

    def test_chain_gives_one(self):
        graph = DiGraph("abc", [("a", "b"), ("b", "c")])
        assert list(all_topological_sorts(graph)) == [["a", "b", "c"]]

    def test_all_are_valid_and_distinct(self):
        graph = DiGraph("abcd", [("a", "b"), ("c", "d")])
        sorts = list(all_topological_sorts(graph))
        assert len(sorts) == len({tuple(s) for s in sorts}) == 6
        assert all(is_topological(graph, order) for order in sorts)

    def test_limit(self):
        graph = DiGraph("abcde")
        assert len(list(all_topological_sorts(graph, limit=7))) == 7
