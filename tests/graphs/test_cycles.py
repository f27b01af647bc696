"""Simple-cycle enumeration (Johnson), cross-validated with networkx."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import DiGraph, has_cycle, simple_cycles


def canon(cycle):
    """Rotation-invariant canonical form of a cycle."""
    best = min(range(len(cycle)), key=lambda i: str(cycle[i]))
    rotated = cycle[best:] + cycle[:best]
    return tuple(rotated)


class TestSimpleCycles:
    def test_acyclic_yields_nothing(self):
        graph = DiGraph("abc", [("a", "b"), ("b", "c")])
        assert list(simple_cycles(graph)) == []

    def test_self_loop(self):
        graph = DiGraph("a", [("a", "a")])
        assert list(simple_cycles(graph)) == [["a"]]

    def test_two_cycle(self):
        graph = DiGraph("ab", [("a", "b"), ("b", "a")])
        cycles = [canon(c) for c in simple_cycles(graph)]
        assert cycles == [("a", "b")]

    def test_two_triangles_sharing_a_node(self):
        graph = DiGraph(
            "abcde",
            [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("e", "c")],
        )
        cycles = {canon(c) for c in simple_cycles(graph)}
        assert cycles == {("a", "b", "c"), ("c", "d", "e")}

    def test_limit(self):
        graph = DiGraph("ab", [("a", "b"), ("b", "a"), ("a", "a"), ("b", "b")])
        assert len(list(simple_cycles(graph, limit=2))) == 2

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_networkx(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 9)
        graph = DiGraph(range(n))
        for a in range(n):
            for b in range(n):
                if rng.random() < 0.25:
                    graph.add_arc(a, b)
        ours = {canon(c) for c in simple_cycles(graph)}
        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(graph.nodes())
        nx_graph.add_edges_from(graph.arcs())
        theirs = {canon(c) for c in nx.simple_cycles(nx_graph)}
        assert ours == theirs


#: Every arc both ways between a, b and c: five cycles, three of them
#: through ``a``, so a limit can cut Johnson's search mid-recursion.
TRIANGLE = DiGraph(
    "abc",
    [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"), ("c", "a"), ("a", "c")],
)


@st.composite
def digraphs_with_loops(draw, max_nodes=6):
    n = draw(st.integers(1, max_nodes))
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n * 3,
        )
    )
    return DiGraph(range(n), arcs)


class TestLimitIsAPrefix:
    """``limit=L`` yields exactly the first ``L`` cycles of the uncapped
    enumeration: the admission budget examines that many, no more."""

    @pytest.mark.parametrize("limit", range(-1, 7))
    def test_triangle(self, limit):
        everything = list(simple_cycles(TRIANGLE))
        assert len(everything) == 5
        assert list(simple_cycles(TRIANGLE, limit=limit)) == (
            everything[: max(limit, 0)]
        )

    @settings(max_examples=80, deadline=None)
    @given(digraphs_with_loops())
    def test_every_limit(self, graph):
        everything = list(simple_cycles(graph))
        for limit in range(len(everything) + 2):
            assert list(simple_cycles(graph, limit=limit)) == everything[:limit]


class TestHasCycle:
    def test_dag(self):
        assert not has_cycle(DiGraph("ab", [("a", "b")]))

    def test_self_loop(self):
        assert has_cycle(DiGraph("a", [("a", "a")]))

    def test_long_cycle(self):
        n = 50
        graph = DiGraph(range(n), [(i, (i + 1) % n) for i in range(n)])
        assert has_cycle(graph)
