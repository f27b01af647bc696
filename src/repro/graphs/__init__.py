"""Dependency-free directed-graph substrate.

Everything the paper's algorithms need from graph theory lives here:
strong connectivity (Theorems 1-2), dominator enumeration (Definition 2,
Theorem 3), priority topological sorts (the Theorem 2 certificate), cycle
enumeration (Proposition 2) and transitive closure/reduction (partial
orders as Hasse diagrams).
"""

from .cycles import has_cycle, simple_cycles
from .digraph import DiGraph
from .downsets import (
    dominators,
    enumerate_ancestor_closed_sets,
    is_dominator,
    some_dominator,
)
from .segtree import MaxSegmentTree
from .scc import condensation, is_strongly_connected, strongly_connected_components
from .topo import (
    CycleError,
    all_topological_sorts,
    find_cycle,
    is_acyclic,
    topological_order,
    topological_sort,
)
from .transitive import TransitiveClosure, transitive_closure, transitive_reduction

__all__ = [
    "CycleError",
    "DiGraph",
    "MaxSegmentTree",
    "TransitiveClosure",
    "all_topological_sorts",
    "condensation",
    "dominators",
    "enumerate_ancestor_closed_sets",
    "find_cycle",
    "has_cycle",
    "is_acyclic",
    "is_dominator",
    "is_strongly_connected",
    "simple_cycles",
    "some_dominator",
    "strongly_connected_components",
    "topological_order",
    "topological_sort",
    "transitive_closure",
    "transitive_reduction",
]
