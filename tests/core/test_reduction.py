"""The Theorem 3 reduction — Figs. 8-9 — validated end-to-end."""

import random

import pytest

from repro.core import decide_safety_exact
from repro.core.reduction import (
    ReductionArtifacts,
    decide_satisfiability_via_safety,
    propagate_units,
    reduce_cnf_to_pair,
)
from repro.errors import ReductionError
from repro.graphs import is_strongly_connected
from repro.logic import CnfFormula, all_models, is_satisfiable, solve
from repro.workloads import figure_8_formula, random_restricted_cnf


@pytest.fixture(scope="module")
def fig8() -> ReductionArtifacts:
    return reduce_cnf_to_pair(figure_8_formula())


class TestConstruction:
    def test_d_graph_matches_design(self, fig8):
        # Checked internally at build time; re-assert the public fact.
        from repro.core import d_graph

        actual = d_graph(fig8.first, fig8.second)
        assert set(actual.arcs()) == set(fig8.d_expected.arcs())

    def test_d_not_strongly_connected(self, fig8):
        assert not is_strongly_connected(fig8.d_expected)

    def test_entities_one_per_site(self, fig8):
        db = fig8.database
        sites = [db.site_of(entity) for entity in db.entities]
        assert len(set(sites)) == len(sites)

    def test_middle_row_structure(self, fig8):
        # x2 appears twice unnegated in Fig. 8's F: doubled w-copies.
        assert len(fig8.w_copies_of["x2"]) == 2
        assert len(fig8.w_copies_of["x1"]) == 1
        assert len(fig8.w_copies_of["x3"]) == 1

    def test_rejects_unrestricted_formula(self):
        fat = CnfFormula.parse("(a | b | c | d)")
        with pytest.raises(ReductionError):
            reduce_cnf_to_pair(fat)

    def test_rejects_unit_clauses(self):
        unit = CnfFormula.parse("(a) & (a | b)")
        with pytest.raises(ReductionError):
            reduce_cnf_to_pair(unit)


class TestDominatorsAsAssignments:
    def test_dominators_are_upper_plus_middle_units(self, fig8):
        """Fig. 8's characterization of the dominators of D."""
        from repro.graphs import dominators

        upper = set(fig8.upper_cycle)
        units = fig8.middle_scc_units()
        count = 0
        for dominator in dominators(fig8.d_expected):
            count += 1
            assert upper <= set(dominator)
            remainder = set(dominator) - upper
            # The remainder is a union of complete middle units.
            for unit in units:
                overlap = remainder & set(unit)
                assert overlap in (set(), set(unit))
            assert remainder <= set(fig8.middle_nodes)
        assert count == 2 ** len(units)

    def test_assignment_roundtrip(self, fig8):
        assignment = {"x1": True, "x2": False, "x3": True}
        dominator = fig8.dominator_for_assignment(assignment)
        read_back = fig8.assignment_for_dominator(dominator)
        assert read_back == assignment

    def test_satisfying_assignment_gives_desirable_dominator(self, fig8):
        model = solve(fig8.formula)
        assert model is not None
        dominator = fig8.dominator_for_assignment(model)
        assert fig8.is_desirable(dominator)

    def test_falsifying_assignment_gives_undesirable_dominator(self, fig8):
        # x2 = False with x1 = False, x3 = False falsifies clause 1.
        falsifying = {"x1": False, "x2": False, "x3": False}
        assert not fig8.formula.satisfied_by(falsifying)
        dominator = fig8.dominator_for_assignment(falsifying)
        assert not fig8.is_desirable(dominator)

    def test_mixed_dominator_rejected_by_reader(self, fig8):
        both = set(fig8.upper_cycle)
        both.update(fig8.w_copies_of["x1"])
        both.add(fig8.w_neg_of["x1"])
        with pytest.raises(ReductionError):
            fig8.assignment_for_dominator(frozenset(both))


class TestBiconditional:
    def test_fig8_formula_is_satisfiable_hence_unsafe(self, fig8):
        assert is_satisfiable(fig8.formula)
        verdict = decide_safety_exact(fig8.first, fig8.second)
        assert not verdict.safe
        assert verdict.witness is not None
        assert not verdict.witness.is_serializable()

    def test_unsatisfiable_formula_gives_safe_pair(self):
        unsat = CnfFormula.parse(
            "(p | y1) & (p | ~y1) & (q | y2) & (q | ~y2) & (~p | ~q)"
        )
        assert not is_satisfiable(unsat)
        artifacts = reduce_cnf_to_pair(unsat)
        verdict = decide_safety_exact(artifacts.first, artifacts.second)
        assert verdict.safe

    @pytest.mark.parametrize("seed", range(12))
    def test_random_formulas_roundtrip(self, seed):
        rng = random.Random(seed)
        formula = random_restricted_cnf(
            rng, variables=rng.randint(2, 4), clauses=rng.randint(1, 3)
        )
        assert decide_satisfiability_via_safety(formula) == is_satisfiable(
            formula
        )

    def test_realizable_dominators_are_exactly_desirable_models(self, fig8):
        """The fine-grained correspondence: a dominator yields an unsafe
        schedule iff it is desirable, and desirable dominators map onto
        clause-satisfying (partial) assignments."""
        from repro.core import PairLockOrder
        from repro.graphs import dominators

        order = PairLockOrder(fig8.first, fig8.second)
        for dominator in dominators(fig8.d_expected):
            realizable = order.realizable(order.mask(dominator))
            assert realizable == fig8.is_desirable(dominator)


class TestPropagateUnits:
    def test_no_units_is_identity_shape(self):
        formula = CnfFormula.parse("(a | b) & (~a | c)")
        result = propagate_units(formula)
        assert isinstance(result, CnfFormula)
        assert len(result) == 2

    def test_unit_chain_resolves_true(self):
        formula = CnfFormula.parse("(a) & (~a | b)")
        assert propagate_units(formula) is True

    def test_contradiction_resolves_false(self):
        formula = CnfFormula.parse("(a) & (~a)")
        assert propagate_units(formula) is False

    def test_propagation_shrinks_clauses(self):
        formula = CnfFormula.parse("(a) & (~a | b | c) & (c | d)")
        result = propagate_units(formula)
        assert isinstance(result, CnfFormula)
        assert all(len(clause) >= 2 for clause in result.clauses)

    def test_pipeline_handles_units(self):
        assert decide_satisfiability_via_safety(
            CnfFormula.parse("(a) & (~a | b)")
        )
        assert not decide_satisfiability_via_safety(
            CnfFormula.parse("(a) & (~a)")
        )
