"""The safety deciders and their agreement — Theorems 1-2, the exact
bit-vector decider, and the exhaustive ground truth."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core import (
    TransactionSystem,
    d_graph,
    decide_safety,
    decide_safety_exact,
    decide_safety_exhaustive,
    dominators_of,
    is_safe_sufficient,
    is_safe_two_site,
)
from repro.core.reduction import reduce_cnf_to_pair
from repro.core.safety import sites_of_pair
from repro.errors import TransactionError
from repro.logic import CnfFormula
from repro.workloads import (
    figure_1,
    figure_3,
    figure_5,
    figure_8_formula,
    random_pair_system,
    random_restricted_cnf,
)

#: Full verdicts and ``D(T1, T2)`` node/arc lists (order included) as
#: ``e7171b5`` produced them, and the dominator sequence as ``47578e7``
#: enumerated it; any replacement of the pair-level kernels is judged
#: against these values, not against itself.
GOLDEN = json.loads(
    Path(__file__).with_name("golden_pair_verdicts.json").read_text()
)


def _golden_pair(name):
    if name == "figure-8":
        artifacts = reduce_cnf_to_pair(figure_8_formula())
        return artifacts.first, artifacts.second
    if name == "k3-seed-3":
        artifacts = reduce_cnf_to_pair(
            random_restricted_cnf(
                random.Random(3), variables=3, clauses=3, clause_size=(3, 3)
            )
        )
        return artifacts.first, artifacts.second
    if name == "figure-5":
        return figure_5().pair()
    assert name == "free-form-3-site-seed-0"
    return random_pair_system(
        random.Random(0), sites=3, entities=6, two_phase=False
    ).pair()


@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestGoldenOracle:
    def test_full_verdict(self, name):
        golden = GOLDEN[name]
        verdict = decide_safety_exact(*_golden_pair(name))
        witness = None if verdict.witness is None else str(verdict.witness)
        assert (verdict.safe, verdict.method, verdict.detail, witness) == (
            golden["safe"],
            golden["method"],
            golden["detail"],
            golden["witness"],
        )

    def test_d_graph_node_and_arc_order(self, name):
        golden = GOLDEN[name]
        graph = d_graph(*_golden_pair(name))
        assert graph.nodes() == golden["nodes"]
        assert [list(arc) for arc in graph.arcs()] == golden["arcs"]

    def test_dominator_enumeration_order(self, name):
        """Every dominator of ``D``, in the order the exact decider tries
        them (each as its sorted member names)."""
        dominators = dominators_of(d_graph(*_golden_pair(name)))
        assert [" ".join(sorted(d)) for d in dominators] == (
            GOLDEN[name]["dominators"]
        )


def _decide_conp_items(seed):
    """The 47 pairs of one unit of the benchmark suite's ``decide-conp``
    workload, drawn in the same order from the same seeded stream: six
    K=3 and one K=4 reduction pair, 30 three-site pairs (two in three
    two-phase), 10 two-site pairs, then one shuffle."""
    rng = random.Random(f"decide-conp/{seed}")
    items = []
    for variables, count in ((3, 6), (4, 1)):
        for _ in range(count):
            formula = random_restricted_cnf(
                rng, variables=variables, clauses=variables, clause_size=(3, 3)
            )
            artifacts = reduce_cnf_to_pair(formula)
            items.append(TransactionSystem([artifacts.first, artifacts.second]))
    for index in range(30):
        items.append(
            random_pair_system(rng, sites=3, entities=6, two_phase=index % 3 != 0)
        )
    for index in range(10):
        items.append(
            random_pair_system(rng, sites=2, entities=4, two_phase=index % 2 == 0)
        )
    rng.shuffle(items)
    return items


#: sha256 over ``safe``/``method``/``detail``/``str(witness)`` of every
#: verdict of a ``decide-conp`` unit, as ``47578e7`` produced them; 31337
#: is a seed no measurement was tuned on.
DECIDE_CONP_DIGESTS = {
    14: "05196f0adb9f52c17f97791e3f5e0e17245a8768bfe9f609f3b408a867b88289",
    31337: "6a8028811c402d79988c0e16c7a7c95908687e2e931b0f94390fdac450f20605",
}


@pytest.mark.parametrize("seed", sorted(DECIDE_CONP_DIGESTS))
def test_decide_conp_verdicts_are_pinned(seed):
    digest = hashlib.sha256()
    for system in _decide_conp_items(seed):
        verdict = decide_safety(system, want_certificate=False)
        witness = None if verdict.witness is None else str(verdict.witness)
        record = [verdict.safe, verdict.method, verdict.detail, witness]
        digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == DECIDE_CONP_DIGESTS[seed]


class TestTheorem1:
    def test_strongly_connected_reports_safe(self, simple_safe_pair):
        assert is_safe_sufficient(*simple_safe_pair.pair()) is True

    def test_not_connected_is_silent(self, simple_unsafe_pair):
        assert is_safe_sufficient(*simple_unsafe_pair.pair()) is None

    def test_silent_on_figure_5_despite_safety(self):
        # The criterion is one-sided: Fig. 5 is safe but D is not SC.
        assert is_safe_sufficient(*figure_5().pair()) is None

    @pytest.mark.parametrize("seed", range(30))
    def test_sufficiency_never_contradicts_ground_truth(self, seed):
        rng = random.Random(seed)
        system = random_pair_system(
            rng, sites=rng.randint(1, 4), entities=rng.randint(2, 4),
            shared=rng.randint(2, 3), cross_arcs=rng.randint(0, 2),
        )
        if is_safe_sufficient(*system.pair()) is True:
            assert decide_safety_exhaustive(system).safe


class TestTheorem2:
    def test_two_site_exact_characterization(
        self, simple_safe_pair, simple_unsafe_pair
    ):
        assert is_safe_two_site(*simple_safe_pair.pair())
        assert not is_safe_two_site(*simple_unsafe_pair.pair())

    def test_refuses_three_site_pairs(self):
        first, second = figure_5().pair()  # four sites
        with pytest.raises(TransactionError):
            is_safe_two_site(first, second)

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_exhaustive_at_two_sites(self, seed):
        rng = random.Random(seed)
        system = random_pair_system(
            rng, sites=rng.choice([1, 2]), entities=rng.randint(2, 5),
            shared=rng.randint(2, 4), cross_arcs=rng.randint(0, 3),
        )
        first, second = system.pair()
        assert is_safe_two_site(first, second) == (
            decide_safety_exhaustive(system).safe
        )


class TestExactDecider:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_exhaustive_at_any_sites(self, seed):
        rng = random.Random(7000 + seed)
        system = random_pair_system(
            rng, sites=rng.randint(1, 4), entities=rng.randint(2, 4),
            shared=rng.randint(2, 4), cross_arcs=rng.randint(0, 3),
        )
        first, second = system.pair()
        exact = decide_safety_exact(first, second)
        exhaustive = decide_safety_exhaustive(system)
        assert exact.safe == exhaustive.safe
        if not exact.safe:
            assert exact.witness is not None
            assert not exact.witness.is_serializable()

    def test_figure_5_decided_safe(self):
        verdict = decide_safety_exact(*figure_5().pair())
        assert verdict.safe

    def test_trivial_with_fewer_than_two_shared(self):
        rng = random.Random(1)
        system = random_pair_system(
            rng, sites=2, entities=3, shared=1, cross_arcs=0
        )
        verdict = decide_safety_exact(*system.pair())
        assert verdict.safe and verdict.method == "trivial"

    @pytest.fixture(scope="class")
    def safe_256_dominator_pair(self):
        """An unsatisfiable formula's reduction: safe, and only after all
        256 dominators of ``D`` have been tested."""
        artifacts = reduce_cnf_to_pair(
            CnfFormula.parse(
                "(p | y1) & (p | ~y1) & (q | y2) & (q | ~y2) & (~p | ~q)"
            )
        )
        return artifacts.first, artifacts.second

    def test_dominator_limit_below_the_count_raises(
        self, safe_256_dominator_pair
    ):
        with pytest.raises(TransactionError, match="safety is undecided"):
            decide_safety_exact(*safe_256_dominator_pair, dominator_limit=255)

    def test_dominator_limit_equal_to_the_count_decides_safe(
        self, safe_256_dominator_pair
    ):
        verdict = decide_safety_exact(
            *safe_256_dominator_pair, dominator_limit=256
        )
        assert verdict.safe and "among 256 dominators" in verdict.detail
        # Fig. 5 has exactly one dominator; a limit of one is enough.
        assert decide_safety_exact(
            *figure_5().pair(), dominator_limit=1
        ).safe

    def test_witness_inside_the_dominator_limit_decides_unsafe(self):
        # Fig. 8's first realizable dominator is the 23rd enumerated.
        first, second = _golden_pair("figure-8")
        limited = decide_safety_exact(first, second, dominator_limit=23)
        assert not limited.safe
        assert str(limited.witness) == GOLDEN["figure-8"]["witness"]
        with pytest.raises(TransactionError, match="safety is undecided"):
            decide_safety_exact(first, second, dominator_limit=22)


class TestLemma1Decider:
    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_exact(self, seed):
        from repro.core.safety import decide_safety_via_lemma_1

        rng = random.Random(5000 + seed)
        system = random_pair_system(
            rng, sites=rng.randint(1, 3), entities=rng.randint(2, 4),
            shared=rng.randint(2, 3), cross_arcs=rng.randint(0, 2),
        )
        first, second = system.pair()
        lemma = decide_safety_via_lemma_1(first, second)
        exact = decide_safety_exact(first, second)
        assert lemma.safe == exact.safe
        if not lemma.safe and lemma.witness is not None:
            assert not lemma.witness.is_serializable()

    def test_pair_limit_guard(self):
        from repro.core.safety import decide_safety_via_lemma_1

        rng = random.Random(1)
        # A SAFE pair with many extensions: enumeration must run to the
        # limit because no unsafe pair exists to exit early on.
        system = random_pair_system(
            rng, sites=4, entities=4, shared=4, two_phase=True
        )
        first, second = system.pair()
        with pytest.raises(TransactionError):
            decide_safety_via_lemma_1(first, second, pair_limit=3)


class TestNaiveAblationReference:
    @pytest.mark.parametrize("seed", range(30))
    def test_naive_and_pruned_agree(self, seed):
        """The dominator pruning must never change the verdict."""
        from repro.core.safety import decide_safety_exact_naive

        rng = random.Random(4000 + seed)
        system = random_pair_system(
            rng, sites=rng.randint(1, 4), entities=rng.randint(2, 4),
            shared=rng.randint(2, 4), cross_arcs=rng.randint(0, 3),
        )
        first, second = system.pair()
        assert (
            decide_safety_exact(first, second).safe
            == decide_safety_exact_naive(first, second).safe
        )

    def test_naive_witnesses_are_nonserializable(self, simple_unsafe_pair):
        from repro.core.safety import decide_safety_exact_naive

        verdict = decide_safety_exact_naive(*simple_unsafe_pair.pair())
        assert not verdict.safe
        assert not verdict.witness.is_serializable()


class TestFrontEnd:
    def test_single_transaction_trivially_safe(self, two_site_db):
        from repro.core import TransactionBuilder

        t = TransactionBuilder("T", two_site_db)
        t.access("x")
        verdict = decide_safety(TransactionSystem([t.build()]))
        assert verdict.safe and verdict.method == "trivial"

    def test_two_site_safe_via_theorem_2(self, simple_safe_pair):
        verdict = decide_safety(simple_safe_pair)
        assert verdict.safe and verdict.method == "theorem-2"

    def test_two_site_unsafe_with_certificate(self, simple_unsafe_pair):
        verdict = decide_safety(simple_unsafe_pair)
        assert not verdict.safe
        assert verdict.method == "theorem-2"
        assert verdict.certificate is not None
        assert verdict.certificate.verify()
        assert verdict.witness is verdict.certificate.schedule

    def test_certificate_can_be_skipped(self, simple_unsafe_pair):
        verdict = decide_safety(simple_unsafe_pair, want_certificate=False)
        assert not verdict.safe and verdict.certificate is None

    def test_multisite_routes_to_exact(self):
        verdict = decide_safety(figure_5())
        assert verdict.safe
        assert verdict.method in ("theorem-1", "exact-bit-vector")

    def test_verdict_truthiness(self, simple_safe_pair, simple_unsafe_pair):
        assert decide_safety(simple_safe_pair)
        assert not decide_safety(simple_unsafe_pair)

    def test_figures_regression(self):
        assert not decide_safety(figure_1()).safe
        assert not decide_safety(figure_3()).safe
        assert decide_safety(figure_5()).safe

    def test_sites_of_pair(self, simple_unsafe_pair):
        assert sites_of_pair(*simple_unsafe_pair.pair()) == {1, 2}
