"""The incremental admission state machine."""

import types

import pytest

from repro.core import (
    DistributedDatabase,
    TransactionBuilder,
    TransactionSystem,
    decide_safety,
)
from repro.errors import AdmissionError, AdmissionTimeout, VettingBudgetError
from repro.service import AdmissionRegistry, VerdictCache


def chain(name, db, entities, two_phase=False):
    """Totally ordered transaction accessing *entities* in sequence."""
    builder = TransactionBuilder(name, db)
    if two_phase:
        steps = [builder.lock(entity) for entity in entities]
        for entity in entities:
            builder.update(entity)
        steps += [builder.unlock(entity) for entity in entities]
    else:
        steps = []
        for entity in entities:
            steps.extend(builder.access(entity))
    for before, after in zip(steps, steps[1:]):
        builder.precede(before, after)
    return builder.build()


@pytest.fixture
def db():
    return DistributedDatabase.single_site(["a", "b", "c"])


class TestAdmission:
    def test_safe_pair_admitted(self, db):
        registry = AdmissionRegistry()
        registry.admit(chain("T1", db, ["a", "b"], two_phase=True))
        decision = registry.admit(chain("T2", db, ["a", "b"], two_phase=True))
        assert decision.admitted
        assert decision.verdict.method == "admission"
        assert decision.pairs_vetted == 1
        assert registry.names == ["T1", "T2"]

    def test_unsafe_pair_rejected_and_registry_unchanged(self, db):
        registry = AdmissionRegistry()
        registry.admit(chain("T1", db, ["a", "b"]))
        decision = registry.admit(chain("T2", db, ["b", "a"]))
        assert not decision.admitted
        assert decision.failing_pair == ("T2", "T1")
        assert "unsafe" in decision.verdict.detail
        assert registry.names == ["T1"]

    def test_rejection_carries_certificate_on_request(self, db):
        registry = AdmissionRegistry()
        registry.admit(chain("T1", db, ["a", "b"]))
        decision = registry.admit(
            chain("T2", db, ["b", "a"]), want_certificate=True
        )
        assert decision.verdict.certificate is not None
        assert decision.verdict.witness is not None

    def test_trivial_pair_not_vetted(self, db):
        registry = AdmissionRegistry()
        registry.admit(chain("T1", db, ["a", "b"]))
        decision = registry.admit(chain("T2", db, ["b", "c"]))
        assert decision.admitted
        assert decision.pairs_trivial == 1
        assert decision.pairs_vetted == 0

    def test_verdict_matches_offline_decider(self, db):
        registry = AdmissionRegistry()
        first = chain("T1", db, ["a", "b"])
        second = chain("T2", db, ["a", "b"], two_phase=True)
        registry.admit(first)
        decision = registry.admit(second)
        offline = decide_safety(TransactionSystem([first, second]))
        assert decision.admitted == offline.safe


class TestProtocolErrors:
    def test_duplicate_name(self, db):
        registry = AdmissionRegistry()
        registry.admit(chain("T1", db, ["a"]))
        with pytest.raises(AdmissionError, match="already live"):
            registry.admit(chain("T1", db, ["b"]))

    def test_database_mismatch(self, db):
        other_db = DistributedDatabase({"a": 1, "b": 2}, sites=2)
        registry = AdmissionRegistry()
        registry.admit(chain("T1", db, ["a"]))
        with pytest.raises(AdmissionError, match="different database"):
            registry.admit(chain("T2", other_db, ["a"]))

    def test_evict_unknown(self, db):
        with pytest.raises(AdmissionError, match="unknown transaction"):
            AdmissionRegistry().evict("ghost")

    def test_member_unknown(self, db):
        with pytest.raises(AdmissionError, match="no live transaction"):
            AdmissionRegistry().member("ghost")


class TestCycleCondition:
    def triangle(self, db, two_phase=False):
        return [
            chain("T1", db, ["a", "b"], two_phase),
            chain("T2", db, ["b", "c"], two_phase),
            chain("T3", db, ["c", "a"], two_phase),
        ]

    def test_pairwise_safe_triangle_rejected(self, db):
        registry = AdmissionRegistry()
        t1, t2, t3 = self.triangle(db)
        assert registry.admit(t1).admitted
        assert registry.admit(t2).admitted
        decision = registry.admit(t3)
        assert not decision.admitted
        assert decision.verdict.method == "proposition-2"
        assert decision.failing_cycle is not None
        assert set(decision.failing_cycle) == {"T1", "T2", "T3"}

    def test_eviction_reopens_admission(self, db):
        registry = AdmissionRegistry()
        t1, t2, t3 = self.triangle(db)
        registry.admit(t1)
        registry.admit(t2)
        registry.evict(t2.name)
        assert registry.admit(t3).admitted
        assert registry.names == ["T1", "T3"]

    def test_cycle_limit_raises_rather_than_guessing(self, db):
        registry = AdmissionRegistry(cycle_limit=1)
        t1, t2, t3 = self.triangle(db)
        registry.admit(t1)
        registry.admit(t2)
        with pytest.raises(AdmissionError, match="cycle enumeration"):
            registry.admit(t3)

    def test_budget_error_carries_the_work_done(self, db):
        # The triangle's interaction graph has five directed cycles
        # (three pairs, the triangle both ways): a limit of five is hit
        # after both triangles passed their B_c test.
        registry = AdmissionRegistry(cycle_limit=5)
        t1, t2, t3 = self.triangle(db, two_phase=True)
        registry.admit(t1)
        registry.admit(t2)
        with pytest.raises(VettingBudgetError) as raised:
            registry.admit(t3)
        assert raised.value.counters == {
            "pairs_trivial": 2,
            "pairs_from_cache": 0,
            "pairs_vetted": 0,
            "cycles_checked": 2,
        }
        assert registry.stats.cycles_checked == 2
        assert registry.names == ["T1", "T2"]

    @pytest.mark.parametrize("two_phase", [False, True])
    def test_cycles_counted_once_per_admission(self, db, two_phase):
        # Rejected at the triangle's second direction, or admitted
        # after both: the service total is the decision's count.
        registry = AdmissionRegistry()
        for transaction in self.triangle(db, two_phase):
            decision = registry.admit(transaction)
        assert decision.admitted == two_phase
        assert decision.cycles_checked == 2
        assert registry.stats.cycles_checked == 2

    def test_same_name_new_body_is_vetted_afresh(self, db):
        """B-graph triples are remembered per name while one admission
        enumerates its cycles, and no longer: a rejected or evicted
        body must never answer for the next one under its name."""
        registry = AdmissionRegistry()
        t1, t2, two_phase_t3 = self.triangle(db, two_phase=True)
        other_t3 = self.triangle(db)[2]
        registry.admit(t1)
        registry.admit(t2)
        assert not registry.admit(other_t3).admitted
        assert registry.admit(two_phase_t3).admitted
        registry.evict("T3")
        decision = registry.admit(other_t3)
        assert not decision.admitted
        assert decision.verdict.method == "proposition-2"
        assert set(decision.failing_cycle) == {"T1", "T2", "T3"}

    def test_admit_system_skips_rejections(self, db):
        registry = AdmissionRegistry()
        decisions = registry.admit_system(TransactionSystem(self.triangle(db)))
        assert [decision.admitted for decision in decisions] == [
            True, True, False,
        ]
        assert registry.names == ["T1", "T2"]


class TestEvictionIndex:
    def test_evicted_member_no_longer_blocks(self, db):
        registry = AdmissionRegistry()
        registry.admit(chain("T1", db, ["a", "b"]))
        registry.admit(chain("T2", db, ["b", "c"]))
        assert not registry.admit(chain("T3", db, ["b", "a"])).admitted
        registry.evict("T1")
        assert registry.admit(chain("T3", db, ["b", "a"])).admitted

    def test_interaction_edges_follow_evictions(self, db):
        registry = AdmissionRegistry()
        registry.admit(chain("T1", db, ["a", "b"]))
        registry.admit(chain("T2", db, ["b", "c"]))
        assert registry.interaction_edges() == [("T1", "T2")]
        registry.evict("T1")
        assert registry.interaction_edges() == []


class TestCacheSharing:
    def test_second_registry_reuses_verdicts(self, db):
        cache = VerdictCache()
        fleet = [
            chain("T1", db, ["a", "b"], two_phase=True),
            chain("T2", db, ["a", "b"], two_phase=True),
        ]
        first = AdmissionRegistry(cache=cache)
        for transaction in fleet:
            first.admit(transaction)
        assert first.stats.pairs_vetted == 1

        second = AdmissionRegistry(cache=cache)
        decisions = [second.admit(t) for t in fleet]
        assert all(decision.admitted for decision in decisions)
        assert second.stats.pairs_vetted == 0
        assert second.stats.pairs_from_cache == 1

    def test_unsafe_verdict_cached_but_evidence_fresh(self, db):
        cache = VerdictCache()
        first = AdmissionRegistry(cache=cache)
        first.admit(chain("T1", db, ["a", "b"]))
        first.admit(chain("T2", db, ["b", "a"]))

        second = AdmissionRegistry(cache=cache)
        second.admit(chain("T1", db, ["a", "b"]))
        decision = second.admit(
            chain("T2", db, ["b", "a"]), want_certificate=True
        )
        assert not decision.admitted
        assert decision.pairs_from_cache == 1
        assert decision.verdict.certificate is not None


class TestRegistryTimeout:
    def test_timed_out_admission_is_counted_and_rolled_back(
        self, simple_safe_pair
    ):
        registry = AdmissionRegistry(admission_timeout=0.0)
        first, second = simple_safe_pair.transactions
        registry.admit(first)  # no pairs to vet, cannot time out
        with pytest.raises(AdmissionTimeout):
            registry.admit(second)
        assert registry.stats.admission_timeouts == 1
        assert registry.stats.pairs_vetted == 0
        assert second.name not in registry  # nothing half-admitted
        assert len(registry.cache) == 0  # nor half-cached

    def test_inline_timeout_raises_admission_timeout(self, db, monkeypatch):
        # Distinct shapes, so every pair is a cache miss to vet.
        registry = AdmissionRegistry()
        for name, entities in [
            ("T1", ["a", "b"]),
            ("T2", ["b", "a"]),
            ("T3", ["a", "b", "c"]),
            ("T4", ["c", "b", "a"]),
        ]:
            transaction = chain(name, db, entities, two_phase=True)
            assert registry.admit(transaction).admitted
        cached = len(registry.cache)
        # Each clock read advances 0.3 s against a 0.5 s budget: the
        # first pair is decided, the deadline expires before the second.
        ticks = iter(0.3 * step for step in range(100))
        monkeypatch.setattr(
            "repro.service.registry.time",
            types.SimpleNamespace(monotonic=lambda: next(ticks)),
        )
        registry.admission_timeout = 0.5
        with pytest.raises(
            AdmissionTimeout,
            match="pair vetting exceeded its admission timeout with 3 "
            "pairs left",
        ):
            registry.admit(chain("T5", db, ["a", "c", "b"], two_phase=True))
        assert "T5" not in registry
        assert len(registry.cache) == cached  # the decided pair too


class TestIntrospection:
    def test_stats_dict_shape(self, db):
        registry = AdmissionRegistry()
        registry.admit(chain("T1", db, ["a"]))
        payload = registry.stats_dict()
        assert set(payload) == {"live_transactions", "service", "cache"}
        assert payload["live_transactions"] == 1
        assert payload["service"]["admitted"] == 1
        assert "hit_rate" in payload["cache"]

    def test_system_roundtrip(self, db):
        registry = AdmissionRegistry()
        registry.admit(chain("T1", db, ["a", "b"], two_phase=True))
        registry.admit(chain("T2", db, ["b", "c"], two_phase=True))
        system = registry.system()
        assert [t.name for t in system.transactions] == ["T1", "T2"]
        assert decide_safety(system).safe

    def test_system_requires_a_database(self):
        with pytest.raises(AdmissionError, match="no database"):
            AdmissionRegistry().system()
