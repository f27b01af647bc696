"""Stress smoke tests: large inputs must complete without errors or
pathological blowup (no ground-truth comparison — scale only)."""

import random
import time

import pytest

from repro.core import decide_safety, is_safe_two_site
from repro.core.fastcheck import is_safe_total_orders_fast
from repro.sim import RandomDriver, run_once
from repro.workloads import random_pair_system, random_total_order_pair


class TestLargeSystems:
    def test_two_site_thousand_steps(self):
        rng = random.Random(1)
        system = random_pair_system(
            rng, sites=2, entities=200, shared=200, cross_arcs=10
        )
        start = time.perf_counter()
        verdict = decide_safety(system)
        elapsed = time.perf_counter() - start
        assert verdict.method in ("theorem-2", "trivial")
        assert elapsed < 30
        if not verdict.safe:
            assert verdict.certificate.verify()

    def test_fast_centralized_three_thousand_entities(self):
        rng = random.Random(2)
        start = time.perf_counter()
        _, t1, t2 = random_total_order_pair(rng, entities=3000)
        # Two 9000-step chains: construction (closure, site-order
        # validation, step plan) must stay near-linear too.
        assert time.perf_counter() - start < 10
        start = time.perf_counter()
        is_safe_total_orders_fast(t1, t2)
        assert time.perf_counter() - start < 10

    def test_simulator_on_large_system(self):
        rng = random.Random(3)
        system = random_pair_system(
            rng, sites=4, entities=60, shared=40, cross_arcs=5
        )
        result = run_once(system, RandomDriver(9))
        assert result.completed or result.deadlocked

    @pytest.mark.parametrize("sites", [1, 2])
    def test_deep_cross_arcs(self, sites):
        rng = random.Random(4)
        system = random_pair_system(
            rng, sites=sites, entities=50, shared=50, cross_arcs=100
        )
        first, second = system.pair()
        assert is_safe_two_site(first, second) in (True, False)
