"""The one reader of a fault plan's windows."""

from repro.cluster import LogicalClock, NetworkFaultAdapter
from repro.faults import FaultInjector, FaultPlan, SiteCrash
from repro.sim import RandomDriver, run_once

#: A permanent crash of site 1 overlapped by a short one that ends.
OVERLAPPING = FaultPlan(
    site_crashes=(
        SiteCrash(site=1, at=0),
        SiteCrash(site=1, at=5, recover_at=8),
    )
)


class TestOverlappingCrashWindows:
    """A site is down while any of its crash windows is open: the short
    window closing must not revive a site that is crashed for good."""

    def test_injector_keeps_the_site_down(self):
        injector = FaultInjector(OVERLAPPING)
        recovered_sites = []
        for clock in range(12):
            _, recovered = injector.advance(clock)
            recovered_sites += [crash.site for crash in recovered]
            assert injector.site_down(1), f"site 1 up at clock {clock}"
        assert recovered_sites == []
        assert injector.injected == 2

    def test_cluster_fault_view_keeps_the_site_down(self):
        clock = LogicalClock()
        view = NetworkFaultAdapter(OVERLAPPING, clock=clock)
        for _ in range(12):
            assert view.site_down(1), f"site 1 up at clock {clock.now}"
            clock.tick()

    def test_last_window_closing_recovers_the_site(self):
        plan = FaultPlan(
            site_crashes=(
                SiteCrash(site=2, at=1, recover_at=6),
                SiteCrash(site=2, at=3, recover_at=4),
            )
        )
        injector = FaultInjector(plan)
        down, recoveries, wakeups = [], [], []
        for clock in range(8):
            _, recovered = injector.advance(clock)
            recoveries += [(clock, crash.site) for crash in recovered]
            down.append(injector.site_down(2))
            wakeups.append(injector.next_wakeup(clock))
        assert down == [False, True, True, True, True, True, False, False]
        assert recoveries == [(6, 2)]
        assert wakeups == [1, 3, 3, 4, 6, 6, None, None]

    def test_simulator_run_stays_crashed(self, simple_safe_pair):
        result = run_once(simple_safe_pair, RandomDriver(0), fault_plan=OVERLAPPING)
        assert not result.completed
        assert result.outcome == "crashed"
