"""Schedules: legality clauses (a)/(b), serializability, enumeration."""

import hashlib

import pytest

from repro.core import (
    DistributedDatabase,
    Schedule,
    ScheduledStep,
    TransactionBuilder,
    TransactionSystem,
    all_legal_schedules,
    find_nonserializable_schedule,
)
from repro.core.step import lock
from repro.errors import ScheduleError, TransactionError
from repro.workloads import figure_1, figure_5


@pytest.fixture
def db():
    return DistributedDatabase({"x": 1, "z": 2})


@pytest.fixture
def pair(db):
    t1 = TransactionBuilder("T1", db)
    t1.access("x")
    t1.access("z")
    t2 = TransactionBuilder("T2", db)
    t2.access("x")
    t2.access("z")
    return TransactionSystem([t1.build(), t2.build()])


def steps_of(system, name):
    return [
        ScheduledStep(name, step) for step in system[name].a_linear_extension()
    ]


class TestTransactionSystem:
    def test_needs_transactions(self):
        with pytest.raises(TransactionError):
            TransactionSystem([])

    def test_rejects_duplicate_names(self, db):
        t = TransactionBuilder("T", db)
        t.access("x")
        tx = t.build()
        with pytest.raises(TransactionError):
            TransactionSystem([tx, tx])

    def test_rejects_mixed_databases(self, db):
        other_db = DistributedDatabase({"x": 1, "z": 1})
        a = TransactionBuilder("A", db)
        a.access("x")
        b = TransactionBuilder("B", other_db)
        b.access("x")
        with pytest.raises(TransactionError):
            TransactionSystem([a.build(), b.build()])

    def test_shared_locked_entities(self, pair):
        assert sorted(pair.shared_locked_entities()) == ["x", "z"]

    def test_pair_accessor(self, pair):
        first, second = pair.pair()
        assert {first.name, second.name} == {"T1", "T2"}

    def test_total_steps(self, pair):
        assert pair.total_steps() == 12


class TestSerialSchedules:
    def test_serial_schedule_is_legal_and_serial(self, pair):
        schedule = pair.serial_schedule(["T1", "T2"])
        assert schedule.is_serial()
        assert schedule.is_serializable()

    def test_serial_needs_permutation(self, pair):
        with pytest.raises(ScheduleError):
            pair.serial_schedule(["T1"])


class TestLegality:
    def test_missing_step_rejected(self, pair):
        steps = steps_of(pair, "T1") + steps_of(pair, "T2")
        with pytest.raises(ScheduleError):
            Schedule(pair, steps[:-1])

    def test_repeated_step_rejected(self, pair):
        steps = steps_of(pair, "T1") + steps_of(pair, "T2")
        with pytest.raises(ScheduleError):
            Schedule(pair, steps + [steps[0]])

    def test_partial_order_violation_rejected(self, pair):
        steps = steps_of(pair, "T1") + steps_of(pair, "T2")
        steps[0], steps[1] = steps[1], steps[0]  # swap Lx and x of T1
        with pytest.raises(ScheduleError):
            Schedule(pair, steps)

    def test_lock_exclusion_violation_rejected(self, pair):
        # Interleave T2's Lx inside T1's x-critical-section.
        t1 = steps_of(pair, "T1")
        t2 = steps_of(pair, "T2")
        mixed = [t1[0], t2[0]] + t1[1:] + t2[1:]
        with pytest.raises(ScheduleError):
            Schedule(pair, mixed)

    def test_interleaved_legal_schedule(self, pair):
        t1 = steps_of(pair, "T1")
        t2 = steps_of(pair, "T2")
        # T1 finishes x, then T2 takes x, etc.
        mixed = t1[:3] + t2[:3] + t1[3:] + t2[3:]
        schedule = Schedule(pair, mixed)
        assert not schedule.is_serial()
        assert schedule.is_serializable()

    def test_accepts_bare_tuples(self, pair):
        items = [
            (item.transaction, item.step)
            for item in steps_of(pair, "T1") + steps_of(pair, "T2")
        ]
        assert len(Schedule(pair, items)) == 12


class TestSerializability:
    def test_nonserializable_interleaving(self, pair):
        t1 = steps_of(pair, "T1")
        t2 = steps_of(pair, "T2")
        # T1 first on x; T2 first on z.  (T1: Lx x Ux Lz z Uz)
        mixed = t1[:3] + t2[3:] + t2[:3] + t1[3:]
        schedule = Schedule(pair, mixed)
        assert not schedule.is_serializable()
        assert schedule.equivalent_serial_order() is None

    def test_equivalent_serial_order_witness(self, pair):
        schedule = pair.serial_schedule(["T2", "T1"])
        assert schedule.equivalent_serial_order() == ["T2", "T1"]

    def test_position_lookup(self, pair):
        schedule = pair.serial_schedule(["T1", "T2"])
        first = pair["T1"].a_linear_extension()[0]
        assert schedule.position("T1", first) == 0


class TestEnumeration:
    def test_all_legal_schedules_are_legal_and_distinct(self, pair):
        schedules = list(all_legal_schedules(pair, limit=200))
        seen = {tuple(map(str, s.steps)) for s in schedules}
        assert len(seen) == len(schedules)

    def test_single_transaction_single_schedule(self, db):
        t = TransactionBuilder("T", db)
        t.access("x")
        system = TransactionSystem([t.build()])
        schedules = list(all_legal_schedules(system))
        assert len(schedules) == 1

    def test_find_nonserializable_on_unsafe(self, simple_unsafe_pair):
        witness = find_nonserializable_schedule(simple_unsafe_pair)
        assert witness is not None
        assert not witness.is_serializable()

    def test_find_nonserializable_on_safe(self, simple_safe_pair):
        assert find_nonserializable_schedule(simple_safe_pair) is None

    def test_budget_guard(self, pair):
        from repro.core.schedule import SearchBudgetExceeded

        with pytest.raises(SearchBudgetExceeded):
            list(all_legal_schedules(pair, state_budget=3))


class TestGoldenOracle:
    """Verbatim pins taken before ``Schedule`` validation moved onto
    integer step ids: the four ``ScheduleError`` messages, two paper
    witnesses and the enumeration order of ``all_legal_schedules``."""

    def rejected(self, pair, steps):
        with pytest.raises(ScheduleError) as caught:
            Schedule(pair, steps)
        return str(caught.value)

    def test_repeated_step_message(self, pair):
        t1, t2 = steps_of(pair, "T1"), steps_of(pair, "T2")
        assert self.rejected(pair, t1 + t2 + [t1[0]]) == "schedule repeats a step"
        # A repeat wins over a missing/extra step, unknown steps included.
        ghost = ScheduledStep("T9", t1[0].step)
        assert (
            self.rejected(pair, t1 + t2[:-1] + [ghost, ghost])
            == "schedule repeats a step"
        )

    def test_missing_and_extra_step_message(self, pair):
        t1, t2 = steps_of(pair, "T1"), steps_of(pair, "T2")
        assert self.rejected(pair, (t1 + t2)[:-1]) == (
            "schedule is not a total order of all steps "
            "(missing=['Uz[T2]'], extra=[])"
        )
        # An unknown transaction name and an unknown step of a known one.
        strangers = [ScheduledStep("T9", t1[0].step), ("T2", lock("q"))]
        assert self.rejected(pair, t1 + t2[:-2] + strangers) == (
            "schedule is not a total order of all steps "
            "(missing=['Uz[T2]', 'z[T2]'], extra=['Lq[T2]', 'Lx[T9]'])"
        )
        # Both lists are sorted and cut at five.
        assert self.rejected(pair, t1[:2]) == (
            "schedule is not a total order of all steps "
            "(missing=['Lx[T2]', 'Lz[T1]', 'Lz[T2]', 'Ux[T1]', 'Ux[T2]'], "
            "extra=[])"
        )

    def test_order_contradiction_names_the_first_violated_arc(self, pair):
        steps = steps_of(pair, "T1") + steps_of(pair, "T2")
        steps[0], steps[1] = steps[1], steps[0]
        assert (
            self.rejected(pair, steps)
            == "schedule contradicts T1: Lx must precede x"
        )
        # Lz z Uz reversed violates two arcs; the first in arc order is named.
        steps = steps_of(pair, "T1") + steps_of(pair, "T2")
        steps[3], steps[5] = steps[5], steps[3]
        assert (
            self.rejected(pair, steps)
            == "schedule contradicts T1: Lz must precede z"
        )

    def test_lock_while_held_message(self, pair):
        t1, t2 = steps_of(pair, "T1"), steps_of(pair, "T2")
        assert (
            self.rejected(pair, [t1[0], t2[0]] + t1[1:] + t2[1:])
            == "T2 locks 'x' while T1 still holds it"
        )

    def test_figure_witnesses(self):
        assert str(find_nonserializable_schedule(figure_1())) == (
            "Lx[T1] x[T1] Ux[T1] Ly[T1] y[T1] Uy[T1] Lw[T2] w[T2] Uw[T2] "
            "Lw[T1] w[T1] Uw[T1] Lz[T2] z[T2] Uz[T2] Lx[T2] x[T2] Ux[T2]"
        )
        assert find_nonserializable_schedule(figure_5()) is None  # safe

    def test_enumeration_count_and_order(self, pair):
        rendered = [str(schedule) for schedule in all_legal_schedules(pair)]
        assert len(rendered) == 3696
        assert rendered[0] == (
            "Lx[T1] x[T1] Ux[T1] Lz[T1] z[T1] Uz[T1] "
            "Lx[T2] x[T2] Ux[T2] Lz[T2] z[T2] Uz[T2]"
        )
        assert rendered[1] == (
            "Lx[T1] x[T1] Ux[T1] Lz[T1] z[T1] Uz[T1] "
            "Lx[T2] x[T2] Lz[T2] Ux[T2] z[T2] Uz[T2]"
        )
        assert rendered[-1] == (
            "Lz[T2] z[T2] Uz[T2] Lx[T2] x[T2] Ux[T2] "
            "Lz[T1] z[T1] Uz[T1] Lx[T1] x[T1] Ux[T1]"
        )
        digest = hashlib.sha256("\n".join(rendered).encode()).hexdigest()
        assert digest == (
            "b6ba36254f28ad2fe9abed5f856c70d5d601d5c3adff728fc0839135bca84830"
        )
