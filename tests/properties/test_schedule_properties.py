"""Property-based tests of the integer step plan and of ``Schedule``
validation on plan ids, against the set/dict validator it replaced
(kept here as the reference)."""

import random

from hypothesis import given, settings, strategies as st

from repro.core import (
    Schedule,
    ScheduledStep,
    Transaction,
    all_legal_schedules,
)
from repro.errors import ScheduleError
from repro.workloads import random_pair_system

pair_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 10**9),
        "sites": st.integers(2, 4),
        "entities": st.integers(2, 4),
        "shared": st.integers(2, 4),
        "cross_arcs": st.integers(0, 3),
    }
)


def build_pair(params):
    rng = random.Random(params["seed"])
    return random_pair_system(
        rng,
        sites=params["sites"],
        entities=params["entities"],
        shared=min(params["shared"], params["entities"]),
        cross_arcs=params["cross_arcs"],
    )


def reference_error(system, steps):
    """The validator ``Schedule._validate`` was before it ran on plan
    ids: the message it raises for *steps*, ``None`` for a legal
    schedule."""
    expected = {
        ScheduledStep(tx.name, step)
        for tx in system.transactions
        for step in tx.steps
    }
    got = set(steps)
    if len(got) != len(steps):
        return "schedule repeats a step"
    if got != expected:
        missing = expected - got
        extra = got - expected
        return (
            f"schedule is not a total order of all steps "
            f"(missing={sorted(map(str, missing))[:5]}, "
            f"extra={sorted(map(str, extra))[:5]})"
        )
    position = {item: index for index, item in enumerate(steps)}
    for tx in system.transactions:
        for before, after in tx.poset().arcs():
            if (
                position[ScheduledStep(tx.name, before)]
                > position[ScheduledStep(tx.name, after)]
            ):
                return (
                    f"schedule contradicts {tx.name}: {before} must "
                    f"precede {after}"
                )
    holder = {}
    for item in steps:
        entity = item.step.entity
        if item.step.is_lock:
            current = holder.get(entity)
            if current is not None:
                return (
                    f"{item.transaction} locks {entity!r} while "
                    f"{current} still holds it"
                )
            holder[entity] = item.transaction
        elif item.step.is_unlock:
            holder[entity] = None
    return None


def actual_error(system, steps):
    try:
        Schedule(system, steps)
    except ScheduleError as error:
        return str(error)
    return None


def a_legal_schedule(system, pick):
    """The *pick*-th legal schedule in enumeration order (the last one
    when there are fewer)."""
    return list(all_legal_schedules(system, limit=pick + 1))[-1].steps


@settings(max_examples=60, deadline=None)
@given(pair_params, st.integers(0, 30), st.integers(0, 10**9))
def test_random_permutations_judged_as_by_the_reference(params, pick, seed):
    system = build_pair(params)
    steps = a_legal_schedule(system, pick)
    assert actual_error(system, steps) is None is reference_error(system, steps)
    random.Random(seed).shuffle(steps)
    assert actual_error(system, steps) == reference_error(system, steps)


@settings(max_examples=100, deadline=None)
@given(pair_params, st.integers(0, 30), st.data())
def test_single_swaps_judged_as_by_the_reference(params, pick, data):
    system = build_pair(params)
    steps = a_legal_schedule(system, pick)
    i = data.draw(st.integers(0, len(steps) - 1))
    j = data.draw(st.integers(0, len(steps) - 1))
    steps[i], steps[j] = steps[j], steps[i]
    assert actual_error(system, steps) == reference_error(system, steps)


@settings(max_examples=60, deadline=None)
@given(pair_params, st.integers(0, 30), st.data())
def test_lost_repeated_and_foreign_steps_judged_as_by_the_reference(
    params, pick, data
):
    system = build_pair(params)
    steps = a_legal_schedule(system, pick)
    victim = data.draw(st.integers(0, len(steps) - 1))
    stranger = ScheduledStep("nobody", steps[victim].step)
    replacement = data.draw(
        st.sampled_from([[], [steps[victim]] * 2, [stranger], [stranger] * 2])
    )
    steps[victim : victim + 1] = replacement
    assert actual_error(system, steps) == reference_error(system, steps)


@settings(max_examples=40, deadline=None)
@given(pair_params, st.integers(0, 30))
def test_ids_tuples_and_scheduled_steps_build_the_same_schedule(params, pick):
    system = build_pair(params)
    steps = a_legal_schedule(system, pick)
    ids = [system.step_id(item.transaction, item.step) for item in steps]
    assert [system.scheduled_steps[number] for number in ids] == steps
    tuples = [(item.transaction, item.step) for item in steps]
    assert Schedule(system, ids).steps == steps == Schedule(system, tuples).steps


@settings(max_examples=60, deadline=None)
@given(pair_params)
def test_plan_is_the_partial_order_on_insertion_indices(params):
    for tx in build_pair(params).transactions:
        plan = tx.plan()
        steps = tx.steps
        assert list(plan.steps) == steps
        assert [plan.index[step] for step in steps] == list(range(len(steps)))
        assert [
            (plan.steps[before], plan.steps[after])
            for before, after in plan.arcs
        ] == tx.poset().arcs()
        for j, later in enumerate(steps):
            for i, earlier in enumerate(steps):
                assert bool(plan.predecessors[j] >> i & 1) == tx.precedes(
                    earlier, later
                )
            assert plan.predecessor_ids[j] == tuple(
                i for i, earlier in enumerate(steps) if tx.precedes(earlier, later)
            )


def reference_clone(tx, name):
    """``cluster.runtime._clone`` as it was: the same program rebuilt
    from steps and arcs under a new name."""
    return Transaction(
        name, tx.database, list(tx.steps), tx.poset().arcs(),
        validate_locking=False,
    )


@settings(max_examples=60, deadline=None)
@given(pair_params)
def test_renamed_is_the_rebuilt_clone(params):
    for tx in build_pair(params).transactions:
        renamed = tx.renamed(tx.name + "@r2")
        clone = reference_clone(tx, tx.name + "@r2")
        assert renamed.name == clone.name != tx.name
        assert renamed.steps == clone.steps
        assert renamed.canonical_form() == clone.canonical_form()
        assert renamed.poset().arcs() == clone.poset().arcs()
        assert renamed.plan().predecessors == clone.plan().predecessors
        assert renamed.plan() is tx.plan()
