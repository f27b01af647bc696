"""Transaction validation — every §2 constraint, including failure
injection for each way a transaction can be malformed."""

import pytest

from repro.core import (
    DistributedDatabase,
    Step,
    StepKind,
    Transaction,
    TransactionBuilder,
)
from repro.errors import (
    LockingError,
    SiteOrderError,
    TransactionError,
)


@pytest.fixture
def db():
    return DistributedDatabase({"x": 1, "y": 1, "z": 2})


def triple(entity):
    return (
        Step(StepKind.LOCK, entity),
        Step(StepKind.UPDATE, entity),
        Step(StepKind.UNLOCK, entity),
    )


class TestBuilderHappyPath:
    def test_access_produces_valid_transaction(self, db):
        builder = TransactionBuilder("T", db)
        builder.access("x")
        builder.access("z")
        tx = builder.build()
        assert len(tx) == 6
        assert set(tx.locked_entities()) == {"x", "z"}

    def test_site_chain_is_automatic(self, db):
        builder = TransactionBuilder("T", db)
        lx, ux = builder.lock("x"), None
        builder.update("x")
        ux = builder.unlock("x")
        ly = builder.lock("y")
        builder.update("y")
        builder.unlock("y")
        tx = builder.build()
        # x steps precede y steps: same site, appended later.
        assert tx.precedes(ux, ly)

    def test_cross_site_steps_unordered_without_precede(self, db):
        builder = TransactionBuilder("T", db)
        lx, _, _ = builder.access("x")
        lz, _, _ = builder.access("z")
        tx = builder.build()
        assert tx.concurrent(lx, lz)

    def test_precede_orders_across_sites(self, db):
        builder = TransactionBuilder("T", db)
        _, _, ux = builder.access("x")
        lz, _, _ = builder.access("z")
        builder.precede(ux, lz)
        tx = builder.build()
        assert tx.precedes(ux, lz)

    def test_duplicate_step_rejected(self, db):
        builder = TransactionBuilder("T", db)
        builder.lock("x")
        with pytest.raises(TransactionError):
            builder.lock("x")


class TestLockingConstraints:
    def test_lock_without_unlock_rejected(self, db):
        steps = [Step(StepKind.LOCK, "x"), Step(StepKind.UPDATE, "x")]
        with pytest.raises(LockingError):
            Transaction("T", db, steps, [tuple(steps)])

    def test_unlock_without_lock_rejected(self, db):
        steps = [Step(StepKind.UPDATE, "x"), Step(StepKind.UNLOCK, "x")]
        with pytest.raises(LockingError):
            Transaction("T", db, steps, [tuple(steps)])

    def test_unlock_before_lock_rejected(self, db):
        l, u_, un = triple("x")
        with pytest.raises(LockingError):
            Transaction("T", db, [un, u_, l], [(un, u_), (u_, l)])

    def test_no_update_between_pair_rejected(self, db):
        # "superfluously locked": Lx-Ux with the update outside.
        l, upd, un = triple("x")
        with pytest.raises(LockingError):
            Transaction("T", db, [l, un, upd], [(l, un), (un, upd)])

    def test_update_outside_pair_rejected(self, db):
        l, upd, un = triple("x")
        second_update = Step(StepKind.UPDATE, "x", 1)
        with pytest.raises(LockingError):
            Transaction(
                "T",
                db,
                [l, upd, un, second_update],
                [(l, upd), (upd, un), (un, second_update)],
            )

    def test_unlocked_update_rejected(self, db):
        upd = Step(StepKind.UPDATE, "x")
        with pytest.raises(LockingError):
            Transaction("T", db, [upd], [])

    def test_multiple_updates_inside_pair_allowed(self, db):
        l, upd, un = triple("x")
        upd2 = Step(StepKind.UPDATE, "x", 1)
        tx = Transaction(
            "T", db, [l, upd, upd2, un], [(l, upd), (upd, upd2), (upd2, un)]
        )
        assert len(tx.update_steps("x")) == 2

    def test_validate_locking_false_skips_checks(self, db):
        upd = Step(StepKind.UPDATE, "x")
        tx = Transaction("T", db, [upd], [], validate_locking=False)
        assert len(tx) == 1


class TestStructuralConstraints:
    def test_unknown_entity_rejected(self, db):
        l, upd, un = triple("q")
        with pytest.raises(TransactionError):
            Transaction("T", db, [l, upd, un], [(l, upd), (upd, un)])

    def test_same_site_steps_must_be_ordered(self, db):
        # x and y are both at site 1; leaving them unordered is illegal.
        lx, ux_, unx = triple("x")
        ly, uy_, uny = triple("y")
        with pytest.raises(SiteOrderError):
            Transaction(
                "T",
                db,
                [lx, ux_, unx, ly, uy_, uny],
                [(lx, ux_), (ux_, unx), (ly, uy_), (uy_, uny)],
            )

    def test_site_order_error_names_the_first_unordered_pair(self, db):
        # Steps are listed Uy-first, so the pair scan in insertion order
        # and the chain check in closure order meet different pairs
        # first; the message must stay the insertion-order one.
        lx, ux_, unx = triple("x")
        ly, uy_, uny = triple("y")
        with pytest.raises(SiteOrderError) as caught:
            Transaction(
                "T",
                db,
                [uny, uy_, ly, unx, ux_, lx],
                [(lx, ux_), (ux_, unx), (ly, uy_), (uy_, uny), (lx, uny)],
            )
        assert str(caught.value) == (
            "T: steps Uy and Ux are both at site 1 but are unordered"
        )

    def test_cyclic_precedence_rejected(self, db):
        l, upd, un = triple("x")
        with pytest.raises(TransactionError):
            Transaction(
                "T", db, [l, upd, un], [(l, upd), (upd, un), (un, l)]
            )

    def test_empty_name_rejected(self, db):
        with pytest.raises(TransactionError):
            Transaction("", db, [], [])

    def test_duplicate_steps_rejected(self, db):
        l, upd, un = triple("x")
        with pytest.raises(TransactionError):
            Transaction("T", db, [l, l, upd, un], [])


class TestQueries:
    @pytest.fixture
    def tx(self, db):
        builder = TransactionBuilder("T", db)
        builder.access("x")
        builder.access("z")
        return builder.build()

    def test_lock_unlock_lookup(self, tx):
        assert tx.lock_step("x") == Step(StepKind.LOCK, "x")
        assert tx.unlock_step("z") == Step(StepKind.UNLOCK, "z")
        assert tx.lock_step("nope") is None

    def test_sites_used(self, tx):
        assert tx.sites_used() == {1, 2}

    def test_steps_at_site_in_order(self, tx):
        names = [str(step) for step in tx.steps_at_site(1)]
        assert names == ["Lx", "x", "Ux"]

    def test_is_totally_ordered(self, db):
        builder = TransactionBuilder("T", db)
        builder.access("x")
        assert builder.build().is_totally_ordered()
        builder2 = TransactionBuilder("T", db)
        builder2.access("x")
        builder2.access("z")
        assert not builder2.build().is_totally_ordered()

    def test_linear_extensions_compatible(self, tx):
        extensions = list(tx.linear_extensions(limit=50))
        assert extensions
        assert all(tx.is_linear_extension(ext) for ext in extensions)

    def test_with_precedences_returns_strengthened_copy(self, tx):
        ux = tx.unlock_step("x")
        lz = tx.lock_step("z")
        stronger = tx.with_precedences([(ux, lz)])
        assert stronger.precedes(ux, lz)
        assert tx.concurrent(ux, lz)

    def test_with_precedences_rejects_cycles(self, tx):
        ux = tx.unlock_step("x")
        lz = tx.lock_step("z")
        stronger = tx.with_precedences([(ux, lz)])
        with pytest.raises(TransactionError):
            stronger.with_precedences([(lz, ux)])

    def test_describe_mentions_sites(self, tx):
        text = tx.describe()
        assert "site 1" in text and "site 2" in text

    def test_renamed_shares_the_program(self, tx):
        twin = tx.renamed("T@r2")
        assert (twin.name, tx.name) == ("T@r2", "T")
        assert twin.steps == tx.steps
        assert twin.poset() is tx.poset() and twin.plan() is tx.plan()
        assert twin.canonical_form() == tx.canonical_form()
        with pytest.raises(TransactionError):
            tx.renamed("")


class TestStepPlan:
    def test_ids_arcs_and_predecessor_masks(self, db):
        builder = TransactionBuilder("T", db)
        lx, x, ux = builder.access("x")
        lz, z, uz = builder.access("z")
        builder.precede(ux, lz)
        plan = builder.build().plan()
        assert plan.steps == (lx, x, ux, lz, z, uz)
        assert [plan.index[step] for step in plan.steps] == [0, 1, 2, 3, 4, 5]
        assert plan.arcs == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))
        assert plan.predecessors == (0, 0b1, 0b11, 0b111, 0b1111, 0b11111)
        assert plan.predecessor_ids[3] == (0, 1, 2)

    def test_concurrent_steps_are_not_predecessors(self, db):
        builder = TransactionBuilder("T", db)
        builder.access("x")
        builder.access("z")
        plan = builder.build().plan()
        assert plan.predecessors == (0, 0b1, 0b11, 0, 0b1000, 0b11000)
