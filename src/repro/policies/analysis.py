"""Locking-policy analysis — the closing observations of §6.

    "In distributed databases, a locking policy (i.e., a class of
    distributed locked transactions) can be considered as a centralized
    locking policy, by taking the union of all the transactions,
    considered as sets of totally ordered transactions.  It follows that
    a policy is correct iff its centralized image is."

A *policy* here is, operationally, a finite sample of distributed
transactions the policy admits.  :func:`centralized_image` maps the
sample to the set of totally ordered transactions it induces;
:func:`policy_sample_is_safe` checks safety of the sample as a
transaction system, and :func:`centralized_image_is_safe` checks the
centralized image instead — the two verdicts must agree (tested), which
is this module's executable rendering of the §6 equivalence.
"""

from __future__ import annotations

from itertools import combinations

from ..core.dgraph import d_graph_of_total_orders
from ..core.safety import decide_safety
from ..core.schedule import TransactionSystem
from ..core.step import Step
from ..core.transaction import Transaction
from ..graphs import is_strongly_connected


def centralized_image(
    transactions: list[Transaction], *, per_transaction_limit: int | None = None
) -> list[list[Step]]:
    """All total orders induced by the sample ("the union of all the
    transactions, considered as sets of totally ordered transactions")."""
    image: list[list[Step]] = []
    for transaction in transactions:
        image.extend(
            transaction.linear_extensions(limit=per_transaction_limit)
        )
    return image


def total_order_pair_is_safe(t1: list[Step], t2: list[Step]) -> bool:
    """Centralized two-transaction safety: ``D(t1, t2)`` strongly
    connected (the single-site case of Theorem 2)."""
    return is_strongly_connected(d_graph_of_total_orders(t1, t2))


def centralized_image_is_safe(
    transactions: list[Transaction],
    *,
    per_transaction_limit: int | None = None,
) -> bool:
    """Pairwise safety over the centralized image.

    Quantifies over unordered pairs of (possibly equal-origin) total
    orders, which by Lemma 1 is exactly pairwise safety of the
    distributed sample.
    """
    image = centralized_image(
        transactions, per_transaction_limit=per_transaction_limit
    )
    for index, t1 in enumerate(image):
        for t2 in image[index + 1 :]:
            if not total_order_pair_is_safe(t1, t2):
                return False
    return True


def policy_sample_is_safe(transactions: list[Transaction]) -> bool:
    """Pairwise safety of the distributed sample, decided exactly.

    A policy is a *class*: two concurrent instances of the same admitted
    transaction are possible, so self-pairs (a transaction against a
    renamed clone of itself) are checked too — mirroring the fact that
    the centralized image quantifies over all pairs of total orders,
    including two extensions of one transaction.
    """
    for first, second in combinations(transactions, 2):
        verdict = decide_safety(
            TransactionSystem([first, second]), want_certificate=False
        )
        if not verdict.safe:
            return False
    for tx in transactions:
        verdict = decide_safety(
            TransactionSystem([tx, tx.renamed(tx.name + "'")]),
            want_certificate=False,
        )
        if not verdict.safe:
            return False
    return True
