"""A concurrent safety-vetting admission service.

The paper's practical payoff is an ``O(n^2)`` *decision procedure*
(Theorem 2 / Proposition 2): before letting transactions loose on a
distributed database, statically vet that the system they form is safe.
This package turns the offline deciders of :mod:`repro.core` into a
long-running service:

* :mod:`~repro.service.fingerprint` — content-hashes of a transaction's
  canonical lock/unlock poset, so structurally identical transactions
  share verdicts;
* :mod:`~repro.service.cache` — a bounded LRU cache of pair verdicts
  keyed by fingerprint pairs, with hit/miss counters;
* :mod:`~repro.service.registry` — the incremental admission state
  machine: admit / reject-with-certificate / evict, vetting only the
  new-vs-existing pairs plus the interaction cycles through the
  newcomer (Proposition 2), inline and under an optional
  per-admission timeout;
* :mod:`~repro.service.stats` — structured counters and per-phase wall
  time.

The CLI front ends are ``repro vet FILE...`` (batch admission through
one registry) and ``repro serve`` (line-oriented request loop); see
``docs/service.md``.
"""

from .cache import CachedVerdict, VerdictCache
from .fingerprint import fingerprint_of, pair_key
from .registry import AdmissionDecision, AdmissionRegistry
from .stats import ServiceStats

__all__ = [
    "AdmissionDecision",
    "AdmissionRegistry",
    "CachedVerdict",
    "ServiceStats",
    "VerdictCache",
    "fingerprint_of",
    "pair_key",
]
