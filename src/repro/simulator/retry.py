"""Pluggable retry policies for aborted composite transactions.

The engine used to hard-code linear backoff (``retry_backoff *
attempt``, uniformly jittered).  This module extracts that decision
into a small policy object with two responsibilities:

* **pacing** — :meth:`RetryPolicy.delay` computes how long an aborted
  root waits before its next attempt;
* **giving up** — :meth:`RetryPolicy.should_retry` decides whether a
  root retries at all, which lets a policy react to *why* the attempt
  died: an abort caused by a crashed component is a different signal
  than losing a protocol race, and a policy can declare some reasons
  non-retryable or give each reason its own budget.

All policies draw jitter from the RNG they are handed (the engine
passes its seeded stream), so runs stay bit-for-bit deterministic.
:class:`LinearBackoff` with default parameters reproduces the legacy
engine behaviour exactly — same formula, same single RNG draw per
retry — so existing seeded tests are unaffected.

Seeding contract
----------------
A policy constructed with ``seed=N`` owns a private
``random.Random(N)`` stream and ignores the RNG argument of
:meth:`RetryPolicy.delay`.  This is how *sharded* consumers (the batch
supervisor, per-cell chaos runs) stay reproducible: each task derives
its policy seed from stable identifiers only — the run's base seed and
the task's submission index, never worker ids or wall-clock — so the
jitter sequence of any one task is the same whether the grid runs
serially, across N processes, or re-run after a kill.  An
*unseeded* policy (``seed=None``, the default) keeps the legacy
behaviour of drawing from the caller's stream, which the simulation
engine relies on for its own bit-for-bit determinism.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, FrozenSet, Iterable, Optional

from repro.exceptions import SimulationError


class RetryPolicy:
    """Decides whether and when an aborted root transaction retries.

    ``non_retryable`` abort reasons make the root give up immediately;
    ``reason_budgets`` caps how many aborts of one reason a root absorbs
    before giving up (independent of the global ``max_attempts``).
    ``seed`` gives the policy a private deterministic jitter stream
    (see the module docstring for the seeding contract).
    """

    name = "abstract"

    def __init__(
        self,
        *,
        non_retryable: Iterable[str] = (),
        reason_budgets: Optional[Dict[str, int]] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.non_retryable: FrozenSet[str] = frozenset(non_retryable)
        self.reason_budgets: Dict[str, int] = dict(reason_budgets or {})
        self.seed = seed
        self._rng: Optional[random.Random] = (
            random.Random(seed) if seed is not None else None
        )

    def _jitter_rng(self, rng: random.Random) -> random.Random:
        """The stream jitter is drawn from: the private seeded stream
        when the policy was seeded, else the caller's."""
        return self._rng if self._rng is not None else rng

    # ------------------------------------------------------------------
    def delay(
        self, attempt: int, rng: random.Random, last_delay: float = 0.0
    ) -> float:
        """Backoff before attempt ``attempt + 1`` (``attempt`` >= 1 is
        the attempt that just aborted).  ``last_delay`` is the delay the
        root waited before the aborted attempt (0.0 on the first abort);
        only decorrelated jitter uses it."""
        raise NotImplementedError

    def should_retry(
        self,
        attempt: int,
        max_attempts: int,
        reason: str,
        reason_count: int,
    ) -> bool:
        """``True`` when the root should attempt again.

        ``attempt`` attempts have run so far, the last aborting with
        ``reason`` (its ``reason_count``-th abort for that reason)."""
        if attempt >= max_attempts:
            return False
        if reason in self.non_retryable:
            return False
        budget = self.reason_budgets.get(reason)
        if budget is not None and reason_count >= budget:
            return False
        return True


class LinearBackoff(RetryPolicy):
    """``U(0, base * attempt) + floor`` — the legacy engine behaviour."""

    name = "linear"

    def __init__(
        self, base: float = 3.0, *, floor: float = 0.01, **kw: Any
    ) -> None:
        super().__init__(**kw)
        self.base = base
        self.floor = floor

    def delay(
        self, attempt: int, rng: random.Random, last_delay: float = 0.0
    ) -> float:
        rng = self._jitter_rng(rng)
        return rng.random() * (self.base * attempt) + self.floor


class ExponentialBackoff(RetryPolicy):
    """``U(0, min(cap, base * 2**(attempt-1))) + floor`` (full jitter).

    ``ExponentialBackoff(seed=N)`` is the *deterministic* full-jitter
    variant: jitter comes from a private ``random.Random(N)`` stream,
    so the delay sequence depends only on the seed and the number of
    draws — the default policy of the chaos layer and the batch
    supervisor, both of which derive ``N`` from (base seed, task
    index) to keep sharded and re-run grids reproducible.
    """

    name = "exponential"

    def __init__(
        self,
        base: float = 1.0,
        *,
        cap: float = 60.0,
        floor: float = 0.01,
        **kw: Any,
    ) -> None:
        super().__init__(**kw)
        self.base = base
        self.cap = cap
        self.floor = floor

    def delay(
        self, attempt: int, rng: random.Random, last_delay: float = 0.0
    ) -> float:
        rng = self._jitter_rng(rng)
        ceiling = min(self.cap, self.base * (2.0 ** (attempt - 1)))
        return rng.random() * ceiling + self.floor


class DecorrelatedJitterBackoff(RetryPolicy):
    """``min(cap, U(base, 3 * max(last_delay, base)))`` — the AWS
    "decorrelated jitter" scheme: each delay is drawn relative to the
    previous one, which spreads synchronized retry storms apart faster
    than independent jitter."""

    name = "decorrelated-jitter"

    def __init__(
        self, base: float = 1.0, *, cap: float = 60.0, **kw: Any
    ) -> None:
        super().__init__(**kw)
        self.base = base
        self.cap = cap

    def delay(
        self, attempt: int, rng: random.Random, last_delay: float = 0.0
    ) -> float:
        rng = self._jitter_rng(rng)
        previous = max(last_delay, self.base)
        return min(self.cap, rng.uniform(self.base, previous * 3.0))


#: policy id -> factory taking the config's ``retry_backoff`` as base
POLICIES: Dict[str, Callable[..., RetryPolicy]] = {
    LinearBackoff.name: LinearBackoff,
    ExponentialBackoff.name: ExponentialBackoff,
    DecorrelatedJitterBackoff.name: DecorrelatedJitterBackoff,
}


def make_retry_policy(
    spec: "str | RetryPolicy", *, base: float = 3.0, **kw: Any
) -> RetryPolicy:
    """Resolve a policy: an instance passes through, a name is
    instantiated with ``base`` (the config's ``retry_backoff``).
    Extra keywords (``seed``, ``non_retryable``, ...) are forwarded to
    the policy constructor."""
    if isinstance(spec, RetryPolicy):
        return spec
    try:
        factory = POLICIES[spec]
    except KeyError:
        raise SimulationError(
            f"unknown retry policy {spec!r}; choose from {sorted(POLICIES)}"
        ) from None
    return factory(base, **kw)
