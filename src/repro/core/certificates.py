"""Failure-certificate validation.

When the reduction rejects an execution it returns a witness cycle.
This module re-derives, *from the model alone*, that every edge of that
cycle is a forced constraint — an observed dependency between
generalized-conflicting nodes, an input-order requirement, or an
intra-transaction order.  A validated certificate proves (Theorem 1,
only-if direction) that no serial front can contain the execution: a
serial front's total order would have to embed every edge of the cycle.

The T1 benchmark runs this on every rejected instance; a certificate
that fails to validate would indicate a checker bug, so the validator is
deliberately implemented against the *definitions* (front relations)
rather than by replaying the engine's constraint construction.

The dual direction lives here too: :func:`replay_refutation` *replays*
a statically constructed refutation witness through the real Def.-16
engine (stopping at the witness level), so a CERTIFIED_UNSAFE verdict
of :mod:`repro.lint.safety` is always backed by an actual rejection —
the refuter is sound by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.calculation import grouping_for_level
from repro.core.front import Front
from repro.core.observed import ObservedOrderOptions
from repro.core.reduction import ReductionEngine, ReductionResult
from repro.core.system import CompositeSystem
from repro.exceptions import ReductionError


@dataclass
class CertificateCheck:
    """Outcome of validating one rejection certificate."""

    valid: bool
    reasons: List[str]
    edges: List[Tuple[str, str, str]]  # (from, to, justification)

    def __bool__(self) -> bool:
        return self.valid


def _justify_edge(
    system: CompositeSystem,
    front: Front,
    grouping,
    a: str,
    b: str,
) -> str:
    """Return a human-readable justification for the constraint edge
    ``a -> b``, or an empty string when the edge is not forced."""
    if (a, b) in front.observed:
        return "observed order"
    if (a, b) in front.input_strong:
        return "strong input order"
    if (a, b) in front.input_weak:
        return "weak input order"
    parent_a = grouping.representative.get(a, a)
    if parent_a != a and parent_a == grouping.representative.get(b, b):
        schedule = system.schedule(system.schedule_of_transaction(parent_a))
        txn = schedule.transactions[parent_a]
        if txn.weakly_ordered(a, b):
            return f"intra-transaction order of {parent_a}"
    return ""


def replay_refutation(
    system: CompositeSystem,
    level: int,
    options: Optional[ObservedOrderOptions] = None,
) -> ReductionResult:
    """Replay the recorded execution through the reduction up to
    ``level`` (the static refuter's candidate level).

    The call never consults the static prover (no recursion): it is the
    ground truth the refuter validates its witness against.  A
    ``failure`` on the returned result proves the recorded execution is
    not Comp-C (a prefix rejection is a rejection — the full reduction
    stops at the same level); a clean result proves nothing, and the
    caller must keep the cycle as a warning.
    """
    engine = ReductionEngine(
        system,
        options if options is not None else ObservedOrderOptions(),
    )
    return engine.run(stop_level=min(level, system.order))


def validate_failure_certificate(result: ReductionResult) -> CertificateCheck:
    """Validate the witness cycle of a failed reduction edge by edge."""
    failure = result.failure
    if failure is None:
        raise ReductionError("the reduction succeeded; nothing to validate")
    if not result.fronts:
        return CertificateCheck(False, ["no fronts recorded"], [])

    system = result.system
    front = result.fronts[-1]
    reasons: List[str] = []
    edges: List[Tuple[str, str, str]] = []

    if failure.stage == "cc":
        # The cycle lives in the rejected candidate front's combined order
        # (the engine attaches the candidate precisely for this purpose).
        relation_front = (
            failure.rejected_front if failure.rejected_front is not None else front
        )
        combined = relation_front.combined_order()
        for a, b in zip(failure.cycle, failure.cycle[1:]):
            if (a, b) in combined:
                kind = (
                    "observed order"
                    if (a, b) in relation_front.observed
                    else "input order"
                )
                edges.append((a, b, kind))
            else:
                reasons.append(f"edge {a} -> {b} is not in the front relation")
        return CertificateCheck(not reasons, reasons, edges)

    # stage == "calculation": the cycle mixes nodes and group representatives
    # of the front preceding the failed level.
    grouping = grouping_for_level(system, front.nodes, failure.level)

    def expandable(node: str) -> List[str]:
        return grouping.groups.get(node, [node])

    for qa, qb in zip(failure.cycle, failure.cycle[1:]):
        justification = ""
        witness = ("", "")
        for a in expandable(qa):
            for b in expandable(qb):
                justification = _justify_edge(system, front, grouping, a, b)
                if justification:
                    witness = (a, b)
                    break
            if justification:
                break
        if justification:
            edges.append((witness[0], witness[1], justification))
        else:
            reasons.append(
                f"quotient edge {qa} -> {qb} has no forced witness pair"
            )
    return CertificateCheck(not reasons, reasons, edges)
