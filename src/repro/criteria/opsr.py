"""Order-preserving (conflict) serializability — OPSR [BBG89].

OPSR strengthens serializability per schedule: the equivalent serial
order must also preserve the *temporal* order of non-overlapping
transactions.  Like LLSR it permits independent schedulers in a stack,
at the price of preserving orders that semantic knowledge would allow to
flip; the paper shows it is a proper subset of SCC.

Because temporal extents are not part of the Def.-3 schedule object
(which records committed *orders*, not wall-clock layout), the OPSR
test takes the recorded per-schedule execution sequences alongside the
system — exactly what the workload generator and the simulator emit.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.core.orders import Relation
from repro.core.system import CompositeSystem


def schedule_precedence(
    system: CompositeSystem, schedule_name: str, execution: Sequence[str]
) -> Relation:
    """``T → T'`` when ``T``'s last operation precedes ``T'``'s first in
    the recorded execution of one schedule (temporal non-overlap)."""
    schedule = system.schedule(schedule_name)
    position = {op: i for i, op in enumerate(execution)}
    first: dict = {}
    last: dict = {}
    for op in execution:
        txn = schedule.transaction_of(op)
        first.setdefault(txn, position[op])
        last[txn] = position[op]
    graph = Relation(elements=schedule.transaction_names)
    names = list(first)
    for a in names:
        for b in names:
            if a != b and last[a] < first[b]:
                graph.add(a, b)
    return graph


def is_schedule_opsr(
    system: CompositeSystem, schedule_name: str, execution: Sequence[str]
) -> bool:
    """One schedule is OPSR when serialization ∪ temporal precedence ∪
    input orders is acyclic."""
    schedule = system.schedule(schedule_name)
    combined = schedule.serialization_order().union(
        schedule_precedence(system, schedule_name, execution),
        schedule.weak_input,
    )
    return combined.is_acyclic()


def is_opsr(
    system: CompositeSystem, executions: Mapping[str, Sequence[str]]
) -> bool:
    """OPSR of a recorded composite execution: every schedule is OPSR.

    ``executions`` maps each schedule name to the temporal sequence of
    its operations.  Schedules without a recorded sequence (pure-order
    inputs) fall back to plain conflict consistency, which OPSR
    degenerates to when nothing overlaps.
    """
    for name, schedule in system.schedules.items():
        execution = executions.get(name)
        if execution is None:
            if not schedule.is_conflict_consistent():
                return False
        elif not is_schedule_opsr(system, name, execution):
            return False
    return True


def opsr_violations(
    system: CompositeSystem, executions: Mapping[str, Sequence[str]]
) -> List[str]:
    """Schedules whose recorded execution breaks order preservation."""
    bad = []
    for name in system.schedules:
        execution = executions.get(name)
        if execution is not None and not is_schedule_opsr(
            system, name, execution
        ):
            bad.append(name)
    return bad
