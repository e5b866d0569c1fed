"""Temporal-derive event logs: conflicts from item/mode overlap, output
orders from arrival order (the simulator recorder's reading)."""

from typing import List

import pytest

from repro.core.reduction import reduce_to_roots
from repro.exceptions import StreamError
from repro.io.eventlog import Event
from repro.stream import IncrementalChecker


def _txn(root: str, schedule: str, txn: str, ops) -> Event:
    return Event(kind="txn", root=root, schedule=schedule, txn=txn, ops=tuple(ops))


def _access(root: str, schedule: str, txn: str, op: str, item: str, mode: str) -> Event:
    return Event(
        kind="access", root=root, schedule=schedule, txn=txn, op=op, item=item, mode=mode
    )


def _call(root: str, schedule: str, txn: str, op: str) -> Event:
    return Event(kind="call", root=root, schedule=schedule, txn=txn, op=op)


def _temporal(*events: Event) -> List[Event]:
    return [Event(kind="log", derive="temporal"), *events, Event(kind="end")]


def _two_level() -> List[Event]:
    """``T1`` and ``T2`` on S1 call ``t1`` and ``t2`` on S0; both write
    item ``k``, ``t1`` first.  ``t1``'s two accesses share ``k`` but one
    transaction, so they do not conflict."""
    return _temporal(
        _txn("T1", "S1", "T1", ["t1"]),
        _txn("T1", "S0", "t1", ["x", "x2"]),
        Event(kind="begin", root="T1"),
        _call("T1", "S1", "T1", "t1"),
        _access("T1", "S0", "t1", "x", "k", "w"),
        _access("T1", "S0", "t1", "x2", "k", "r"),
        Event(kind="commit", root="T1"),
        _txn("T2", "S1", "T2", ["t2"]),
        _txn("T2", "S0", "t2", ["y"]),
        Event(kind="begin", root="T2"),
        _call("T2", "S1", "T2", "t2"),
        _access("T2", "S0", "t2", "y", "k", "w"),
        Event(kind="commit", root="T2"),
    )


def test_conflicts_and_orders_come_from_the_arrivals():
    checker = IncrementalChecker()
    verdict = checker.ingest_all(_two_level())
    assert not verdict.rejected and verdict.commits == 2
    result = checker.finalize()
    s0 = result.recorded.system.schedule("S0")
    assert s0.conflicts == {frozenset(("x", "y")), frozenset(("x2", "y"))}
    assert ("x", "y") in s0.weak_output and ("x2", "y") in s0.weak_output
    assert result.recorded.executions == {"S1": ["t1", "t2"], "S0": ["x", "x2", "y"]}
    assert result.reduction.serial_order() == ["T1", "T2"]


def test_crossed_writes_reject_at_the_commit_that_closes_them():
    events = _temporal(
        _txn("t1", "S0", "t1", ["x1", "x2"]),
        _txn("t2", "S0", "t2", ["y1", "y2"]),
        Event(kind="begin", root="t1"),
        Event(kind="begin", root="t2"),
        _access("t1", "S0", "t1", "x1", "k1", "w"),
        _access("t2", "S0", "t2", "y1", "k1", "w"),
        _access("t2", "S0", "t2", "y2", "k2", "w"),
        _access("t1", "S0", "t1", "x2", "k2", "w"),
        Event(kind="commit", root="t1"),
        Event(kind="commit", root="t2"),
    )
    checker = IncrementalChecker()
    verdict = checker.ingest_all(events)
    assert verdict.rejected and verdict.rejected_at_commit == 2
    result = checker.finalize()
    assert result.reduction.failure is not None
    batch = reduce_to_roots(result.recorded.system)
    assert result.reduction.failure == batch.failure


def test_every_commit_is_checked_on_the_whole_system():
    """Later arrivals splice into earlier sequences, so no commit of a
    temporal log extends the previous one."""
    checker = IncrementalChecker()
    checker.ingest_all(_two_level())
    assert [
        dict(event.fields)["extended"]
        for event in checker.telemetry.collect()
        if event.kind == "exit" and event.name == "stream.ingest"
    ] == [False, False]


def test_a_committed_operation_without_an_arrival_is_refused():
    events = _temporal(
        _txn("T1", "S0", "T1", ["a", "b"]),
        Event(kind="begin", root="T1"),
        _access("T1", "S0", "T1", "a", "k", "w"),
        Event(kind="commit", root="T1"),
    )
    checker = IncrementalChecker()
    with pytest.raises(StreamError, match=r"root 'T1': operation 'b' has no access"):
        checker.ingest_all(events)


def test_an_aborted_attempts_arrivals_do_not_count():
    events = _temporal(
        _txn("T1", "S0", "T1", ["a"]),
        Event(kind="begin", root="T1"),
        _access("T1", "S0", "T1", "a", "k", "w"),
        Event(kind="abort", root="T1"),
        _txn("T1", "S0", "T1", ["a"]),
        Event(kind="begin", root="T1"),
        Event(kind="commit", root="T1"),
    )
    with pytest.raises(StreamError, match="operation 'a' has no access"):
        IncrementalChecker().ingest_all(events)
