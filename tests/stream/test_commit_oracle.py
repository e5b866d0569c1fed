"""Every live commit agrees with the definitions, not only the last one.

A commit run extends the previous commit's fronts instead of rebuilding
them, so a slip in that extension would show at some commit of a stream
long before (or without) changing the final verdict.  At *every* commit
of generated 8-root logs this pins two things:

* :func:`tests.core.front_oracle.disagreements` between the committed
  prefix and the checker's live result is empty — every live front
  equals, as sets, the front the oracle computes from the definitions;
* the live status is the verdict of a plain batch reduction of the
  prefix;
* at a commit that extended the previous one, every ``F**`` witness of
  the live result is valid by Def. 16 step 1 and equals the one
  rebuilt from scratch on its front.

Two hand-written logs cover the commits that must not extend: a later
root that raises a schedule's level, and a late ``conflict`` between
two committed operations, which opens a Def.-10.2 gate on old pairs.
"""

from typing import List

import pytest

from repro.core.calculation import (
    calculation_constraints,
    grouping_for_level,
    witness_sequence,
)
from repro.core.front import Front
from repro.core.reduction import ReductionEngine, reduce_to_roots
from repro.io.eventlog import Event, events_from_recorded, interleave_by_commit
from repro.stream import IncrementalChecker
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import (
    join_topology,
    random_dag_topology,
    stack_topology,
    tree_topology,
)

from tests.core.front_oracle import disagreements
from tests.core.golden import GOLDEN_SPECS
from tests.core.test_calculation import _assert_valid_witness

_SPECS = [
    ("stack3", lambda: stack_topology(3)),
    ("tree3x2", lambda: tree_topology(3, 2)),
    ("dag4x3", lambda: random_dag_topology(4, 3, seed=0)),
    ("join6", lambda: join_topology(6)),
]


def _extended(checker: IncrementalChecker) -> List[bool]:
    """Per commit run, whether it extended the previous commit's."""
    return [
        dict(event.fields)["extended"]
        for event in checker.telemetry.collect()
        if event.kind == "exit" and event.name == "stream.ingest"
    ]


def _replay(events: List[Event]) -> IncrementalChecker:
    """Ingest ``events``, checking the live result at every commit the
    checker re-checked (after a rejection it checks none: sticky)."""
    checker = IncrementalChecker()
    for event in events:
        checked = not checker.verdict().rejected
        verdict = checker.ingest(event)
        if event.kind != "commit" or not checked:
            continue
        prefix = checker.assembler.build()
        assert prefix is not None
        assert disagreements(prefix.system, checker.last_result) == []
        batch = reduce_to_roots(prefix.system)
        assert verdict.rejected == (batch.failure is not None)
        if _extended(checker)[-1]:
            _assert_witnesses(prefix.system, checker.last_result)
    return checker


def _assert_witnesses(system, result) -> None:
    """Each witness of a commit result is an F** of its front, and the
    one a from-scratch step on that front would give."""
    for front, witness in zip(result.fronts, result.witnesses):
        _assert_valid_witness(system, front, witness)
        grouping = grouping_for_level(system, front.nodes, front.level + 1)
        constraints = calculation_constraints(system, front, grouping)
        assert witness == witness_sequence(constraints, grouping, front.nodes)


@pytest.mark.parametrize("layout", ["serial", "random"])
@pytest.mark.parametrize("name, topology", _SPECS, ids=[n for n, _ in _SPECS])
def test_every_commit_agrees_with_the_oracle(name, topology, layout):
    extended = 0
    for seed in range(3):
        recorded = generate(
            topology(),
            WorkloadConfig(
                seed=seed,
                roots=8,
                conflict_probability=0.05 + 0.05 * seed,
                layout=layout,
            ),
        )
        checker = _replay(interleave_by_commit(events_from_recorded(recorded)))
        extended += sum(_extended(checker))
    assert extended > 0, "no commit extended the previous one"


def _log(*events: Event) -> List[Event]:
    return [Event(kind="log", derive="declared"), *events, Event(kind="end")]


def _root(root: str, *txns: Event) -> List[Event]:
    return [*txns, Event(kind="begin", root=root), Event(kind="commit", root=root)]


def _txn(root: str, schedule: str, txn: str, ops) -> Event:
    return Event(kind="txn", root=root, schedule=schedule, txn=txn, ops=tuple(ops))


def _conflict(schedule: str, a: str, b: str) -> Event:
    return Event(kind="conflict", schedule=schedule, a=a, b=b)


def _order(schedule: str, kind: str, a: str, b: str) -> Event:
    return Event(kind="order", schedule=schedule, order_kind=kind, a=a, b=b)


def test_a_root_that_raises_a_schedules_level_is_checked_whole():
    """R2 makes S1 invoke S0, so S1 climbs from level 1 to 2 and the
    leaf ``a`` is grouped a level later than before."""
    events = _log(
        _conflict("S1", "a", "c"),
        _order("S1", "weak_output", "a", "c"),
        *_root("R1", _txn("R1", "S1", "T1", ["a"])),
        *_root("R2", _txn("R2", "S1", "T2", ["c", "w"]), _txn("R2", "S0", "w", ["x"])),
        *_root("R3", _txn("R3", "S1", "T3", ["d"])),
    )
    checker = _replay(events)
    assert checker.last_result.system.level_of("S1") == 2
    assert _extended(checker) == [False, False, True]


def test_a_late_conflict_between_committed_operations_is_checked_whole():
    """``t1 < t2`` is observed at level 1; the pair commutes at S1 until
    the late conflict declares otherwise, after which Def. 10.2 pulls
    it up to ``T1 < T2``."""
    events = _log(
        _conflict("S0", "x", "y"),
        _order("S0", "weak_output", "x", "y"),
        _order("S1", "weak_output", "t1", "t2"),
        *_root("R1", _txn("R1", "S1", "T1", ["t1"]), _txn("R1", "S0", "t1", ["x"])),
        *_root("R2", _txn("R2", "S1", "T2", ["t2"]), _txn("R2", "S0", "t2", ["y"])),
        _conflict("S1", "t1", "t2"),
        *_root("R3", _txn("R3", "S1", "T3", ["t3"]), _txn("R3", "S0", "t3", ["z"])),
    )
    checker = _replay(events)
    assert ("T1", "T2") in checker.last_result.fronts[2].observed
    assert _extended(checker) == [False, True, False]


@pytest.mark.parametrize(
    "name, topology, cfg", GOLDEN_SPECS, ids=[n for n, _, _ in GOLDEN_SPECS]
)
def test_an_empty_extension_gives_the_base_back(name, topology, cfg):
    """Extending a result on the same system gains nothing: every front
    comes back pair for pair, and the report is the same."""
    system = generate(topology(), WorkloadConfig(**cfg)).system
    base = ReductionEngine(system).run()
    front0 = base.fronts[0]
    level0 = Front.level0(front0.nodes, front0.observed.copy())
    extended = ReductionEngine(system).run(level0=level0, base=base)
    assert extended.report() == base.report()
    assert len(extended.fronts) == len(base.fronts)
    for mine, theirs in zip(extended.fronts, base.fronts):
        assert mine.nodes == theirs.nodes
        for relation in ("observed", "input_weak", "input_strong"):
            assert list(getattr(mine, relation).pairs()) == list(
                getattr(theirs, relation).pairs()
            )
