"""Incremental assembly is invisible: after every commit of every
workload in the 500-system sweep, the persistent-builder path
(:meth:`~repro.stream.StreamAssembler.build_incremental`) serializes
to the same ``dumps`` document as a from-scratch replay
(:meth:`~repro.stream.StreamAssembler.build`), and in-order logs never
pay a rebuild.  The two need not list the schedules in the same order
(pinned by one live-layout case).

The persistent builder grows its last build (each changed schedule by
:meth:`~repro.core.schedule.Schedule.extended`, the system by
:meth:`~repro.core.system.CompositeSystem.extended`), so on the live
layout ``watch`` sees (:func:`~repro.io.eventlog.interleave_by_commit`)
every commit is compared beyond ``dumps``: node tuples, levels, parents
and every order's element order and pairs; and Def. 4.7, which a
propagating build no longer re-checks, holds at every commit.
Hand-written logs pin each boundary of the extension against the full
replay and :mod:`tests.core.front_oracle`.
"""

import random
from typing import List

import pytest

from repro.core.builder import SystemBuilder
from repro.core.system import CompositeSystem
from repro.core.reduction import reduce_to_roots
from repro.exceptions import CycleError, ModelError, ScheduleAxiomError
from repro.io.eventlog import Event, events_from_recorded, interleave_by_commit
from repro.io.text_format import dumps
from repro.stream import IncrementalChecker, StreamAssembler
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import (
    fork_topology,
    join_topology,
    random_dag_topology,
    stack_topology,
    tree_topology,
)

from tests.core.front_oracle import disagreements

_SPECS = [
    stack_topology(2),
    stack_topology(3),
    fork_topology(3),
    join_topology(2),
    tree_topology(2, 2),
]


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.name)
def test_incremental_build_matches_full_replay(spec):
    """The sweep mirrors the streaming-equivalence population: 100
    seeds per topology, every committed prefix compared byte-for-byte
    between the incremental and the full build."""
    compared = 0
    for seed in range(100):
        config = WorkloadConfig(
            seed=seed,
            roots=3,
            conflict_probability=(seed % 4) * 0.1,
            intra_order_probability=0.2 if seed % 5 == 0 else 0.0,
        )
        recorded = generate(spec, config)
        assembler = StreamAssembler()
        for event in events_from_recorded(recorded):
            delta = assembler.apply(event)
            if delta is None:
                continue
            incremental = assembler.build_incremental()
            full = assembler.build()
            assert incremental is not None and full is not None
            assert dumps(incremental) == dumps(full), (spec.name, seed)
            compared += 1
        # event logs list commits in log order, so the persistent
        # builder only rebuilds where roots *share* a schedule and
        # the declaration order genuinely disagrees with the commit
        # order (join topologies; at most one rebuild per run)
        limit = 1 if "join" in spec.name else 0
        assert assembler.rebuilds <= limit, (spec.name, seed)
    assert compared > 100  # the sweep really exercised the comparison


def test_grown_schedule_order_differs_but_not_the_document():
    """On the live layout the persistent builder can list the schedules
    in another order than the full replay: stack3, 8 roots, serial,
    seed 0 grows ``L2, L1, L3`` while the replay (and the saved
    document) lists ``L3, L2, L1`` from the second commit on.  The
    ``dumps`` document, the fronts and the verdict are the same at
    every commit."""
    recorded = generate(
        stack_topology(3), WorkloadConfig(seed=0, roots=8, layout="serial")
    )
    assembler = StreamAssembler()
    orders = []
    for event in interleave_by_commit(events_from_recorded(recorded)):
        if assembler.apply(event) is None:
            continue
        grown, full = assembler.build_incremental(), assembler.build()
        orders.append((list(grown.system.schedules), list(full.system.schedules)))
        assert dumps(grown) == dumps(full)
        ours, theirs = reduce_to_roots(grown.system), reduce_to_roots(full.system)
        assert ours.succeeded == theirs.succeeded
        assert ours.narrative() == theirs.narrative()
    assert len(orders) == 8
    assert orders[1:] == [(["L2", "L1", "L3"], ["L3", "L2", "L1"])] * 7


def test_out_of_order_commit_pays_one_rebuild():
    """A commit arriving for an *earlier* transaction than the builder
    already applied for that schedule forces exactly one full rebuild
    (the watermark guard), after which increments resume."""
    recorded = generate(
        stack_topology(2),
        WorkloadConfig(seed=0, roots=3, conflict_probability=0.2),
    )
    events = events_from_recorded(recorded)
    commits = [
        i for i, e in enumerate(events) if e.kind == "commit"
    ]
    if len(commits) < 2:
        pytest.skip("workload committed fewer than two roots")
    # swap the last two commit events (with their preceding blocks
    # intact this still assembles: roots are independent)
    a, b = commits[-2], commits[-1]
    events[a], events[b] = events[b], events[a]
    assembler = StreamAssembler()
    last = None
    for event in events:
        if assembler.apply(event) is not None:
            last = assembler.build_incremental()
    assert last is not None
    assert dumps(last) == dumps(assembler.build())
    assert assembler.rebuilds >= 1


# ----------------------------------------------------------------------
# the live layout
# ----------------------------------------------------------------------
_ORDERS = ("weak_input", "strong_input", "weak_output", "strong_output")


def _assert_same_system(grown, full) -> None:
    """``grown`` is ``full`` element for element, not only in ``dumps``."""
    assert grown.leaves == full.leaves
    assert grown.roots == full.roots
    assert grown.internal_nodes == full.internal_nodes
    assert list(grown.levels.items()) == list(full.levels.items())
    assert list(grown.all_nodes()) == list(full.all_nodes())
    for node in full.all_nodes():
        assert grown.parent(node) == full.parent(node)
        assert grown.schedule_of_operation(node) == full.schedule_of_operation(node)
    ours, theirs = grown.invocation_graph, full.invocation_graph
    assert ours.elements == theirs.elements
    assert list(ours.pairs()) == list(theirs.pairs())
    assert list(grown.schedules) == list(full.schedules)
    for name, schedule in full.schedules.items():
        mine = grown.schedule(name)
        assert mine.transaction_names == schedule.transaction_names
        assert mine.operations == schedule.operations
        assert mine.conflicts == schedule.conflicts
        for order in _ORDERS:
            ours, theirs = getattr(mine, order), getattr(schedule, order)
            assert ours.elements == theirs.elements, (name, order)
            assert list(ours.pairs()) == list(theirs.pairs()), (name, order)
    assert list(grown.iter_order_propagation_violations()) == []


def _replayed_in(assembler: StreamAssembler, schedules) -> SystemBuilder:
    """A fresh builder fed every activated declaration in declaration
    order, its schedules declared first in the order of ``schedules``."""
    builder = SystemBuilder()
    for name in schedules:
        builder.schedule(name)
    for _, event in assembler._activated():
        assembler._apply_decl(builder, event)
    return builder


def _assert_each_commit(assembler: StreamAssembler, events: List[Event]) -> int:
    """Apply ``events``; after every commit the grown build is the full
    replay.  Returns the number of commits.

    The persistent builder meets a schedule when one of its
    declarations first activates, the full replay at its first
    activated declaration, so the two may list schedules, and the
    internal nodes grouped by schedule, in different orders (``dumps``
    sorts both away).  Element for element, the grown build is
    therefore compared with a fresh construction of the same
    declarations in its own schedule order, and with the full replay
    up to that order."""
    commits = 0
    for event in events:
        if assembler.apply(event) is None:
            continue
        grown, full = assembler.build_incremental(), assembler.build()
        assert grown is not None and full is not None
        fresh = _replayed_in(assembler, grown.system.schedules)
        _assert_same_system(grown.system, fresh.build(validate=False))
        replayed = _replayed_in(assembler, full.system.schedules)
        _assert_same_system(replayed.build(validate=False), full.system)
        assert set(grown.system.internal_nodes) == set(full.system.internal_nodes)
        assert grown.system.levels == full.system.levels
        assert grown.executions == full.executions
        assert dumps(grown) == dumps(full)
        commits += 1
    return commits


_LIVE = [
    ("stack3", lambda: stack_topology(3)),
    ("tree3x2", lambda: tree_topology(3, 2)),
    ("dag4x3", lambda: random_dag_topology(4, 3, seed=0)),
    ("join6", lambda: join_topology(6)),
]


@pytest.mark.parametrize("layout", ["serial", "random"])
@pytest.mark.parametrize("name, topology", _LIVE, ids=[n for n, _ in _LIVE])
def test_live_layout_grows_into_the_full_replay(name, topology, layout):
    for seed in range(4):
        recorded = generate(
            topology(),
            WorkloadConfig(
                seed=seed,
                roots=8,
                conflict_probability=0.05 * (seed + 1),
                intra_order_probability=0.2 if seed % 2 else 0.0,
                layout=layout,
            ),
        )
        assembler = StreamAssembler()
        events = interleave_by_commit(events_from_recorded(recorded))
        assert _assert_each_commit(assembler, events) == 8
        assert assembler.rebuilds == 0


# ----------------------------------------------------------------------
# each boundary of the extension, by hand
# ----------------------------------------------------------------------
def _log(*events: Event) -> List[Event]:
    return [Event(kind="log", derive="declared"), *events, Event(kind="end")]


def _root(root: str, *txns: Event) -> List[Event]:
    return [*txns, Event(kind="begin", root=root), Event(kind="commit", root=root)]


def _txn(root: str, schedule: str, txn: str, ops) -> Event:
    return Event(kind="txn", root=root, schedule=schedule, txn=txn, ops=tuple(ops))


def _conflict(schedule: str, a: str, b: str) -> Event:
    return Event(kind="conflict", schedule=schedule, a=a, b=b)


def _order(schedule: str, a: str, b: str, kind: str = "weak_output") -> Event:
    return Event(kind="order", schedule=schedule, order_kind=kind, a=a, b=b)


def _access(root: str, schedule: str, txn: str, op: str) -> Event:
    return Event(
        kind="access", root=root, schedule=schedule, txn=txn, op=op, item="k", mode="w"
    )


def _replay(events: List[Event]) -> StreamAssembler:
    """Each commit's grown build is the full replay, and the live
    checker's fronts are the oracle's."""
    _assert_each_commit(StreamAssembler(), events)
    checker = IncrementalChecker()
    for event in events:
        verdict = checker.ingest(event)
        if event.kind == "commit" and not checker.verdict().rejected:
            full = checker.assembler.build()
            assert full is not None
            assert disagreements(full.system, checker.last_result) == []
            batch = reduce_to_roots(full.system)
            assert verdict.rejected == (batch.failure is not None)
    return checker.assembler


def _two_level(root: str, top: str, op: str, leaf: str, bottom: str = "S0") -> List[Event]:
    """Root transaction ``root`` of ``top`` calls ``op``, a transaction
    of ``bottom`` with the single operation ``leaf``."""
    return _root(root, _txn(root, top, root, [op]), _txn(root, bottom, op, [leaf]))


def test_a_schedule_first_declared_mid_log():
    """S2 appears with the third root: the system gains a schedule, an
    invocation edge and its levels mid-log."""
    assembler = _replay(
        _log(
            _conflict("S0", "x1", "x2"),
            _order("S0", "x1", "x2"),
            _conflict("S2", "y3", "y4"),
            _order("S2", "y4", "y3"),
            *_two_level("R1", "S1", "a1", "x1"),
            *_two_level("R2", "S1", "a2", "x2"),
            *_root(
                "R3",
                _txn("R3", "S1", "R3", ["a3", "b3"]),
                _txn("R3", "S0", "a3", ["x3"]),
                _txn("R3", "S2", "b3", ["y3"]),
            ),
            *_two_level("R4", "S1", "b4", "y4", bottom="S2"),
        )
    )
    grown = assembler.build_incremental()
    assert grown is not None
    assert list(grown.system.schedules) == ["S1", "S0", "S2"]
    assert grown.system.level_of("S2") == 1 and grown.system.level_of("S1") == 2


def test_a_root_that_a_later_root_invokes():
    """R2's transaction calls the committed root R1, which stops being a
    root: the system re-sorts the roots and internal nodes of S1."""
    assembler = _replay(
        _log(
            *_two_level("R1", "S1", "a1", "x1"),
            *_root("R2", _txn("R2", "S2", "R2", ["R1", "b2"]), _txn("R2", "S1", "b2", ["c2"])),
        )
    )
    grown = assembler.build_incremental()
    assert grown is not None
    assert grown.system.roots == ("R2",)
    assert grown.system.parent("R1") == "R2"


def test_an_order_between_committed_operations():
    """The caller order ``t1 < t2`` arrives after both roots committed:
    it activates at the next commit, grows S1's output between two old
    operations, and reaches S0's input between two old transactions,
    so axiom 1 is decided again on the old conflict of S0."""
    events = _log(
        _conflict("S0", "x", "y"),
        _order("S0", "x", "y"),
        *_two_level("R1", "S1", "t1", "x"),
        *_two_level("R2", "S1", "t2", "y"),
        _order("S1", "t1", "t2"),
        *_two_level("R3", "S1", "t3", "z"),
    )
    assembler = _replay(events)
    assert ("t1", "t2") in assembler.build().system.schedule("S0").weak_input


def test_an_order_between_committed_operations_that_breaks_axiom_1():
    """The same late order, reversed, breaks axiom 1b on S0: the grown
    build raises the violation a first build raises."""
    builder = SystemBuilder()
    builder.conflict("S0", "x", "y").weak_output("S0", "x", "y")
    for root, op, leaf in (("R1", "t1", "x"), ("R2", "t2", "y")):
        builder.transaction(root, "S1", [op]).transaction(op, "S0", [leaf])
    builder.build()
    builder.weak_output("S1", "t2", "t1")
    fresh = SystemBuilder()
    fresh.conflict("S0", "x", "y").weak_output("S0", "x", "y")
    for root, op, leaf in (("R1", "t1", "x"), ("R2", "t2", "y")):
        fresh.transaction(root, "S1", [op]).transaction(op, "S0", [leaf])
    fresh.weak_output("S1", "t2", "t1")
    errors = []
    for b in (builder, fresh):
        with pytest.raises(ScheduleAxiomError) as caught:
            b.build()
        errors.append((caught.value.axiom, str(caught.value)))
    assert errors[0] == errors[1] and errors[0][0] == "1b"


def test_a_cyclic_output_order_surfacing_mid_log():
    """R3's orders close ``x < y < z < x`` through R2's older pair: the
    grown schedule falls back to the full construction, which names the
    declared path (CTX115) exactly as a first build does."""
    assembler = StreamAssembler()
    events = _log(
        _order("S0", "x", "y"),
        _order("S0", "y", "z"),
        _order("S0", "z", "x"),
        *_root("R1", _txn("R1", "S0", "R1", ["x"])),
        *_root("R2", _txn("R2", "S0", "R2", ["y"])),
        *_root("R3", _txn("R3", "S0", "R3", ["z"])),
    )
    raised = []
    for event in events:
        if assembler.apply(event) is None:
            continue
        if event.root != "R3":
            assert dumps(assembler.build_incremental()) == dumps(assembler.build())
            continue
        for build in (assembler.build_incremental, assembler.build):
            with pytest.raises(CycleError) as caught:
                build()
            error = caught.value
            raised.append((error.code, str(error), error.cycle, error.schedule))
    assert len(raised) == 2 and raised[0] == raised[1]
    assert raised[0][0] == "CTX115"


def test_aborted_and_retried_arrivals_do_not_count():
    """R1's first attempt is aborted and its second discarded by a
    retry; only the third attempt's arrival is an execution, and it
    arrived before R2's, which commits first, so it is merged in ahead
    of it."""
    events = _log(
        _txn("R1", "S0", "R1", ["a"]),
        Event(kind="begin", root="R1"),
        _access("R1", "S0", "R1", "a"),
        Event(kind="abort", root="R1"),
        _txn("R2", "S0", "R2", ["b"]),
        Event(kind="begin", root="R2"),
        Event(kind="begin", root="R1"),
        _txn("R1", "S0", "R1", ["a"]),
        _access("R1", "S0", "R1", "a"),
        Event(kind="begin", root="R1"),
        _txn("R1", "S0", "R1", ["a"]),
        _access("R1", "S0", "R1", "a"),
        _access("R2", "S0", "R2", "b"),
        Event(kind="commit", root="R2"),
        Event(kind="commit", root="R1"),
    )
    assembler = _replay(events)
    assert assembler.executions() == {"S0": ["a", "b"]}
    full = assembler.build()
    assert full is not None and full.executions == {"S0": ["a", "b"]}


# ----------------------------------------------------------------------
# boundaries a stream cannot reach, on the builder
# ----------------------------------------------------------------------
def _fresh(declare) -> SystemBuilder:
    builder = SystemBuilder()
    declare(builder)
    return builder


def test_an_operation_that_later_becomes_a_transaction():
    """A stream declares each transaction under its root before that
    root commits, so only a builder that builds again can turn an
    operation of its last build into a transaction: the caller passes
    on its old pairs to the new callee, whose schedule appears."""

    def first(b: SystemBuilder) -> None:
        b.transaction("T1", "S1", ["a", "b"], weak_order=[("a", "b")])
        b.conflict("S1", "a", "b")

    def then(b: SystemBuilder) -> None:
        b.transaction("a", "S0", ["x"]).transaction("b", "S0", ["y"])

    builder = _fresh(first)
    builder.build()
    then(builder)
    grown = builder.build()
    full = _fresh(lambda b: (first(b), then(b))).build()
    _assert_same_system(grown, full)
    assert ("a", "b") in grown.schedule("S0").weak_input
    assert disagreements(full, reduce_to_roots(grown)) == []


def test_a_recorded_sequence_recorded_again():
    """``executed`` may order less than before, so the next build grows
    nothing from the last one: S1's old order ``a < b`` must not stay in
    its callee's inputs."""

    def declare(b: SystemBuilder, sequence) -> None:
        b.transaction("T1", "S1", ["a"]).transaction("T2", "S1", ["b"])
        b.transaction("a", "S0", ["x"]).transaction("b", "S0", ["y"])
        b.conflict("S1", "a", "b").executed("S1", sequence)

    builder = _fresh(lambda b: declare(b, ["a", "b"]))
    builder.build()
    builder.executed("S1", ["b", "a"])
    grown = builder.build()
    _assert_same_system(grown, _fresh(lambda b: declare(b, ["b", "a"])).build())
    assert list(grown.schedule("S0").weak_input.pairs()) == [("b", "a")]


def test_an_invocation_cycle_appearing_later():
    """A grown system that breaks Def. 4.6 raises what a first build
    raises."""

    def first(b: SystemBuilder) -> None:
        b.transaction("T1", "S1", ["t"]).transaction("t", "S0", ["u"])

    def then(b: SystemBuilder) -> None:
        b.transaction("u", "S1", ["v"])

    builder = _fresh(first)
    builder.build()
    then(builder)
    errors = []
    for b in (builder, _fresh(lambda b: (first(b), then(b)))):
        with pytest.raises(ModelError) as caught:
            b.build()
        errors.append((caught.value.code, str(caught.value)))
    assert errors[0] == errors[1]


def test_an_operation_in_two_schedules_appearing_later():
    """The same operation declared by a transaction of an earlier
    schedule: a first build meets the earlier schedule's first and
    names its transaction first (CTX203)."""

    def first(b: SystemBuilder) -> None:
        b.schedule("S0").transaction("T1", "S1", ["x"])

    def then(b: SystemBuilder) -> None:
        b.transaction("T0", "S0", ["x"])

    builder = _fresh(first)
    builder.build()
    then(builder)
    errors = []
    for b in (builder, _fresh(lambda b: (first(b), then(b)))):
        with pytest.raises(ModelError) as caught:
            b.build()
        errors.append((caught.value.code, caught.value.schedule, str(caught.value)))
    assert errors[0] == errors[1]
    assert errors[0][:2] == ("CTX203", "S1")


def test_a_system_extended_by_schedules_in_another_order():
    """:meth:`CompositeSystem.extended` given its schedules in another
    order builds the system the constructor builds."""
    system = _fresh(
        lambda b: b.transaction("T1", "S1", ["t"]).transaction("t", "S0", ["u"])
    ).build()
    reordered = [system.schedule("S0"), system.schedule("S1")]
    _assert_same_system(
        system.extended(reordered), CompositeSystem(reordered, validate=False)
    )


def _batches(seed: int):
    """Declarations of a random three-level system, one root a batch:
    intra orders (weak, strong, sequential), conflicts and weak or
    strong output orders between operations of one schedule, and input
    orders between its transactions, mostly along the order the names
    were made in and sometimes against it (a cycle)."""
    rng = random.Random(seed)
    made: List[str] = []
    ops = {"S0": [], "S1": [], "S2": []}
    txns = {"S0": [], "S1": [], "S2": []}

    def name(prefix: str) -> str:
        made.append(f"{prefix}{len(made)}")
        return made[-1]

    def forward(pool: List[str], odds: float):
        a, b = rng.sample(pool, 2)
        backward = made.index(a) > made.index(b)
        return (b, a) if backward == (rng.random() > odds) else (a, b)

    for _ in range(rng.randint(2, 5)):
        batch = []
        root, mids = name("R"), [name("m") for _ in range(rng.randint(1, 2))]
        for mid in mids:
            calls = [name("t") for _ in range(rng.randint(1, 2))]
            for txn in calls:
                leaves = [name("x") for _ in range(rng.randint(1, 3))]
                intra, pick = {}, rng.random()
                if pick < 0.2:
                    intra = {"sequential": True}
                elif pick < 0.5 and len(leaves) > 1:
                    key = "strong_order" if pick < 0.35 else "weak_order"
                    intra = {key: [(leaves[0], leaves[-1])]}
                batch.append(("transaction", (txn, "S0", leaves), intra))
                ops["S0"] += leaves
                txns["S0"].append(txn)
            batch.append(("transaction", (mid, "S1", calls), {}))
            ops["S1"] += calls
            txns["S1"].append(mid)
        batch.append(("transaction", (root, "S2", mids), {}))
        ops["S2"] += mids
        txns["S2"].append(root)
        for sname in ("S0", "S1", "S2"):
            for _ in range(rng.randint(0, 4) if len(ops[sname]) > 1 else 0):
                a, b = forward(ops[sname], 0.08)
                order = rng.choice(["weak_output", "weak_output", "strong_output"])
                batch += [("conflict", (sname, a, b), {}), (order, (sname, a, b), {})]
            if len(txns[sname]) > 1 and rng.random() < 0.4:
                order = rng.choice(["weak_input", "strong_input"])
                batch.append((order, (sname, *forward(txns[sname], 0.15)), {}))
        yield batch


def _built(builder: SystemBuilder, validate: bool):
    try:
        return builder.build(validate=validate)
    except ModelError as error:
        return (type(error).__name__, error.code, str(error))


@pytest.mark.parametrize("seed", range(60))
def test_a_builder_grown_in_batches_builds_what_a_first_build_builds(seed):
    """After every batch, the builder that built each earlier batch
    builds what a fresh builder of all the declarations builds, element
    for element, or raises the same violation (cycles, axioms 1-3)."""
    grown, declared = SystemBuilder(), []
    for step, batch in enumerate(_batches(seed)):
        for method, args, options in batch:
            getattr(grown, method)(*args, **options)
        declared += batch
        fresh = SystemBuilder()
        for method, args, options in declared:
            getattr(fresh, method)(*args, **options)
        validate = (seed + step) % 2 == 0
        ours, theirs = _built(grown, validate), _built(fresh, validate)
        if isinstance(theirs, tuple):
            assert ours == theirs
        else:
            assert not isinstance(ours, tuple), ours
            _assert_same_system(ours, theirs)
