"""Construction validation against an independent oracle.

The oracle below re-derives the Def.-3 schedule axioms (1a–1c, 2a–2b,
3, 4) and the Def.-4.7 order-propagation condition straight from the
definitions: every relation is first turned into a plain set of pairs
and every candidate pair is tested one at a time, so it shares no code
with :class:`~repro.core.schedule.Schedule` or
:class:`~repro.core.system.CompositeSystem`.  Relations are enumerated
with :meth:`Relation.pairs`, whose order is the one both engines
document, so the comparison covers the order of the violations as well
as their set.

The systems are seeded stack/fork/join/DAG workloads, and mutations of
them rebuilt with ``validate=False``: a dropped propagated input pair,
a dropped axiom-1 output pair, an added strong output.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import Schedule
from repro.core.system import CompositeSystem
from repro.core.transaction import Transaction
from repro.workloads import (
    WorkloadConfig,
    fork_topology,
    generate,
    join_topology,
    random_dag_topology,
    stack_topology,
)

TOPOLOGIES = {
    "stack": lambda: stack_topology(3),
    "fork": lambda: fork_topology(3),
    "join": lambda: join_topology(3),
    "dag": lambda: random_dag_topology(3, 2, seed=7),
}


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def oracle_axiom_violations(schedule):
    """``(axiom, operations, transactions)`` per Def.-3 violation, in
    axiom order."""
    weak_in = set(schedule.weak_input.pairs())
    strong_in = schedule.strong_input.pairs()
    weak_out = set(schedule.weak_output.pairs())
    strong_out = set(schedule.strong_output.pairs())
    transactions = schedule.transactions
    owner = {
        op: name for name, txn in transactions.items() for op in txn.operations
    }
    found = []
    for a, b in sorted(sorted(pair) for pair in schedule.conflicts):
        ta, tb = owner[a], owner[b]
        if ta == tb:
            continue
        if (ta, tb) in weak_in:
            if (a, b) not in weak_out:
                found.append(("1a", (a, b), (ta, tb)))
        elif (tb, ta) in weak_in:
            if (b, a) not in weak_out:
                found.append(("1b", (b, a), (tb, ta)))
        elif (a, b) not in weak_out and (b, a) not in weak_out:
            found.append(("1c", (a, b), (ta, tb)))
    for name, txn in transactions.items():
        for pair in txn.weak_order.pairs():
            if pair not in weak_out:
                found.append(("2a", pair, (name,)))
        for pair in txn.strong_order.pairs():
            if pair not in strong_out:
                found.append(("2b", pair, (name,)))
    for t, t2 in strong_in:
        for a in transactions[t].operations:
            for b in transactions[t2].operations:
                if (a, b) not in strong_out:
                    found.append(("3", (a, b), (t, t2)))
    for pair in schedule.strong_output.pairs():
        if pair not in weak_out:
            found.append(("4", pair, ()))
    return found


def oracle_propagation_violations(system):
    """``(caller, callee, pair, kind)`` per Def.-4.7 violation: every
    ordered pair of distinct caller operations that are transactions of
    one callee, weak before strong."""
    schedules = system.schedules
    callee_of = {
        txn: name
        for name, schedule in schedules.items()
        for txn in schedule.transactions
    }
    weak_in = {n: set(s.weak_input.pairs()) for n, s in schedules.items()}
    strong_in = {n: set(s.strong_input.pairs()) for n, s in schedules.items()}
    found = []
    for name, schedule in schedules.items():
        weak_out = set(schedule.weak_output.pairs())
        strong_out = set(schedule.strong_output.pairs())
        ops = schedule.operations
        for a in ops:
            for b in ops:
                if a == b or a not in callee_of:
                    continue
                callee = callee_of[a]
                if callee_of.get(b) != callee:
                    continue
                if (a, b) in weak_out and (a, b) not in weak_in[callee]:
                    found.append((name, callee, (a, b), "weak"))
                if (a, b) in strong_out and (a, b) not in strong_in[callee]:
                    found.append((name, callee, (a, b), "strong"))
    return found


def engine_axiom_violations(schedule):
    return [
        (v.axiom, v.operations, v.transactions)
        for v in schedule.iter_axiom_violations()
    ]


def engine_propagation_violations(system):
    return [
        (v.caller, v.callee, v.pair, v.kind)
        for v in system.iter_order_propagation_violations()
    ]


def assert_agrees(system):
    """Both engines agree with the oracle; returns the violation count."""
    count = 0
    for schedule in system.schedules.values():
        expected = oracle_axiom_violations(schedule)
        assert engine_axiom_violations(schedule) == expected
        count += len(expected)
    expected = oracle_propagation_violations(system)
    assert engine_propagation_violations(system) == expected
    return count + len(expected)


# ----------------------------------------------------------------------
# systems and mutations
# ----------------------------------------------------------------------
def seeded_system(topology, seed):
    config = WorkloadConfig(
        seed=seed,
        roots=5,
        conflict_probability=0.4,
        intra_order_probability=0.3,
    )
    return generate(TOPOLOGIES[topology](), config).system


def cover_pairs(relation):
    """The transitive reduction of a closed acyclic relation: removing
    one of these pairs removes it from the re-closed relation."""
    closed = set(relation.pairs())
    return [
        (a, b)
        for a, b in relation.pairs()
        if not any((a, c) in closed and (c, b) in closed for c in relation.elements)
    ]


def rebuild(system, name, **orders):
    """``system`` with schedule ``name`` rebuilt from the given orders
    (the others kept), everything constructed with ``validate=False``."""
    schedules = []
    for sname, schedule in system.schedules.items():
        if sname == name:
            fields = {
                "weak_input": cover_pairs(schedule.weak_input),
                "strong_input": list(schedule.strong_input.pairs()),
                "weak_output": cover_pairs(schedule.weak_output),
                "strong_output": list(schedule.strong_output.pairs()),
            }
            fields.update(orders)
            schedule = Schedule(
                sname,
                list(schedule.transactions.values()),
                conflicts=[tuple(sorted(p)) for p in schedule.conflicts],
                validate=False,
                **fields,
            )
        schedules.append(schedule)
    return CompositeSystem(schedules, validate=False)


def drop_input_pair(system, rng):
    candidates = [
        (name, pair)
        for name, schedule in system.schedules.items()
        for pair in cover_pairs(schedule.weak_input)
    ]
    if not candidates:
        return system
    name, pair = rng.choice(candidates)
    schedule = system.schedule(name)
    return rebuild(
        system,
        name,
        weak_input=[p for p in cover_pairs(schedule.weak_input) if p != pair],
        strong_input=[p for p in schedule.strong_input.pairs() if p != pair],
    )


def drop_axiom1_output_pair(system, rng):
    candidates = []
    for name, schedule in system.schedules.items():
        owner = {op: schedule.transaction_of(op) for op in schedule.operations}
        strong = set(schedule.strong_output.pairs())
        for a, b in cover_pairs(schedule.weak_output):
            if owner[a] != owner[b] and schedule.conflicting(a, b):
                if (a, b) not in strong:
                    candidates.append((name, (a, b)))
    if not candidates:
        return system
    name, pair = rng.choice(candidates)
    schedule = system.schedule(name)
    return rebuild(
        system,
        name,
        weak_output=[p for p in cover_pairs(schedule.weak_output) if p != pair],
    )


def add_strong_output(system, rng):
    # Prefer two operations that are transactions of one callee, so the
    # new pair reaches Def. 4.7; orient it along the weak output order
    # when one exists, which keeps the schedule acyclic.
    callee_of = {
        txn: name
        for name, schedule in system.schedules.items()
        for txn in schedule.transactions
    }
    candidates = []
    for name, schedule in system.schedules.items():
        ops = schedule.operations
        for a in ops:
            for b in ops:
                if a < b and callee_of.get(a, a) == callee_of.get(b, b):
                    candidates.append((name, a, b))
    if not candidates:
        return system
    name, a, b = rng.choice(candidates)
    schedule = system.schedule(name)
    if (b, a) in schedule.weak_output:
        a, b = b, a
    return rebuild(
        system,
        name,
        strong_output=list(schedule.strong_output.pairs()) + [(a, b)],
    )


MUTATIONS = {
    "drop_input_pair": drop_input_pair,
    "drop_axiom1_output_pair": drop_axiom1_output_pair,
    "add_strong_output": add_strong_output,
}


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
def test_seeded_workloads_have_no_violations():
    for topology in TOPOLOGIES:
        for seed in range(4):
            assert assert_agrees(seeded_system(topology, seed)) == 0


def test_every_mutation_is_seen_by_both():
    # Deterministic sweep; each mutation must produce violations somewhere
    # so the agreement above is not vacuous.
    for mutation, mutate in MUTATIONS.items():
        total = 0
        for topology in TOPOLOGIES:
            for seed in range(3):
                rng = random.Random(f"{mutation}-{topology}-{seed}")
                system = mutate(seeded_system(topology, seed), rng)
                total += assert_agrees(system)
        assert total > 0, mutation


@settings(max_examples=40, deadline=None)
@given(
    topology=st.sampled_from(sorted(TOPOLOGIES)),
    seed=st.integers(min_value=0, max_value=200),
    mutations=st.lists(st.sampled_from(sorted(MUTATIONS)), max_size=3),
    choice=st.integers(min_value=0, max_value=2**16),
)
def test_mutated_systems_agree_with_oracle(topology, seed, mutations, choice):
    rng = random.Random(choice)
    system = seeded_system(topology, seed)
    for mutation in mutations:
        system = MUTATIONS[mutation](system, rng)
    assert_agrees(system)


def _txn(name, ops=None):
    return Transaction(name, ops if ops is not None else [f"{name}_op"])


def test_propagation_violations_come_out_in_operation_order():
    # A caller with several same-callee operations and every output pair
    # missing from the callee: the violations come out by (a, b) in
    # operation order, weak before strong.
    callee = Schedule(
        "DB",
        [_txn(t) for t in ("u", "v", "w")],
    )
    caller = Schedule(
        "Top",
        [_txn("T1", ["u", "v"]), _txn("T2", ["w", "x"])],
        weak_output=[("u", "w"), ("w", "v")],
        strong_output=[("u", "v")],
        validate=False,
    )
    system = CompositeSystem([caller, callee], validate=False)
    assert engine_propagation_violations(system) == [
        ("Top", "DB", ("u", "v"), "weak"),
        ("Top", "DB", ("u", "v"), "strong"),
        ("Top", "DB", ("u", "w"), "weak"),
        ("Top", "DB", ("w", "v"), "weak"),
    ]
    assert_agrees(system)
