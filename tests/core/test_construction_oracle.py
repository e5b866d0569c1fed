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

A second oracle re-derives what :class:`SystemBuilder` must construct
from a spec: the fixed point of Def. 4.7 propagation (a caller's closed
output orders between two transactions of one callee become that
callee's input orders) with the axiom-3 expansion of closed strong
inputs inside it, computed over plain sets of pairs.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import SystemBuilder
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
def seeded(topology, seed, layout="random"):
    config = WorkloadConfig(
        seed=seed,
        roots=5,
        conflict_probability=0.4,
        intra_order_probability=0.3,
        layout=layout,
    )
    return generate(TOPOLOGIES[topology](), config)


def seeded_system(topology, seed):
    return seeded(topology, seed).system


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


# ----------------------------------------------------------------------
# the Def.-4.7 propagation oracle
# ----------------------------------------------------------------------
def close(pairs):
    """Transitive closure of a set of pairs, one search per source."""
    succ = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closed = set()
    for a in succ:
        seen, stack = set(), [a]
        while stack:
            for b in succ.get(stack.pop(), ()):
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        closed.update((a, b) for b in seen)
    return closed


def spec_pairs(body, key):
    return {tuple(p) for p in body.get(key, [])}


def oracle_orders(spec):
    """``{schedule: {order: pairs}}`` for the four closed orders of
    every schedule the spec declares, after propagation."""
    bodies = spec["schedules"]
    txns = {
        s: {
            t: d if isinstance(d, dict) else {"ops": d}
            for t, d in body.get("transactions", {}).items()
        }
        for s, body in bodies.items()
    }
    ops_of = {t: list(d["ops"]) for s in txns for t, d in txns[s].items()}
    callee_of = {t: s for s in txns for t in txns[s]}
    weak_out, strong_out, weak_in, strong_in = {}, {}, {}, {}
    for s, body in bodies.items():
        weak_out[s] = spec_pairs(body, "weak_output")
        strong_out[s] = spec_pairs(body, "strong_output")
        weak_in[s] = spec_pairs(body, "weak_input")
        strong_in[s] = spec_pairs(body, "strong_input")
        for d in txns[s].values():  # axiom 2
            ops = d["ops"]
            strong = {tuple(p) for p in d.get("strong", [])}
            if d.get("sequential"):
                strong |= set(zip(ops, ops[1:]))
            strong_out[s] |= strong
            weak_out[s] |= strong | {tuple(p) for p in d.get("weak", [])}
        executed = body.get("executed")
        if executed is not None:
            if body.get("executed_mode") == "temporal":
                weak_out[s] |= set(zip(executed, executed[1:]))
            else:
                at = {op: i for i, op in enumerate(executed)}
                weak_out[s] |= {
                    (a, b) if at[a] < at[b] else (b, a)
                    for a, b in body.get("conflicts", [])
                    if a in at and b in at
                }
    changed = True
    while changed:
        changed = False
        for s in bodies:
            for t1, t2 in close(strong_in[s]):  # axiom 3
                forced = {(a, b) for a in ops_of[t1] for b in ops_of[t2]}
                if not forced <= strong_out[s]:
                    strong_out[s] |= forced
                    changed = True
            for closed, inputs in (
                (close(weak_out[s] | strong_out[s]), weak_in),
                (close(strong_out[s]), strong_in),
            ):
                for a, b in closed:
                    callee = callee_of.get(a)
                    if callee in (None, s) or callee_of.get(b) != callee:
                        continue
                    if (a, b) not in inputs[callee]:
                        inputs[callee].add((a, b))
                        changed = True
    return {
        s: {
            "weak_input": close(weak_in[s] | strong_in[s]),
            "strong_input": close(strong_in[s]),
            "weak_output": close(weak_out[s] | strong_out[s]),
            "strong_output": close(strong_out[s]),
        }
        for s in bodies
    }


def assert_built_as_oracle(spec, validate=True):
    """Build ``spec`` and compare every schedule's four orders with the
    oracle's, pair for pair; returns the built system."""
    system = SystemBuilder.from_spec(spec).build(validate=validate)
    expected = oracle_orders(spec)
    assert list(system.schedules) == list(spec["schedules"])
    for name, schedule in system.schedules.items():
        for kind, pairs in expected[name].items():
            assert set(getattr(schedule, kind).pairs()) == pairs, (name, kind)
    return system


def seeded_spec(topology, seed, layout="random"):
    """The declarations a seeded workload is built from: transactions
    with their intra orders, conflicts and executed sequences."""
    recorded = seeded(topology, seed, layout)
    return {
        "schedules": {
            name: {
                "transactions": {
                    t: {
                        "ops": list(txn.operations),
                        "weak": [list(p) for p in txn.weak_order.pairs()],
                    }
                    for t, txn in schedule.transactions.items()
                },
                "conflicts": sorted(sorted(p) for p in schedule.conflicts),
                "executed": list(recorded.executions[name]),
            }
            for name, schedule in recorded.system.schedules.items()
        }
    }


def test_seeded_workloads_propagate_as_the_oracle():
    for topology in TOPOLOGIES:
        for seed in range(4):
            spec = seeded_spec(topology, seed)
            system = assert_built_as_oracle(spec)
            if topology == "stack":
                assert any(len(s.weak_input) for s in system.schedules.values())


def test_sequential_transactions_propagate_as_the_oracle():
    # Every transaction made sequential in execution order, on serial
    # layouts so the result stays acyclic: its strong intra order
    # becomes strong output, then callee strong input, then axiom-3
    # strong output one level further down.
    strong = 0
    for topology in TOPOLOGIES:
        for seed in range(4):
            spec = seeded_spec(topology, seed, "serial")
            for body in spec["schedules"].values():
                at = {op: i for i, op in enumerate(body["executed"])}
                for d in body["transactions"].values():
                    d["ops"].sort(key=at.__getitem__)
                    d["sequential"] = True
            system = assert_built_as_oracle(spec, validate=False)
            strong += any(len(s.strong_input) for s in system.schedules.values())
    assert strong >= 12


def test_declared_strong_inputs_propagate_as_the_oracle():
    # A strong input between the first and last root transaction of the
    # top schedule: axiom 3 sequences them, Def. 4.7 hands the result to
    # the callees as strong input, and so on down the stack.
    deep = 0
    for topology in TOPOLOGIES:
        for seed in range(4):
            spec = seeded_spec(topology, seed, "serial")
            system = seeded(topology, seed, "serial").system
            top = max(system.schedules, key=system.level_of)
            body = spec["schedules"][top]
            owner = {
                op: t for t, d in body["transactions"].items() for op in d["ops"]
            }
            first, last = owner[body["executed"][0]], owner[body["executed"][-1]]
            body["strong_input"] = [[first, last]]
            built = assert_built_as_oracle(spec, validate=False)
            deep += any(
                built.level_of(name) <= built.level_of(top) - 2
                and len(schedule.strong_input)
                for name, schedule in built.schedules.items()
            )
    assert deep >= 4


def test_propagated_strong_input_forces_strong_outputs_two_levels_down():
    spec = {
        "schedules": {
            "Top": {
                "transactions": {"T1": ["u1"], "T2": ["u2"]},
                "strong_input": [["T1", "T2"]],
            },
            "Mid": {"transactions": {"u1": ["m1"], "u2": ["m2"]}},
            "Leaf": {
                "transactions": {"m1": ["p"], "m2": ["q"]},
                "executed": ["p", "q"],
            },
        }
    }
    system = assert_built_as_oracle(spec)
    assert ("u1", "u2") in system.schedule("Mid").strong_input
    assert ("m1", "m2") in system.schedule("Leaf").strong_input
    assert ("p", "q") in system.schedule("Leaf").strong_output


def test_callee_declared_before_its_caller_propagates_as_the_oracle():
    spec = {
        "schedules": {
            "Leaf": {"transactions": {"m1": ["p"], "m2": ["q"]}},
            "Mid": {"transactions": {"u1": ["m1"], "u2": ["m2"]}},
            "Top": {
                "transactions": {"T": {"ops": ["u1", "u2"], "sequential": True}},
            },
        }
    }
    system = assert_built_as_oracle(spec)
    assert ("m1", "m2") in system.schedule("Leaf").strong_input
    assert ("p", "q") in system.schedule("Leaf").strong_output


def test_axiom_3_expands_the_closed_strong_input():
    # T1 ->> T2 ->> T3 with an empty T2: only the closed input orders
    # T1 ->> T3, so only its expansion sequences a << c.
    spec = {
        "schedules": {
            "S": {
                "transactions": {"T1": ["a"], "T2": [], "T3": ["c"]},
                "strong_input": [["T1", "T2"], ["T2", "T3"]],
            }
        }
    }
    system = assert_built_as_oracle(spec)
    assert ("a", "c") in system.schedule("S").strong_output
