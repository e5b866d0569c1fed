"""Random composite-execution generator.

Populates a :class:`repro.workloads.topologies.TopologySpec` with a
random execution forest and per-schedule recorded executions, yielding a
:class:`repro.io.recorded.RecordedExecution` that is always a
*well-formed* composite execution (every Def.-3 axiom holds) but not
necessarily a *correct* one — exactly the population the theorem and
hierarchy benchmarks need.

How validity is guaranteed: schedules are laid out top-down by level.
A schedule's recorded sequence is a random linear extension of its
*obligations* — intra-transaction orders of its transactions plus the
operation orders that axiom 1a derives from the input orders its callers
committed.  Everything else (the relative order of conflicting
operations of input-unordered transactions) is free, and it is this
freedom that produces both serializable and non-serializable
interleavings.

Layouts
-------
``serial``
    one global depth-first pass over the roots: every schedule sees its
    transactions one after another — correct by construction.
``random``
    unconstrained-but-valid random interleaving (the default).
``perturbed``
    the serial layout followed by random adjacent swaps of
    *non-conflicting, unobligated* operation pairs.  Such swaps change
    the temporal layout but none of the committed orders, so the
    execution stays Comp-C while layout-sensitive criteria (seriality,
    OPSR) may flip — the separation the H1 benchmark measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.builder import SystemBuilder
from repro.core.orders import Relation
from repro.core.system import CompositeSystem
from repro.exceptions import WorkloadError
from repro.io.recorded import RecordedExecution
from repro.workloads.topologies import TopologySpec


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs for the random generator.

    ``ops_per_transaction`` is an inclusive ``(lo, hi)`` range.
    ``conflict_probability`` is applied independently to every pair of
    operations of a schedule owned by different transactions.
    ``leaf_probability`` lets internal schedules execute some operations
    locally instead of delegating (0 keeps stack/fork/join shapes pure).
    ``intra_order_probability`` gives a transaction a weak sequential
    order over its operations.
    """

    seed: int = 0
    roots: int = 4
    ops_per_transaction: Tuple[int, int] = (1, 3)
    conflict_probability: float = 0.3
    leaf_probability: float = 0.0
    intra_order_probability: float = 0.0
    layout: str = "random"
    perturbation_swaps: int = 8

    def __post_init__(self) -> None:
        if self.layout not in ("serial", "random", "perturbed"):
            raise WorkloadError(f"unknown layout {self.layout!r}")
        lo, hi = self.ops_per_transaction
        if lo < 1 or hi < lo:
            raise WorkloadError(
                "ops_per_transaction must be an inclusive range with lo >= 1"
            )


@dataclass
class _Forest:
    """The raw random forest before assembly."""

    txn_schedule: Dict[str, str]
    txn_ops: Dict[str, List[str]]
    txn_intra: Dict[str, bool]
    schedule_ops: Dict[str, List[str]]
    op_owner: Dict[str, str]
    conflicts: Dict[str, List[Tuple[str, str]]]
    roots: List[str]


def generate(spec: TopologySpec, config: WorkloadConfig) -> RecordedExecution:
    """Generate one recorded composite execution over ``spec``."""
    rng = random.Random(config.seed)
    forest = _grow_forest(spec, config, rng)
    _draw_conflicts(spec, config, rng, forest)
    executions = _lay_out(spec, config, rng, forest)
    system = _assemble(spec, forest, executions)
    # Schedules that received no transactions are pruned from the system
    # (see _assemble); keep the executions map consistent with it.
    executions = {
        name: seq for name, seq in executions.items() if name in system.schedules
    }
    return RecordedExecution(system=system, executions=executions)


# ----------------------------------------------------------------------
# forest growth
# ----------------------------------------------------------------------
def _grow_forest(
    spec: TopologySpec, config: WorkloadConfig, rng: random.Random
) -> _Forest:
    forest = _Forest(
        txn_schedule={},
        txn_ops={},
        txn_intra={},
        schedule_ops={name: [] for name in spec.schedule_names},
        op_owner={},
        conflicts={name: [] for name in spec.schedule_names},
        roots=[],
    )
    counter = {"t": 0, "o": 0}

    def new_txn(schedule: str, name: Optional[str] = None) -> str:
        if name is None:
            counter["t"] += 1
            name = f"t{counter['t']}"
        forest.txn_schedule[name] = schedule
        forest.txn_ops[name] = []
        forest.txn_intra[name] = (
            rng.random() < config.intra_order_probability
        )
        targets = spec.invokes[schedule]
        lo, hi = config.ops_per_transaction
        for _ in range(rng.randint(lo, hi)):
            delegate = bool(targets) and (
                config.leaf_probability <= 0.0
                or rng.random() >= config.leaf_probability
            )
            if delegate:
                child = new_txn(rng.choice(targets))
                op = child
            else:
                counter["o"] += 1
                op = f"o{counter['o']}"
            forest.txn_ops[name].append(op)
            forest.schedule_ops[schedule].append(op)
            forest.op_owner[op] = name
        return name

    for i in range(config.roots):
        schedule = spec.root_schedules[i % len(spec.root_schedules)]
        forest.roots.append(new_txn(schedule, name=f"R{i + 1}"))
    return forest


def _draw_conflicts(
    spec: TopologySpec,
    config: WorkloadConfig,
    rng: random.Random,
    forest: _Forest,
) -> None:
    for schedule in spec.schedule_names:
        ops = forest.schedule_ops[schedule]
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                if forest.op_owner[a] == forest.op_owner[b]:
                    continue
                if rng.random() < config.conflict_probability:
                    forest.conflicts[schedule].append((a, b))


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------
def _serial_layout(forest: _Forest) -> Dict[str, List[str]]:
    """One global depth-first pass over the roots."""
    sequences: Dict[str, List[str]] = {s: [] for s in forest.schedule_ops}

    def run(txn: str) -> None:
        schedule = forest.txn_schedule[txn]
        for op in forest.txn_ops[txn]:
            sequences[schedule].append(op)
            if op in forest.txn_schedule:  # a subtransaction
                run(op)

    for root in forest.roots:
        run(root)
    return sequences


def _obligations(
    spec: TopologySpec,
    forest: _Forest,
    committed: Dict[str, Relation],
    schedule: str,
) -> Relation:
    """The op-order constraints the schedule's sequence must extend:
    intra-transaction orders (axiom 2a) plus the conflicting-pair orders
    derived from the callers' committed orders (axiom 1a/1b)."""
    constraints = Relation(elements=forest.schedule_ops[schedule])
    # Intra-transaction weak orders of this schedule's transactions.
    for txn, here in forest.txn_schedule.items():
        if here == schedule and forest.txn_intra[txn]:
            ops = forest.txn_ops[txn]
            for a, b in zip(ops, ops[1:]):
                constraints.add(a, b)
    # Input orders: committed caller pairs between this schedule's
    # transactions, closed across callers, lifted through conflicts.
    input_order = Relation()
    for caller, relation in committed.items():
        for t, t2 in relation.pairs():
            if (
                forest.txn_schedule.get(t) == schedule
                and forest.txn_schedule.get(t2) == schedule
            ):
                input_order.add(t, t2)
    input_order = input_order.transitive_closure()
    conflicting = {frozenset(p) for p in forest.conflicts[schedule]}
    for t, t2 in input_order.pairs():
        for a in forest.txn_ops[t]:
            for b in forest.txn_ops[t2]:
                if frozenset((a, b)) in conflicting:
                    constraints.add(a, b)
    return constraints


def _random_extension(
    constraints: Relation, ops: Sequence[str], rng: random.Random
) -> List[str]:
    """A uniformly-random-ish linear extension of the constraints."""
    remaining = set(ops)
    in_degree = {op: 0 for op in ops}
    for a, b in constraints.pairs():
        if a in remaining and b in remaining:
            in_degree[b] += 1
    ready = sorted(op for op in ops if in_degree[op] == 0)
    sequence: List[str] = []
    while ready:
        index = rng.randrange(len(ready))
        op = ready.pop(index)
        remaining.discard(op)
        sequence.append(op)
        for succ in sorted(constraints.successors(op)):
            if succ in remaining:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
    if len(sequence) != len(ops):  # pragma: no cover - generator invariant
        raise WorkloadError("obligations are cyclic; generation bug")
    return sequence


def _committed_relation(forest: _Forest, schedule: str, sequence: Sequence[str]) -> Relation:
    """What the schedule commits given a temporal sequence: conflicting
    pairs by position plus intra-transaction orders, closed."""
    position = {op: i for i, op in enumerate(sequence)}
    committed = Relation(elements=sequence)
    for a, b in forest.conflicts[schedule]:
        if position[a] < position[b]:
            committed.add(a, b)
        else:
            committed.add(b, a)
    for txn, here in forest.txn_schedule.items():
        if here == schedule and forest.txn_intra[txn]:
            ops = forest.txn_ops[txn]
            for a, b in zip(ops, ops[1:]):
                committed.add(a, b)
    return committed.transitive_closure()


def _lay_out(
    spec: TopologySpec,
    config: WorkloadConfig,
    rng: random.Random,
    forest: _Forest,
) -> Dict[str, List[str]]:
    if config.layout == "serial":
        return _serial_layout(forest)
    if config.layout == "perturbed":
        return _perturb(spec, config, rng, forest, _serial_layout(forest))

    # random layout: top-down by level so caller commitments are known.
    sequences: Dict[str, List[str]] = {}
    committed: Dict[str, Relation] = {}
    order = sorted(
        spec.schedule_names, key=lambda s: spec.levels[s], reverse=True
    )
    for schedule in order:
        constraints = _obligations(spec, forest, committed, schedule)
        sequences[schedule] = _random_extension(
            constraints, forest.schedule_ops[schedule], rng
        )
        committed[schedule] = _committed_relation(
            forest, schedule, sequences[schedule]
        )
    return sequences


def _perturb(
    spec: TopologySpec,
    config: WorkloadConfig,
    rng: random.Random,
    forest: _Forest,
    sequences: Dict[str, List[str]],
) -> Dict[str, List[str]]:
    """Adjacent swaps of non-conflicting, intra-unordered pairs: the
    committed orders — and hence the Comp-C verdict — are unchanged."""
    conflicting = {
        schedule: {frozenset(p) for p in pairs}
        for schedule, pairs in forest.conflicts.items()
    }

    def intra_ordered(a: str, b: str) -> bool:
        # An intra-ordered transaction chains *all* its operation pairs.
        owner_a, owner_b = forest.op_owner[a], forest.op_owner[b]
        return owner_a == owner_b and forest.txn_intra[owner_a]

    for schedule, sequence in sequences.items():
        if len(sequence) < 2:
            continue
        for _ in range(config.perturbation_swaps):
            i = rng.randrange(len(sequence) - 1)
            a, b = sequence[i], sequence[i + 1]
            if frozenset((a, b)) in conflicting[schedule]:
                continue
            if intra_ordered(a, b):
                continue
            sequence[i], sequence[i + 1] = b, a
    return sequences


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------
def _assemble(
    spec: TopologySpec,
    forest: _Forest,
    executions: Dict[str, List[str]],
) -> "CompositeSystem":
    builder = SystemBuilder()
    populated = {schedule for schedule in forest.txn_schedule.values()}
    for schedule in spec.schedule_names:
        # Schedules that received no transactions (e.g. a join client with
        # fewer roots than clients) are dropped: an empty schedule has no
        # behaviour to check and would only distort the structural
        # classification of the result.
        if schedule in populated:
            builder.schedule(schedule)
    for txn, schedule in forest.txn_schedule.items():
        ops = forest.txn_ops[txn]
        weak = list(zip(ops, ops[1:])) if forest.txn_intra[txn] else []
        builder.transaction(txn, schedule, ops, weak_order=weak)
    for schedule, pairs in forest.conflicts.items():
        for a, b in pairs:
            builder.conflict(schedule, a, b)
    for schedule, sequence in executions.items():
        if schedule in populated:
            builder.executed(schedule, sequence)
    return builder.build()


def generate_batch(
    spec: TopologySpec, config: WorkloadConfig, count: int
) -> List[RecordedExecution]:
    """``count`` executions with consecutive seeds (deterministic)."""
    out = []
    for i in range(count):
        cfg = WorkloadConfig(
            seed=config.seed + i,
            roots=config.roots,
            ops_per_transaction=config.ops_per_transaction,
            conflict_probability=config.conflict_probability,
            leaf_probability=config.leaf_probability,
            intra_order_probability=config.intra_order_probability,
            layout=config.layout,
            perturbation_swaps=config.perturbation_swaps,
        )
        out.append(generate(spec, cfg))
    return out
