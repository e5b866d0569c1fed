"""Unit tests for calculations (Def. 14) and isolation feasibility."""

import pytest

import repro.core.reduction as reduction
from repro.core.builder import SystemBuilder
from repro.core.calculation import (
    calculation_constraints,
    find_isolation_failure,
    grouping_for_level,
    is_contiguous,
    witness_sequence,
)
from repro.core.reduction import ReductionEngine, reduce_to_roots
from repro.figures import figure3_system, figure4_system
from repro.workloads.generator import WorkloadConfig, generate
from tests.core.golden import GOLDEN_SPECS


def stack(db_exec, top_conflicts=()):
    b = SystemBuilder()
    b.transaction("T1", "Top", ["u1", "u2"])
    b.transaction("T2", "Top", ["v1"])
    for a, c in top_conflicts:
        b.conflict("Top", a, c)
    b.executed("Top", ["u1", "v1", "u2"])
    b.transaction("u1", "DB", ["x1"])
    b.transaction("u2", "DB", ["x2"])
    b.transaction("v1", "DB", ["y1"])
    b.conflict("DB", "x1", "y1")
    b.conflict("DB", "y1", "x2")
    b.executed("DB", db_exec)
    return b.build()


class TestGrouping:
    def test_groups_by_parent_at_level(self):
        sys = stack(["x1", "y1", "x2"])
        engine = ReductionEngine(sys)
        f0 = engine.level0_front()
        g = grouping_for_level(sys, f0.nodes, 1)
        assert g.groups == {"u1": ["x1"], "u2": ["x2"], "v1": ["y1"]}
        assert g.rep("x1") == "u1"

    def test_survivors_map_to_themselves(self):
        sys = figure3_system()
        engine = ReductionEngine(sys)
        f0 = engine.level0_front()
        g = grouping_for_level(sys, f0.nodes, 1)
        for node in f0.nodes:
            assert g.rep(node) in (node, sys.parent(node))

    def test_new_nodes_order_is_stable(self):
        sys = stack(["x1", "y1", "x2"])
        f0 = ReductionEngine(sys).level0_front()
        g = grouping_for_level(sys, f0.nodes, 1)
        # Leaf order follows declaration order (x1, x2, y1), so the
        # collapsed nodes appear at their first member's position.
        assert g.new_nodes(f0.nodes) == ("u1", "u2", "v1")


class TestConstraints:
    def test_observed_pairs_become_constraints(self):
        sys = stack(["x1", "y1", "x2"])
        engine = ReductionEngine(sys)
        f0 = engine.level0_front()
        g = grouping_for_level(sys, f0.nodes, 1)
        constraints = calculation_constraints(sys, f0, g)
        assert ("x1", "y1") in constraints
        assert ("y1", "x2") in constraints

    def test_intra_transaction_orders_added_within_groups(self):
        b = SystemBuilder()
        b.transaction("T1", "S", ["a", "b"], weak_order=[("a", "b")])
        b.executed("S", ["a", "b"])
        sys = b.build()
        engine = ReductionEngine(sys)
        f0 = engine.level0_front()
        g = grouping_for_level(sys, f0.nodes, 1)
        constraints = calculation_constraints(sys, f0, g)
        assert ("a", "b") in constraints


class TestIsolation:
    def test_isolable_front_passes(self):
        sys = stack(["x1", "x2", "y1"])  # T1's work contiguous
        engine = ReductionEngine(sys)
        f0 = engine.level0_front()
        g = grouping_for_level(sys, f0.nodes, 1)
        constraints = calculation_constraints(sys, f0, g)
        assert find_isolation_failure(constraints, g) is None

    def test_wrapped_conflicts_fail_at_parent_level(self):
        # x1 < y1 < x2 with conflicts on both sides: u1/u2 cannot join.
        sys = stack(["x1", "y1", "x2"], top_conflicts=[("u1", "v1"), ("v1", "u2")])
        result = ReductionEngine(sys).run()
        assert result.failure is not None
        assert result.failure.stage == "calculation"
        assert result.failure.level == 2

    def test_failure_reports_blocked_transactions(self):
        result = ReductionEngine(figure3_system()).run()
        assert result.failure is not None
        assert "T1" in result.failure.blocked or "T2" in result.failure.blocked

    def test_internal_cycle_detected(self):
        # A transaction whose own observed order contradicts its intra
        # order cannot be calculated.
        b = SystemBuilder()
        b.transaction("T1", "S", ["a", "b"], weak_order=[("a", "b")])
        b.transaction("T2", "S", ["c"])
        b.conflict("S", "a", "c")
        b.conflict("S", "c", "b")
        b.executed("S", ["a", "c", "b"])
        sys = b.build()
        result = ReductionEngine(sys).run()
        assert result.failure is not None


class TestWitness:
    def test_witness_sequence_is_contiguous_per_group(self):
        sys = figure4_system()
        engine = ReductionEngine(sys)
        result = engine.run()
        assert result.succeeded
        # Re-derive the witness of the last step and check contiguity.
        front = result.fronts[-2]
        g = grouping_for_level(sys, front.nodes, front.level + 1)
        constraints = calculation_constraints(sys, front, g)
        assert find_isolation_failure(constraints, g) is None
        seq = witness_sequence(constraints, g, front.nodes)
        assert sorted(seq) == sorted(front.nodes)
        for members in g.groups.values():
            assert is_contiguous(seq, members)

    def test_witnesses_recorded_per_level(self):
        result = ReductionEngine(figure4_system()).run()
        assert len(result.witnesses) == len(result.fronts) - 1

    def test_is_contiguous_helper(self):
        assert is_contiguous(["a", "b", "c"], ["a", "b"])
        assert not is_contiguous(["a", "c", "b"], ["a", "b"])
        assert is_contiguous(["a", "c", "b"], ["c"])


def _golden_builder(topo, cfg):
    return lambda: generate(topo(), WorkloadConfig(**cfg)).system


WITNESS_SYSTEMS = [("figure4", figure4_system)] + [
    (name, _golden_builder(topo, cfg)) for name, topo, cfg in GOLDEN_SPECS
]


def _binds(system, a, b):
    """An observed pair constrains the re-ordering unless both ends are
    operations of one schedule that does not make them conflict."""
    owner = system.schedule_of_operation(a)
    if owner is None or owner != system.schedule_of_operation(b):
        return True
    return system.schedule(owner).conflicting(a, b)


def _assert_valid_witness(system, front, witness):
    """``witness`` is an F** of ``front`` by Def. 16 step 1, checked from
    the definitions (no engine helper)."""
    assert sorted(witness) == sorted(front.nodes)
    position = {node: i for i, node in enumerate(witness)}
    groups = {}
    for node in front.nodes:
        if system.grouping_level(node) == front.level + 1:
            groups.setdefault(system.parent(node), []).append(node)
    for members in groups.values():
        spots = sorted(position[m] for m in members)
        assert spots == list(range(spots[0], spots[0] + len(spots)))
    required = list(front.input_weak.pairs()) + list(front.input_strong.pairs())
    for parent, members in groups.items():
        schedule = system.schedule(system.schedule_of_transaction(parent))
        inside = set(members)
        required.extend(
            (a, b)
            for a, b in schedule.transactions[parent].weak_order.pairs()
            if a in inside and b in inside
        )
    required.extend(
        (a, b)
        for a, b in front.observed.pairs()
        if a != b and a in position and b in position and _binds(system, a, b)
    )
    for a, b in required:
        assert position[a] < position[b], (front.level, a, b)


def _commit_run(system):
    """A streaming commit's run: the level-0 front is injected."""
    engine = ReductionEngine(system)
    return engine.run(level0=engine.level0_front())


@pytest.mark.parametrize(
    "build", [b for _, b in WITNESS_SYSTEMS], ids=[n for n, _ in WITNESS_SYSTEMS]
)
def test_commit_run_builds_no_witness_and_each_derived_one_is_valid(
    monkeypatch, build
):
    def refuse(*args, **kwargs):
        raise AssertionError("witness_sequence called during the run")

    system = build()
    monkeypatch.setattr(reduction, "witness_sequence", refuse)
    result = _commit_run(system)
    monkeypatch.undo()
    assert result.fronts
    witnesses = result.witnesses
    assert len(witnesses) == len(result.fronts) - 1
    for front, witness in zip(result.fronts, witnesses):
        _assert_valid_witness(system, front, witness)
    # a one-shot run builds the same witnesses alongside its steps
    assert reduce_to_roots(system).witnesses == witnesses


def test_reading_witnesses_is_repeatable_and_leaves_fronts_alone():
    result = _commit_run(figure4_system())

    def snapshot():
        return [
            [list(r.pairs()) for r in (f.observed, f.input_weak, f.input_strong)]
            for f in result.fronts
        ]

    before = snapshot()
    first = result.witnesses
    assert result.witnesses == first
    assert snapshot() == before
