"""Unit tests for the reduction engine (Def. 15–16, Theorem 1)."""

import pytest

from repro.core.builder import SystemBuilder
from repro.core.observed import ObservedOrderOptions
from repro.core.orders import Relation
from repro.core.reduction import ReductionEngine, reduce_to_roots
from repro.exceptions import ReductionError
from repro.figures import (
    figure1_system,
    figure3_system,
    figure4_system,
)
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import stack_topology


class TestLevel0:
    def test_level0_is_all_leaves(self):
        sys = figure1_system()
        f0 = ReductionEngine(sys).level0_front()
        assert set(f0.nodes) == set(sys.leaves)
        assert f0.level == 0

    def test_level0_observed_seeded_from_conflicts(self):
        sys = figure1_system()
        f0 = ReductionEngine(sys).level0_front()
        assert ("p2", "p3") in f0.observed
        assert ("q1", "q2") in f0.observed
        assert ("p1", "p2") not in f0.observed  # commuting pair

    def test_level0_has_no_input_orders(self):
        sys = figure1_system()
        f0 = ReductionEngine(sys).level0_front()
        assert len(f0.input_weak) == 0

    def test_level0_observed_is_transitively_closed(self):
        sys = figure1_system()
        f0 = ReductionEngine(sys).level0_front()
        assert ("p2", "p4") in f0.observed  # via p3


class TestStepwise:
    def test_front_chain_levels(self):
        result = ReductionEngine(figure1_system()).run()
        assert [f.level for f in result.fronts] == [0, 1, 2, 3]

    def test_final_front_is_roots(self):
        sys = figure1_system()
        result = ReductionEngine(sys).run()
        assert set(result.final_front.nodes) == set(sys.roots)

    def test_intermediate_front_nodes(self):
        sys = figure1_system()
        result = ReductionEngine(sys).run()
        f1 = result.fronts[1]
        # Level-1: transactions of SD/SE plus surviving leaves of SA.
        assert "d1" in f1.nodes and "T5" in f1.nodes and "x1" in f1.nodes
        assert "p1" not in f1.nodes

    def test_input_orders_appear_at_owning_level(self):
        sys = figure1_system()
        result = ReductionEngine(sys).run()
        f1 = result.fronts[1]
        # SD's input orders (propagated from SB's output) appear at level 1.
        assert ("d1", "d4") in f1.input_weak

    def test_stop_level(self):
        sys = figure1_system()
        result = ReductionEngine(sys).run(stop_level=1)
        assert result.succeeded
        assert result.final_front.level == 1

    def test_stop_level_beyond_order_rejected(self):
        with pytest.raises(ReductionError):
            ReductionEngine(figure1_system()).run(stop_level=9)

    def test_roots_are_kept_through_fronts(self):
        sys = figure1_system()
        result = ReductionEngine(sys).run()
        # T5 materializes at level 1 and must persist to the end (Def. 16.5).
        for front in result.fronts[1:]:
            assert "T5" in front.nodes


class TestVerdicts:
    def test_figure3_rejected_at_root_step(self):
        result = reduce_to_roots(figure3_system())
        assert not result.succeeded
        assert result.failure.level == 3
        assert result.failure.stage == "calculation"

    def test_figure4_accepted(self):
        result = reduce_to_roots(figure4_system())
        assert result.succeeded
        assert len(result.serial_order()) == 2

    def test_serial_order_raises_on_failure(self):
        result = reduce_to_roots(figure3_system())
        with pytest.raises(ReductionError):
            result.serial_order()

    def test_narrative_mentions_verdict(self):
        good = reduce_to_roots(figure4_system()).narrative()
        assert "ACCEPTED" in good
        bad = reduce_to_roots(figure3_system()).narrative()
        assert "REJECTED" in bad

    def test_cc_failure_stage(self):
        # Contradiction between a schedule's serialization and the orders
        # pulled up from below: CC failure rather than isolation failure.
        b = SystemBuilder()
        b.transaction("T1", "Top", ["u"])
        b.transaction("T2", "Top", ["v"])
        b.conflict("Top", "u", "v")
        # Top claims u before v...
        b.executed("Top", ["u", "v"])
        b.transaction("u", "DB", ["x"])
        b.transaction("v", "DB", ["y"])
        b.conflict("DB", "x", "y")
        # ...but the DB serialized v's work before u's.  Note the DB input
        # order (u, v) is propagated automatically, so this model violates
        # axiom 1a unless we skip validation — exactly the inconsistency
        # the front CC check exists to catch for *unvalidated* inputs.
        b.executed("DB", ["y", "x"])
        sys = b.build(validate=False)
        result = reduce_to_roots(sys)
        assert not result.succeeded
        assert result.failure.stage == "cc"

    def test_single_schedule_flat_history(self):
        # Degenerate composite system: one schedule, classical histories.
        b = SystemBuilder()
        b.transaction("T1", "S", ["a", "b"])
        b.transaction("T2", "S", ["c"])
        b.conflict("S", "a", "c")
        b.conflict("S", "c", "b")
        b.executed("S", ["a", "c", "b"])
        assert not reduce_to_roots(b.build()).succeeded

    def test_empty_conflicts_always_accepted(self):
        b = SystemBuilder()
        b.transaction("T1", "S", ["a", "b"])
        b.transaction("T2", "S", ["c"])
        b.executed("S", ["a", "c", "b"])
        assert reduce_to_roots(b.build()).succeeded


class TestOneQuotientPerLevel:
    """A one-shot run builds each level's quotient once and hands it to
    both the isolation test and the witness."""

    @pytest.fixture()
    def mapped_calls(self, monkeypatch):
        calls = []
        original = Relation.mapped

        def counting(relation, *args, **kwargs):
            calls.append(relation)
            return original(relation, *args, **kwargs)

        monkeypatch.setattr(Relation, "mapped", counting)
        return calls

    @pytest.mark.parametrize(
        "make",
        [
            figure1_system,
            figure4_system,
            lambda: generate(
                stack_topology(3), WorkloadConfig(seed=1, layout="serial")
            ).system,
        ],
    )
    def test_accepted_run_maps_once_per_level(self, make, mapped_calls):
        system = make()
        result = reduce_to_roots(system)
        assert result.succeeded
        assert len(mapped_calls) == system.order
        # the witnesses equal those derived afresh from the fronts
        engine = ReductionEngine(system)
        derived = engine.run(level0=engine.level0_front())
        assert result.witnesses == derived.witnesses

    def test_rejected_run_maps_once_per_attempted_level(self, mapped_calls):
        result = reduce_to_roots(figure3_system())
        assert not result.succeeded
        assert len(mapped_calls) == result.failure.level


class TestOptions:
    def test_disabling_forgetting_rejects_figure4(self):
        opts = ObservedOrderOptions(forget_nonconflicting=False)
        result = reduce_to_roots(figure4_system(), opts)
        assert not result.succeeded

    def test_forgetting_is_what_separates_fig3_and_fig4(self):
        assert reduce_to_roots(figure4_system()).succeeded
        assert not reduce_to_roots(figure3_system()).succeeded
