"""Unit tests for composite systems: structure, IG, levels (Def. 4–9)."""

import pytest

from repro.core.builder import SystemBuilder
from repro.core.orders import Relation
from repro.core.schedule import Schedule
from repro.core.system import CompositeSystem
from repro.core.transaction import Transaction
from repro.exceptions import CycleError, ModelError
from repro.figures import figure1_system


def stack2():
    """Two-level stack: T1,T2 on Top invoke t* on DB."""
    b = SystemBuilder()
    b.transaction("T1", "Top", ["t11", "t12"])
    b.transaction("T2", "Top", ["t21"])
    b.transaction("t11", "DB", ["r1"])
    b.transaction("t12", "DB", ["w1"])
    b.transaction("t21", "DB", ["w2"])
    b.conflict("DB", "r1", "w2")
    b.executed("DB", ["r1", "w2", "w1"])
    b.executed("Top", ["t11", "t21", "t12"])
    return b.build()


class TestStructure:
    def test_empty_system_rejected(self):
        with pytest.raises(ModelError):
            CompositeSystem([])

    def test_duplicate_schedule_names_rejected(self):
        s1 = Schedule("S", [Transaction("T1", [])])
        s2 = Schedule("S", [Transaction("T2", [])])
        with pytest.raises(ModelError):
            CompositeSystem([s1, s2])

    def test_transaction_in_two_schedules_rejected(self):
        s1 = Schedule("S1", [Transaction("T", [])])
        s2 = Schedule("S2", [Transaction("T", [])])
        with pytest.raises(ModelError):
            CompositeSystem([s1, s2])

    def test_operation_with_two_parents_rejected(self):
        s = Schedule(
            "S", [Transaction("T1", ["a"]), Transaction("T2", [])], validate=False
        )
        s2 = Schedule("S2", [Transaction("T3", ["a"])], validate=False)
        with pytest.raises(ModelError):
            CompositeSystem([s, s2])

    def test_roots_leaves_internal(self):
        sys = stack2()
        assert set(sys.roots) == {"T1", "T2"}
        assert set(sys.leaves) == {"r1", "w1", "w2"}
        assert set(sys.internal_nodes) == {"t11", "t12", "t21"}

    def test_node_predicates(self):
        sys = stack2()
        assert sys.is_root("T1") and not sys.is_root("t11")
        assert sys.is_leaf("r1") and not sys.is_leaf("t11")
        assert sys.is_transaction("t11") and not sys.is_transaction("r1")

    def test_parents(self):
        sys = stack2()
        assert sys.parent("r1") == "t11"
        assert sys.parent("t11") == "T1"
        assert sys.parent("T1") == "T1"  # roots are their own parent

    def test_unknown_node_raises(self):
        sys = stack2()
        with pytest.raises(ModelError):
            sys.parent("nope")
        with pytest.raises(ModelError):
            sys.schedule("nope")
        with pytest.raises(ModelError):
            sys.schedule_of_transaction("r1")


class TestInvocationGraphAndLevels:
    def test_stack_levels(self):
        sys = stack2()
        assert sys.level_of("DB") == 1
        assert sys.level_of("Top") == 2
        assert sys.order == 2
        assert set(sys.schedules_at_level(1)) == {"DB"}

    def test_invocation_graph_edges(self):
        sys = stack2()
        ig = sys.invocation_graph
        assert ("Top", "DB") in ig
        assert ("DB", "Top") not in ig

    def test_figure1_levels(self):
        sys = figure1_system()
        levels = sys.levels
        assert levels["SD"] == 1 and levels["SE"] == 1
        assert levels["SB"] == 2 and levels["SC"] == 2
        assert levels["SA"] == 3
        assert sys.order == 3

    def test_figure1_roots_at_various_heights(self):
        sys = figure1_system()
        assert set(sys.roots) == {"T1", "T2", "T3", "T4", "T5"}
        assert sys.schedule_of_transaction("T5") == "SD"
        assert sys.schedule_of_transaction("T4") == "SB"

    def test_level_is_longest_path_plus_one(self):
        # Diamond: SA invokes SB and SC; SB invokes SC.  Longest path from
        # SA is SA->SB->SC, so level(SA)=3 even though SA->SC directly.
        b = SystemBuilder()
        b.transaction("T", "SA", ["b1", "c1"])
        b.transaction("b1", "SB", ["c2"])
        b.transaction("c1", "SC", ["x"])
        b.transaction("c2", "SC", ["y"])
        b.executed("SA", ["b1", "c1"])
        b.executed("SB", ["c2"])
        b.executed("SC", ["x", "y"])
        sys = b.build()
        assert sys.level_of("SC") == 1
        assert sys.level_of("SB") == 2
        assert sys.level_of("SA") == 3

    def test_self_invocation_rejected(self):
        b = SystemBuilder()
        b.transaction("T", "S", ["U"])
        b.transaction("U", "S", ["x"])
        with pytest.raises(CycleError):
            b.build()

    def test_mutual_recursion_rejected(self):
        b = SystemBuilder()
        b.transaction("T", "S1", ["U"])
        b.transaction("U", "S2", ["V"])
        b.transaction("V", "S1", ["x"])
        with pytest.raises(CycleError):
            b.build()


class TestExecutionTrees:
    def test_children(self):
        sys = stack2()
        assert sys.children("T1") == ("t11", "t12")
        assert sys.children("t11") == ("r1",)

    def test_activity(self):
        sys = stack2()
        assert sys.activity("T1") == {"t11", "t12", "r1", "w1"}

    def test_composite_transaction_includes_root(self):
        sys = stack2()
        tree = sys.composite_transaction("T1")
        assert "T1" in tree and "r1" in tree

    def test_composite_transaction_of_non_root_rejected(self):
        with pytest.raises(ModelError):
            stack2().composite_transaction("t11")

    def test_leaves_of(self):
        sys = stack2()
        assert sys.leaves_of("T1") == {"r1", "w1"}
        assert sys.leaves_of("r1") == {"r1"}

    def test_ancestors_and_root_of(self):
        sys = stack2()
        assert sys.ancestors("r1") == ["t11", "T1"]
        assert sys.root_of("r1") == "T1"
        assert sys.root_of("T1") == "T1"
        assert sys.depth("r1") == 2 and sys.depth("T1") == 0

    def test_all_nodes_covers_everything(self):
        sys = stack2()
        nodes = set(sys.all_nodes())
        assert nodes == {"T1", "T2", "t11", "t12", "t21", "r1", "w1", "w2"}


class TestCommonScheduleAndConflicts:
    def test_common_schedule_of_siblings(self):
        sys = stack2()
        assert sys.common_schedule("r1", "w2") == "DB"
        assert sys.common_schedule("t11", "t21") == "Top"

    def test_no_common_schedule_across_levels(self):
        sys = stack2()
        assert sys.common_schedule("r1", "t21") is None

    def test_roots_have_no_common_schedule(self):
        sys = stack2()
        assert sys.common_schedule("T1", "T2") is None
        assert sys.schedule_of_operation("T1") is None

    def test_local_conflicts(self):
        sys = stack2()
        assert sys.conflicting("r1", "w2")
        assert not sys.conflicting("r1", "w1")
        assert not sys.conflicting("r1", "t21")  # different schedules


class TestReductionSupport:
    def test_materialization_levels(self):
        sys = stack2()
        assert sys.materialization_level("r1") == 0
        assert sys.materialization_level("t11") == 1
        assert sys.materialization_level("T1") == 2

    def test_grouping_levels(self):
        sys = stack2()
        assert sys.grouping_level("r1") == 1  # folded into t11 at step 1
        assert sys.grouping_level("t11") == 2
        assert sys.grouping_level("T1") is None  # roots are never grouped

    def test_figure1_root_on_level1_schedule(self):
        sys = figure1_system()
        assert sys.materialization_level("T5") == 1
        assert sys.grouping_level("T5") is None


class TestOrderPropagationValidation:
    def test_missing_propagated_input_rejected(self):
        # Build schedules by hand, omitting the Def-4.7 input order.
        top = Schedule.from_sequence(
            "Top",
            [Transaction("T1", ["t11"]), Transaction("T2", ["t21"])],
            ["t11", "t21"],
            conflicts=[("t11", "t21")],
        )
        db = Schedule.from_sequence(
            "DB",
            [Transaction("t11", ["a"]), Transaction("t21", ["b"])],
            ["a", "b"],
            conflicts=[("a", "b")],
            # weak_input deliberately missing (t11, t21)
        )
        with pytest.raises(ModelError, match="4.7"):
            CompositeSystem([top, db])

    def test_validation_can_be_skipped(self):
        top = Schedule.from_sequence(
            "Top",
            [Transaction("T1", ["t11"]), Transaction("T2", ["t21"])],
            ["t11", "t21"],
            conflicts=[("t11", "t21")],
        )
        db = Schedule.from_sequence(
            "DB",
            [Transaction("t11", ["a"]), Transaction("t21", ["b"])],
            ["a", "b"],
            conflicts=[("a", "b")],
        )
        sys = CompositeSystem([top, db], validate=False)
        assert sys.order == 2


class TestOrderPropagationWork:
    """Def.-4.7 validation probes only the ordered same-callee pairs.

    The caller has many operations, all transactions of one callee, but
    only one output pair per caller transaction.  A scan over every
    ``ops × ops`` pair would probe ~8k² times; the row-wise check probes
    at most twice per ordered same-callee output pair.
    """

    K = 100  # caller transactions, two invoking operations each

    def build(self, propagate):
        b = SystemBuilder()
        for i in range(self.K):
            first, second = f"o{i}a", f"o{i}b"
            b.transaction(f"T{i}", "Top", [first, second], weak_order=[(first, second)])
            b.transaction(first, "DB", [f"x{i}"])
            b.transaction(second, "DB", [f"y{i}"])
        return b.build(validate=propagate, propagate_orders=propagate)

    def count_probes(self, monkeypatch, system):
        callee_inputs = {
            id(system.schedule("DB").weak_input),
            id(system.schedule("DB").strong_input),
        }
        counts = {"all": 0, "callee_input": 0}
        contains = Relation.__contains__

        def counting(relation, pair):
            counts["all"] += 1
            counts["callee_input"] += id(relation) in callee_inputs
            return contains(relation, pair)

        monkeypatch.setattr(Relation, "__contains__", counting)
        violations = list(system.iter_order_propagation_violations())
        monkeypatch.undo()
        return counts, violations

    def same_callee_output_pairs(self, system):
        top = system.schedule("Top")
        pairs = set(top.weak_output.pairs()) | set(top.strong_output.pairs())
        return {
            (a, b)
            for a, b in pairs
            if system.is_transaction(a)
            and system.is_transaction(b)
            and system.schedule_of_transaction(a) == system.schedule_of_transaction(b)
        }

    @pytest.mark.parametrize("propagate", [True, False])
    def test_probes_bounded_by_same_callee_pairs(self, monkeypatch, propagate):
        system = self.build(propagate)
        ordered = self.same_callee_output_pairs(system)
        assert len(ordered) == self.K
        counts, violations = self.count_probes(monkeypatch, system)
        assert len(violations) == (0 if propagate else self.K)
        assert counts["callee_input"] <= len(ordered)
        assert counts["all"] <= 2 * len(ordered)
