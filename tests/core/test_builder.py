"""Unit tests for SystemBuilder: fluent API, propagation, from_spec."""

import pytest

from repro.core.builder import (
    SystemBuilder,
    build_system,
    executed_sequence_error,
)
from repro.exceptions import CycleError, ModelError
from repro.lint.diagnostics import DiagnosticCollector
from repro.lint.wellformed import lint_system_document


class TestDeclaration:
    def test_schedule_idempotent(self):
        b = SystemBuilder().schedule("S").schedule("S")
        b.transaction("T", "S", ["a"]).executed("S", ["a"])
        assert b.build().order == 1

    def test_duplicate_transaction_rejected(self):
        b = SystemBuilder()
        b.transaction("T", "S", ["a"])
        with pytest.raises(ModelError):
            b.transaction("T", "S2", ["b"])

    def test_fluent_chaining(self):
        sys = (
            SystemBuilder()
            .transaction("T1", "S", ["a"])
            .transaction("T2", "S", ["b"])
            .conflict("S", "a", "b")
            .executed("S", ["a", "b"])
            .build()
        )
        assert set(sys.roots) == {"T1", "T2"}

    def test_conflicts_bulk(self):
        b = SystemBuilder()
        b.transaction("T1", "S", ["a"]).transaction("T2", "S", ["b"])
        b.conflicts("S", [("a", "b")])
        b.executed("S", ["a", "b"])
        assert b.build().schedule("S").conflicting("a", "b")

    def test_empty_build_rejected(self):
        with pytest.raises(ModelError):
            SystemBuilder().build()

    @pytest.mark.parametrize(
        "sequence, missing, extra",
        [(["a"], ["b"], []), (["a", "b", "a"], [], []), (["a", "b", "z"], [], ["z"])],
    )
    def test_build_refuses_an_executed_sequence_that_does_not_fit(
        self, sequence, missing, extra
    ):
        b = SystemBuilder().transaction("T", "S", ["a", "b"])
        b.executed("S", sequence)
        with pytest.raises(ModelError) as caught:
            b.build()
        assert caught.value.code == "CTX302"
        assert str(caught.value) == (
            "execution sequence of 'S' does not match the declared "
            f"operations (missing={missing}, extra={extra})"
        )

    def test_a_rebuild_keeps_unchanged_schedules(self):
        b = SystemBuilder()
        b.transaction("T1", "Top", ["t1"]).transaction("t1", "Bottom", ["a"])
        first = b.build()
        b.transaction("T2", "Top", ["t2"]).transaction("t2", "Other", ["c"])
        second = b.build()
        assert second.schedule("Bottom") is first.schedule("Bottom")
        assert second.schedule("Top") is not first.schedule("Top")
        b.weak_output("Top", "t1", "t2")
        third = b.build(validate=False)
        assert third.schedule("Other") is second.schedule("Other")
        assert third.schedule("Top") is not second.schedule("Top")
        assert dict(third.levels) == dict(build_system({
            "schedules": {
                "Top": {
                    "transactions": {"T1": ["t1"], "T2": ["t2"]},
                    "weak_output": [["t1", "t2"]],
                },
                "Bottom": {"transactions": {"t1": ["a"]}},
                "Other": {"transactions": {"t2": ["c"]}},
            }
        }).levels)

    def test_a_rebuild_reconstructs_a_callee_whose_propagated_inputs_grew(self):
        b = SystemBuilder()
        b.transaction("T1", "Top", ["t1", "t2"])
        b.transaction("t1", "Bottom", ["a"]).transaction("t2", "Bottom", ["b"])
        first = b.build()
        b.weak_output("Top", "t1", "t2")
        second = b.build()
        assert second.schedule("Bottom") is not first.schedule("Bottom")
        assert ("t1", "t2") in second.schedule("Bottom").weak_input

    def test_a_rebuild_passes_orders_to_a_callee_declared_later(self):
        b = SystemBuilder().transaction("T1", "Top", ["v", "w"])
        b.weak_output("Top", "v", "w")
        b.build(validate=False)
        b.transaction("v", "Bottom", ["a"]).transaction("w", "Bottom", ["b"])
        assert ("v", "w") in b.build().schedule("Bottom").weak_input

    def test_unknown_execution_mode_rejected(self):
        b = SystemBuilder()
        with pytest.raises(ModelError):
            b.executed("S", ["a"], mode="banana")


    def test_unknown_strong_input_is_a_model_error(self):
        b = SystemBuilder()
        b.transaction("T1", "S", ["a"]).transaction("T2", "S", ["b"])
        b.strong_input("S", "T1", "T9")
        with pytest.raises(ModelError) as caught:
            b.build()
        assert str(caught.value) == (
            "strong input order of schedule 'S' mentions 'T9', which is "
            "not one of its transactions"
        )


class TestExecutionModes:
    def make(self, mode):
        b = SystemBuilder()
        b.transaction("T1", "S", ["a"]).transaction("T2", "S", ["b"])
        b.transaction("T3", "S", ["c"])
        b.conflict("S", "a", "b")
        b.executed("S", ["a", "b", "c"], mode=mode)
        return b.build()

    def test_conflicts_mode_commits_conflicting_pairs_only(self):
        s = self.make("conflicts").schedule("S")
        assert ("a", "b") in s.weak_output
        assert ("b", "c") not in s.weak_output

    def test_temporal_mode_commits_all(self):
        s = self.make("temporal").schedule("S")
        assert ("b", "c") in s.weak_output
        assert ("a", "c") in s.weak_output  # closed


class TestOrderPropagation:
    def test_weak_output_becomes_callee_weak_input(self):
        b = SystemBuilder()
        b.transaction("T1", "Top", ["u"]).transaction("T2", "Top", ["v"])
        b.conflict("Top", "u", "v")
        b.executed("Top", ["u", "v"])
        b.transaction("u", "DB", ["x"]).transaction("v", "DB", ["y"])
        b.conflict("DB", "x", "y")
        b.executed("DB", ["x", "y"])
        sys = b.build()
        assert ("u", "v") in sys.schedule("DB").weak_input

    def test_strong_output_becomes_callee_strong_input(self):
        b = SystemBuilder()
        b.transaction("T1", "Top", ["u", "v"], strong_order=[("u", "v")])
        b.executed("Top", ["u", "v"])
        b.transaction("u", "DB", ["x"]).transaction("v", "DB", ["y"])
        b.executed("DB", ["x", "y"])
        sys = b.build()
        assert ("u", "v") in sys.schedule("DB").strong_input
        # and axiom 3 then forces the strong output at DB:
        assert ("x", "y") in sys.schedule("DB").strong_output

    def test_propagation_can_be_disabled(self):
        b = SystemBuilder()
        b.transaction("T1", "Top", ["u"]).transaction("T2", "Top", ["v"])
        b.conflict("Top", "u", "v")
        b.executed("Top", ["u", "v"])
        b.transaction("u", "DB", ["x"]).transaction("v", "DB", ["y"])
        b.executed("DB", ["x", "y"])
        with pytest.raises(ModelError, match="4.7"):
            b.build(propagate_orders=False)

    def test_deep_propagation_through_three_levels(self):
        b = SystemBuilder()
        b.transaction("T1", "A", ["m1", "m2"], strong_order=[("m1", "m2")])
        b.executed("A", ["m1", "m2"])
        b.transaction("m1", "B", ["n1"]).transaction("m2", "B", ["n2"])
        b.executed("B", ["n1", "n2"])
        b.transaction("n1", "C", ["x"]).transaction("n2", "C", ["y"])
        b.executed("C", ["x", "y"])
        sys = b.build()
        # Strong order cascades: T1's strong intra order sequences m1<<m2,
        # which axiom 3 expands to n1<<n2 at B, which propagates to C.
        assert ("n1", "n2") in sys.schedule("C").strong_input
        assert ("x", "y") in sys.schedule("C").strong_output


    def test_mixed_strong_weak_chain_binds_callee_weak_input(self):
        # a << x < b in the caller: the weak output order (the closure of
        # strong ∪ weak) holds a < b, so Def. 4.7 binds S1's weak input.
        b = SystemBuilder()
        b.transaction("T", "Top", ["a", "x", "b"])
        b.strong_output("Top", "a", "x")
        b.weak_output("Top", "x", "b")
        b.transaction("a", "S1", ["p"]).transaction("b", "S1", ["q"])
        b.executed("S1", ["p", "q"])
        sys = b.build()
        assert ("a", "b") in sys.schedule("Top").weak_output
        assert ("a", "b") in sys.schedule("S1").weak_input
        assert ("a", "b") not in sys.schedule("S1").strong_input

    def test_propagation_reaches_a_fixed_point_through_axiom_3(self):
        # Top's strong order u << v becomes DB's strong input, axiom 3
        # turns it into m1 << m2 at DB, which binds Leaf's strong input.
        b = SystemBuilder()
        b.transaction("T", "Top", ["u", "v"], strong_order=[("u", "v")])
        b.transaction("u", "DB", ["m1"]).transaction("v", "DB", ["m2"])
        b.transaction("m1", "Leaf", ["p"]).transaction("m2", "Leaf", ["q"])
        b.executed("Leaf", ["p", "q"])
        sys = b.build()
        assert ("m1", "m2") in sys.schedule("DB").strong_output
        assert ("m1", "m2") in sys.schedule("Leaf").strong_input
        assert ("p", "q") in sys.schedule("Leaf").strong_output


    def test_recursion_across_propagated_orders_is_a_cycle_error(self):
        # S1 and S2 invoke each other, so neither comes first; T's strong
        # order u1 << u2 still binds S2, and the system reports the cycle.
        b = SystemBuilder()
        b.transaction("T", "S1", ["u1", "u2"], sequential=True)
        b.transaction("u1", "S2", ["V"]).transaction("u2", "S2", ["x"])
        b.transaction("V", "S1", ["y"])
        with pytest.raises(CycleError, match="recursion in the invocation"):
            b.build()


class TestFromSpec:
    SPEC = {
        "schedules": {
            "Top": {
                "transactions": {
                    "T1": ["t11", "t12"],
                    "T2": {"ops": ["t21"], "sequential": True},
                },
                "executed": ["t11", "t21", "t12"],
            },
            "DB": {
                "transactions": {
                    "t11": ["r1"],
                    "t12": ["w1"],
                    "t21": ["w2"],
                },
                "conflicts": [["r1", "w2"], ["w2", "w1"]],
                "executed": ["r1", "w2", "w1"],
            },
        }
    }

    def test_round_trip(self):
        sys = build_system(self.SPEC)
        assert sys.order == 2
        assert set(sys.roots) == {"T1", "T2"}
        assert sys.schedule("DB").conflicting("r1", "w2")

    def test_spec_with_explicit_orders(self):
        spec = {
            "schedules": {
                "S": {
                    "transactions": {
                        "T1": {"ops": ["a", "b"], "weak": [["a", "b"]]},
                        "T2": ["c"],
                    },
                    "conflicts": [["b", "c"]],
                    "weak_output": [["a", "b"], ["b", "c"]],
                    "weak_input": [["T1", "T2"]],
                }
            }
        }
        sys = build_system(spec)
        assert ("T1", "T2") in sys.schedule("S").weak_input

    def test_spec_executed_mode(self):
        spec = {
            "schedules": {
                "S": {
                    "transactions": {"T1": ["a"], "T2": ["b"]},
                    "executed": ["a", "b"],
                    "executed_mode": "temporal",
                }
            }
        }
        sys = build_system(spec)
        assert ("a", "b") in sys.schedule("S").weak_output

    @pytest.mark.parametrize(
        "key",
        [
            "conflicts",
            "weak_output",
            "strong_output",
            "weak_input",
            "strong_input",
            "T1.weak",
            "T1.strong",
        ],
    )
    @pytest.mark.parametrize(
        "entry", [["a", "b", "c"], ["a"], 7, "ab", ["a", 5], ["a", ["b"]]]
    )
    def test_spec_rejects_malformed_pairs(self, key, entry):
        body = {"transactions": {"T1": {"ops": ["a", "b"]}, "T2": ["c"]}}
        if key.startswith("T1."):
            body["transactions"]["T1"][key[3:]] = [entry]
        else:
            body[key] = [entry]
        with pytest.raises(ModelError) as info:
            SystemBuilder.from_spec({"schedules": {"S": body}})
        assert str(info.value) == (
            f"{key!r} of schedule 'S' contains the malformed entry "
            f"{entry!r} (expected a pair)"
        )

    def test_lint_and_builder_word_malformed_pairs_alike(self):
        body = {"transactions": {"T1": ["a", "b"]},
                "conflicts": [["a", "b", "c"], 7]}
        collector = DiagnosticCollector()
        lint_system_document(collector, {"schedules": {"S": body}})
        reported = [d.message for d in collector.errors if d.code == "CTX305"]
        assert reported == [
            "'conflicts' of schedule 'S' contains the malformed entry "
            f"{entry!r} (expected a pair)"
            for entry in body["conflicts"]
        ]
        with pytest.raises(ModelError) as info:
            SystemBuilder.from_spec({"schedules": {"S": body}})
        assert str(info.value) == reported[0]

    def test_spec_rejects_a_pair_list_that_is_not_a_list(self):
        spec = {"schedules": {"S": {"transactions": {"T1": ["a"]},
                                    "conflicts": "ab"}}}
        with pytest.raises(ModelError, match="not a list of pairs"):
            SystemBuilder.from_spec(spec)

    @pytest.mark.parametrize(
        "executed, missing, extra",
        [(["b", "zz"], ["a"], ["zz"]), (["a"], ["b"], []),
         (["a", "b", "b"], [], []), ([], ["a", "b"], [])],
    )
    def test_spec_rejects_an_executed_sequence_of_other_operations(
        self, executed, missing, extra
    ):
        spec = {"schedules": {"S": {"transactions": {"T1": ["a"], "T2": ["b"]},
                                    "executed": executed}}}
        message = (
            "execution sequence of 'S' does not match the declared "
            f"operations (missing={missing}, extra={extra})"
        )
        error = executed_sequence_error("S", executed, ["a", "b"])
        assert (str(error), error.code, error.nodes) == (
            message,
            "CTX302",
            tuple(missing + extra),
        )
        with pytest.raises(ModelError) as info:
            build_system(spec)
        assert str(info.value) == message

    def test_spec_accepts_an_executed_sequence_in_any_order(self):
        spec = {"schedules": {"S": {"transactions": {"T1": ["a"], "T2": ["b"]},
                                    "conflicts": [["a", "b"]],
                                    "executed": ["b", "a"]}}}
        assert executed_sequence_error("S", ["b", "a"], ["a", "b"]) is None
        assert ("b", "a") in build_system(spec).schedule("S").weak_output

    def test_spec_null_executed_records_no_sequence(self):
        spec = {"schedules": {"S": {"transactions": {"T1": ["a"], "T2": ["b"]},
                                    "executed": None,
                                    "weak_output": [["a", "b"]]}}}
        assert ("a", "b") in build_system(spec).schedule("S").weak_output
