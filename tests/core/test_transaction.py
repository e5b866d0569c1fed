"""Unit tests for Def.-2 transactions."""

import json

import pytest

from repro.core.builder import SystemBuilder
from repro.core.orders import Relation, closure_counters
from repro.core.transaction import Transaction
from repro.exceptions import CycleError, ModelError
from repro.io.text_format import dumps, loads


class TestConstruction:
    def test_basic(self):
        t = Transaction("T", ["a", "b", "c"])
        assert t.operations == ("a", "b", "c")
        assert len(t) == 3
        assert not t.weakly_ordered("a", "b")

    def test_empty_name_rejected(self):
        with pytest.raises(ModelError):
            Transaction("", ["a"])

    def test_duplicate_operations_rejected(self):
        with pytest.raises(ModelError):
            Transaction("T", ["a", "a"])

    def test_self_containment_rejected(self):
        with pytest.raises(ModelError):
            Transaction("T", ["T"])

    def test_order_over_unknown_op_rejected(self):
        with pytest.raises(ModelError):
            Transaction("T", ["a"], weak_order=[("a", "zzz")])
        with pytest.raises(ModelError):
            Transaction("T", ["a"], strong_order=[("zzz", "a")])

    def test_cyclic_weak_order_rejected(self):
        with pytest.raises(CycleError):
            Transaction("T", ["a", "b"], weak_order=[("a", "b"), ("b", "a")])

    @pytest.mark.parametrize(
        "orders, cycle",
        [
            (
                dict(weak_order=[("a", "b"), ("b", "c"), ("c", "a")]),
                ["a", "b", "c", "a"],
            ),
            (
                dict(weak_order=[("c", "b")], strong_order=[("a", "c"), ("b", "a")]),
                ["a", "c", "b", "a"],
            ),
        ],
        ids=["orders0", "orders1"],
    )
    def test_cyclic_order_names_its_cycle(self, orders, cycle):
        """The witness is the declared path, not the self-loop that the
        closure puts on each of its nodes."""
        with pytest.raises(CycleError) as err:
            Transaction("T", ["a", "b", "c", "d"], **orders)
        assert err.value.cycle == cycle
        assert str(err.value) == (
            "intra-transaction order of 'T' is cyclic: cycle "
            + " -> ".join(cycle)
        )

    def test_empty_operations_allowed(self):
        # Degenerate but legal: a transaction that did nothing.
        t = Transaction("T", [])
        assert t.operations == ()


class TestOrders:
    def test_strong_implies_weak(self):
        t = Transaction("T", ["a", "b"], strong_order=[("a", "b")])
        assert t.strongly_ordered("a", "b")
        assert t.weakly_ordered("a", "b")

    def test_weak_does_not_imply_strong(self):
        t = Transaction("T", ["a", "b"], weak_order=[("a", "b")])
        assert t.weakly_ordered("a", "b")
        assert not t.strongly_ordered("a", "b")

    def test_orders_transitively_closed(self):
        t = Transaction(
            "T", ["a", "b", "c"], weak_order=[("a", "b"), ("b", "c")]
        )
        assert t.weakly_ordered("a", "c")

    def test_sequential_flag_builds_total_strong_order(self):
        t = Transaction("T", ["a", "b", "c"], sequential=True)
        assert t.strongly_ordered("a", "c")
        assert t.is_sequential()

    def test_non_sequential(self):
        t = Transaction("T", ["a", "b"])
        assert not t.is_sequential()

    def test_mixed_weak_cycle_with_strong_rejected(self):
        with pytest.raises(CycleError):
            Transaction(
                "T",
                ["a", "b"],
                weak_order=[("b", "a")],
                strong_order=[("a", "b")],
            )


class TestValueSemantics:
    def test_equality(self):
        a = Transaction("T", ["x", "y"], weak_order=[("x", "y")])
        b = Transaction("T", ["x", "y"], weak_order=[("x", "y")])
        assert a == b

    def test_inequality_on_orders(self):
        a = Transaction("T", ["x", "y"], weak_order=[("x", "y")])
        b = Transaction("T", ["x", "y"])
        assert a != b

    def test_hashable(self):
        assert {Transaction("T", ["x"])}

    def test_repr_mentions_name(self):
        assert "T9" in repr(Transaction("T9", ["x"]))


class TestOrderFree:
    """A transaction with no intra order builds its two empty relations
    on first read."""

    def test_orders_are_empty_relations_over_the_operations(self):
        t = Transaction("T", ["x", "y"])
        assert not t.ordered
        assert t.weak_order == Relation(elements=["x", "y"])
        assert t.strong_order == Relation(elements=["x", "y"])
        assert t.weak_order is not t.strong_order
        assert t.weak_order is t.weak_order
        assert t.strong_order is t.strong_order
        assert not t.ordered

    def test_ordered_iff_an_intra_pair_is_declared(self):
        assert Transaction("T", ["x", "y"], weak_order=[("x", "y")]).ordered
        assert Transaction("T", ["x", "y"], strong_order=[("x", "y")]).ordered
        assert Transaction("T", ["x", "y"], sequential=True).ordered
        assert not Transaction("T", ["x"], sequential=True).ordered

    def test_equal_to_explicit_empty_orders(self):
        free = Transaction("T", ["x", "y"])
        explicit = Transaction("T", ["x", "y"], weak_order=[], strong_order=[])
        assert free == explicit and explicit == free
        assert hash(free) == hash(explicit)
        assert {free, explicit} == {free}

    def test_unequal_to_an_ordered_transaction(self):
        free = Transaction("T", ["x", "y"])
        ordered = Transaction("T", ["x", "y"], weak_order=[("x", "y")])
        assert free != ordered and ordered != free

    def test_queries(self):
        t = Transaction("T", ["x", "y"])
        assert not t.weakly_ordered("x", "y")
        assert not t.strongly_ordered("x", "y")
        assert not t.is_sequential()
        assert Transaction("T", ["x"]).is_sequential()

    def test_document_round_trip_is_byte_identical(self):
        b = SystemBuilder()
        b.transaction("T1", "S", ["a", "b"])
        b.transaction("T2", "S", ["c", "d"], weak_order=[("c", "d")])
        b.transaction("T3", "S", [])
        b.conflict("S", "a", "c")
        b.executed("S", ["a", "c", "b", "d"])
        text = dumps(b.build())
        assert json.loads(text)["schedules"]["S"]["transactions"]["T1"] == {
            "ops": ["a", "b"],
            "strong": [],
            "weak": [],
        }
        system = loads(text).system
        assert not system.schedule("S").transactions["T1"].ordered
        assert dumps(system) == text

    def test_construction_makes_no_closure_call(self):
        before = closure_counters()
        t = Transaction("T", ["x", "y", "z"])
        t.weak_order, t.strong_order
        assert closure_counters() == before
