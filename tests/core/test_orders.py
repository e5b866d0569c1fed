"""Unit and property tests for the Relation engine (core/orders.py)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orders import (
    Relation,
    closure_counters,
    total_order_from_sequence,
)
from repro.exceptions import CycleError


def rel(*pairs, elements=()):
    return Relation(pairs=pairs, elements=elements)


class TestConstruction:
    def test_empty(self):
        r = Relation()
        assert len(r) == 0
        assert not r
        assert r.elements == ()

    def test_add_pair_registers_elements(self):
        r = rel(("a", "b"))
        assert ("a", "b") in r
        assert set(r.elements) == {"a", "b"}

    def test_add_is_idempotent(self):
        r = Relation()
        r.add("a", "b")
        r.add("a", "b")
        assert len(r) == 1

    def test_isolated_elements_kept(self):
        r = rel(("a", "b"), elements=("c",))
        assert "c" in r.elements
        assert r.topological_sort().count("c") == 1

    def test_discard(self):
        r = rel(("a", "b"))
        r.discard("a", "b")
        assert ("a", "b") not in r
        assert len(r) == 0
        assert set(r.elements) == {"a", "b"}

    def test_discard_missing_is_noop(self):
        r = rel(("a", "b"))
        r.discard("b", "a")
        assert len(r) == 1

    def test_copy_is_independent(self):
        r = rel(("a", "b"))
        clone = r.copy()
        clone.add("b", "c")
        assert ("b", "c") not in r
        assert ("a", "b") in clone

    def test_equality(self):
        assert rel(("a", "b")) == rel(("a", "b"))
        assert rel(("a", "b")) != rel(("b", "a"))
        assert rel(("a", "b")) != rel(("a", "b"), elements=("c",))

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(rel(("a", "b")))


class TestQueries:
    def test_successors_predecessors(self):
        r = rel(("a", "b"), ("a", "c"), ("b", "c"))
        assert r.successors("a") == {"b", "c"}
        assert r.predecessors("c") == {"a", "b"}
        assert r.successors("c") == set()

    def test_orders_is_symmetric_query(self):
        r = rel(("a", "b"))
        assert r.orders("a", "b")
        assert r.orders("b", "a")
        assert not r.orders("a", "c")

    def test_reaches(self):
        r = rel(("a", "b"), ("b", "c"))
        assert r.reaches("a", "c")
        assert not r.reaches("c", "a")
        assert not r.reaches("missing", "a")

    def test_pairs_deterministic(self):
        r = rel(("a", "c"), ("a", "b"))
        assert list(r.pairs()) == list(r.pairs())


class TestAlgebra:
    def test_union(self):
        u = rel(("a", "b")).union(rel(("b", "c")))
        assert ("a", "b") in u and ("b", "c") in u

    def test_union_keeps_isolated_elements(self):
        u = rel(("a", "b")).union(rel(elements=("z",)))
        assert "z" in u.elements

    def test_restricted_to(self):
        r = rel(("a", "b"), ("b", "c"), ("a", "c"))
        sub = r.restricted_to({"a", "c"})
        assert ("a", "c") in sub
        assert ("a", "b") not in sub
        assert set(sub.elements) == {"a", "c"}

    def test_mapped_quotient_drops_loops(self):
        r = rel(("a", "b"), ("b", "c"))
        group = {"a": "G", "b": "G", "c": "c"}
        q = r.mapped(lambda x: group[x])
        assert ("G", "c") in q
        assert ("G", "G") not in q

    def test_mapped_can_keep_loops(self):
        r = rel(("a", "b"))
        q = r.mapped(lambda _x: "G", drop_loops=False)
        assert ("G", "G") in q

    def test_inverse(self):
        r = rel(("a", "b"))
        assert ("b", "a") in r.inverse()

    def test_transitive_closure(self):
        r = rel(("a", "b"), ("b", "c"), ("c", "d"))
        tc = r.transitive_closure()
        assert ("a", "d") in tc
        assert ("d", "a") not in tc

    def test_closure_idempotent(self):
        r = rel(("a", "b"), ("b", "c"))
        once = r.transitive_closure()
        twice = once.transitive_closure()
        assert once == twice

    def test_closure_of_cycle_includes_self_pairs(self):
        r = rel(("a", "b"), ("b", "a"))
        tc = r.transitive_closure()
        assert ("a", "a") in tc
        assert ("b", "b") in tc


class TestOrderProperties:
    def test_find_cycle_none_when_acyclic(self):
        assert rel(("a", "b"), ("b", "c")).find_cycle() is None

    def test_find_cycle_witness(self):
        cycle = rel(("a", "b"), ("b", "c"), ("c", "a")).find_cycle()
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert len(cycle) == 4

    def test_self_loop_is_cycle(self):
        cycle = rel(("a", "a")).find_cycle()
        assert cycle == ["a", "a"]

    def test_is_acyclic(self):
        assert rel(("a", "b")).is_acyclic()
        assert not rel(("a", "b"), ("b", "a")).is_acyclic()

    def test_irreflexive(self):
        assert rel(("a", "b")).is_irreflexive()
        assert not rel(("a", "a")).is_irreflexive()

    def test_is_transitive(self):
        assert rel(("a", "b"), ("b", "c"), ("a", "c")).is_transitive()
        assert not rel(("a", "b"), ("b", "c")).is_transitive()

    def test_strict_partial_order(self):
        assert rel(("a", "b"), ("b", "c")).is_strict_partial_order()
        assert not rel(("a", "a")).is_strict_partial_order()
        assert not rel(("a", "b"), ("b", "a")).is_strict_partial_order()

    def test_is_total_over(self):
        r = rel(("a", "b"), ("b", "c"), ("a", "c"))
        assert r.is_total_over(["a", "b", "c"])
        assert not r.is_total_over(["a", "b", "c", "d"])
        assert r.is_total_over([])


class TestTopologicalSort:
    def test_respects_order(self):
        r = rel(("a", "b"), ("c", "b"), ("b", "d"))
        order = r.topological_sort()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("c") < order.index("b")

    def test_raises_with_witness_on_cycle(self):
        with pytest.raises(CycleError) as err:
            rel(("a", "b"), ("b", "a")).topological_sort()
        assert err.value.cycle[0] == err.value.cycle[-1]

    def test_deterministic_tie_break(self):
        r = Relation(elements=("z", "m", "a"))
        assert r.topological_sort() == ["z", "m", "a"]

    def test_all_topological_sorts_chain(self):
        r = rel(("a", "b"), ("b", "c"))
        assert list(r.all_topological_sorts()) == [["a", "b", "c"]]

    def test_all_topological_sorts_antichain(self):
        r = Relation(elements=("a", "b", "c"))
        sorts = list(r.all_topological_sorts())
        assert len(sorts) == 6

    def test_all_topological_sorts_limit(self):
        r = Relation(elements=tuple("abcdef"))
        assert len(list(r.all_topological_sorts(limit=5))) == 5

    def test_all_topological_sorts_cycle_yields_nothing(self):
        r = rel(("a", "b"), ("b", "a"))
        assert list(r.all_topological_sorts()) == []


class TestTotalOrderFromSequence:
    def test_adjacent_pairs(self):
        r = total_order_from_sequence(["a", "b", "c"])
        assert ("a", "b") in r and ("b", "c") in r
        assert ("a", "c") not in r
        assert ("a", "c") in r.transitive_closure()

    def test_single_and_empty(self):
        assert len(total_order_from_sequence(["a"])) == 0
        assert len(total_order_from_sequence([])) == 0


# ----------------------------------------------------------------------
# property-based tests
# ----------------------------------------------------------------------
nodes = st.integers(min_value=0, max_value=7)
pair_lists = st.lists(st.tuples(nodes, nodes), max_size=25)
dag_pairs = st.lists(
    st.tuples(nodes, nodes).filter(lambda p: p[0] < p[1]), max_size=25
)


@given(pair_lists)
@settings(max_examples=150, deadline=None)
def test_closure_is_monotone_and_idempotent(pairs):
    r = Relation(pairs)
    tc = r.transitive_closure()
    for pair in r.pairs():
        assert pair in tc
    assert tc.transitive_closure() == tc
    assert tc.is_transitive()


@given(dag_pairs)
@settings(max_examples=150, deadline=None)
def test_dags_linearize_consistently(pairs):
    r = Relation(pairs)
    assert r.is_acyclic()
    order = r.topological_sort()
    position = {e: i for i, e in enumerate(order)}
    for a, b in r.pairs():
        assert position[a] < position[b]
    assert sorted(order, key=str) == sorted(r.elements, key=str)


@given(pair_lists)
@settings(max_examples=150, deadline=None)
def test_cycle_witness_is_genuine(pairs):
    r = Relation(pairs)
    cycle = r.find_cycle()
    if cycle is None:
        assert r.topological_sort() is not None
    else:
        assert cycle[0] == cycle[-1]
        for a, b in zip(cycle, cycle[1:]):
            assert (a, b) in r


@given(pair_lists, pair_lists)
@settings(max_examples=100, deadline=None)
def test_union_contains_both(p1, p2):
    a, b = Relation(p1), Relation(p2)
    u = a.union(b)
    for pair in a.pairs():
        assert pair in u
    for pair in b.pairs():
        assert pair in u


@given(dag_pairs)
@settings(max_examples=60, deadline=None)
def test_quotient_of_identity_is_same_graph(pairs):
    r = Relation(pairs)
    assert r.mapped(lambda x: x) == r


def _warshall(relation):
    """The transitive closure as a pair set, by the textbook triple loop
    (``x R+ x`` exactly when ``x`` lies on a cycle or has a self-loop)."""
    reach = set(relation.pairs())
    elements = relation.elements
    for k in elements:
        for i in elements:
            if (i, k) in reach:
                for j in elements:
                    if (k, j) in reach:
                        reach.add((i, j))
    return reach


@st.composite
def closure_inputs(draw):
    """Random relations, their closures (already transitive), chains and
    relations with explicit self-loops."""
    shape = draw(st.sampled_from(["random", "closed", "chain", "loops"]))
    if shape == "chain":
        order = draw(st.permutations(range(draw(st.integers(0, 8)))))
        return Relation(zip(order, order[1:]), elements=order)
    relation = Relation(draw(pair_lists), elements=draw(st.lists(nodes)))
    if shape == "closed":
        return relation.transitive_closure()
    if shape == "loops":
        for x in draw(st.lists(nodes, min_size=1, max_size=4)):
            relation.add(x, x)
    return relation


@given(closure_inputs())
@settings(max_examples=200, deadline=None)
def test_closure_matches_warshall_and_is_independent_of_its_input(relation):
    before = list(relation.pairs())
    calls, rows = closure_counters()["calls"], closure_counters()["rows"]
    closed = relation.transitive_closure()
    counters = closure_counters()
    assert counters["calls"] == calls + 1
    assert counters["rows"] == rows + len(relation.elements)
    assert set(closed.pairs()) == _warshall(relation)
    assert closed.elements == relation.elements
    # The result shares no state with its input, in either direction.
    for x in relation.elements:
        closed.add(x, "fresh")
    assert list(relation.pairs()) == before
    snapshot = list(closed.pairs())
    for x in closed.elements:
        relation.add("other", x)
    assert list(closed.pairs()) == snapshot
