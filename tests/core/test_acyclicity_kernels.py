"""Differential tests for the bitset acyclicity kernels.

:meth:`Relation.is_acyclic` decides on the bitset rows; the pinned
witness DFS runs only when it reports a cycle.  These properties pin
the decider to the historical dict engine's DFS, ``topological_sort``
to a naive lowest-ready-index reference, ``find_cycle_in_union`` to a
materialized union, and the masked Def.-16 kernels of
``core/calculation.py`` to copies of their ``restricted_to``-based
predecessors.
"""

from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calculation import (
    Grouping,
    find_isolation_failure,
    witness_sequence,
)
from repro.core.front import ReductionFailure
from repro.core.orders import Relation, find_cycle_in_union
from repro.exceptions import CycleError
from tests.core.dict_engine import DictRelation


@st.composite
def relations(draw, max_nodes=8):
    """A relation over a shuffled carrier (index order differs from the
    witness DFS's sort order), self-loops allowed."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    nodes = draw(st.permutations([f"n{i}" for i in range(n)]))
    index = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(index, index), max_size=3 * n)) if n else []
    return Relation([(nodes[a], nodes[b]) for a, b in edges], elements=nodes)


@st.composite
def masked(draw):
    relation = draw(relations())
    members = draw(st.lists(st.sampled_from(relation.elements), unique=True)
                   if relation.elements else st.just([]))
    return relation, relation.mask_of(members), draw(st.booleans())


def _dict_restriction(relation, members, skip_self_loops):
    keep = set(members)
    return DictRelation(
        [
            (a, b)
            for a, b in relation.pairs()
            if a in keep and b in keep and not (skip_self_loops and a == b)
        ],
        elements=[e for e in relation.elements if e in keep],
    )


@given(masked())
@settings(max_examples=300, deadline=None)
def test_decider_agrees_with_the_witness_dfs(case):
    relation, mask, skip = case
    members = relation.unpack(mask)
    expected = _dict_restriction(relation, members, skip).find_cycle() is None
    assert relation.is_acyclic(mask, skip_self_loops=skip) == expected
    whole = _dict_restriction(relation, relation.elements, False)
    assert relation.is_acyclic() == (whole.find_cycle() is None)
    assert relation.find_cycle() == whole.find_cycle()


def _naive_topological_sort(relation: Relation, members: List) -> List:
    """Repeatedly emit the lowest-index member with no pending member
    predecessor."""
    left = [e for e in relation.elements if e in set(members)]
    out: List = []
    while left:
        for e in left:
            if not any((p, e) in relation for p in left):
                break
        else:
            raise CycleError("cyclic", [])
        out.append(e)
        left.remove(e)
    return out


@given(masked())
@settings(max_examples=300, deadline=None)
def test_topological_sort_is_the_lowest_ready_index_order(case):
    relation, mask, _ = case
    for members, arg in ((relation.elements, None), (relation.unpack(mask), mask)):
        try:
            expected = _naive_topological_sort(relation, members)
        except CycleError:
            with pytest.raises(CycleError) as info:
                relation.topological_sort(arg)
            cycle = info.value.cycle
            assert cycle[0] == cycle[-1] and set(cycle) <= set(members)
        else:
            assert relation.topological_sort(arg) == expected


@given(relations(), relations(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_find_cycle_in_union_matches_the_materialized_union(r1, r2, skip):
    union = r1.union(r2)
    if skip:
        union.remove_self_loops()
    assert find_cycle_in_union((r1, r2), skip_self_loops=skip) == union.find_cycle()


# ----------------------------------------------------------------------
# Def. 16 step 1: the masked kernels against their restricted_to versions
# ----------------------------------------------------------------------
def _old_find_isolation_failure(
    constraints: Relation, grouping: Grouping
) -> Optional[ReductionFailure]:
    for parent, members in grouping.groups.items():
        cycle = constraints.restricted_to(members).find_cycle()
        if cycle is not None:
            return ReductionFailure(
                level=grouping.level,
                stage="calculation",
                cycle=cycle,
                blocked=(parent,),
            )
    cycle = constraints.mapped(grouping.rep).find_cycle()
    if cycle is not None:
        blocked = tuple(node for node in cycle[:-1] if node in grouping.groups)
        return ReductionFailure(
            level=grouping.level, stage="calculation", cycle=cycle, blocked=blocked
        )
    return None


def _old_witness_sequence(
    constraints: Relation, grouping: Grouping, nodes: Tuple[str, ...]
) -> List[str]:
    quotient = constraints.mapped(grouping.rep)
    for node in nodes:
        quotient.add_element(grouping.rep(node))
    sequence: List[str] = []
    for rep in quotient.topological_sort():
        members = grouping.groups.get(rep)
        if members is None:
            sequence.append(rep)
        else:
            internal = constraints.restricted_to(members)
            for member in members:
                internal.add_element(member)
            sequence.extend(internal.topological_sort())
    return sequence


def _grouping(nodes, assignment) -> Grouping:
    representative = {}
    groups = {}
    for node, label in zip(nodes, assignment):
        if label is None:
            representative[node] = node
        else:
            representative[node] = label
            groups.setdefault(label, []).append(node)
    return Grouping(level=1, representative=representative, groups=groups)


@st.composite
def isolation_instances(draw):
    constraints = draw(relations(max_nodes=9))
    nodes = constraints.elements
    assignment = draw(
        st.lists(
            st.sampled_from([None, "G0", "G1", "G2"]),
            min_size=len(nodes),
            max_size=len(nodes),
        )
    )
    # group member lists in an order of their own, as a front lists them
    front = draw(st.permutations(nodes))
    labels = dict(zip(nodes, assignment))
    return constraints, _grouping(front, [labels[n] for n in front]), tuple(front)


def _assert_same_verdict(constraints, grouping, nodes):
    old = _old_find_isolation_failure(constraints, grouping)
    new = find_isolation_failure(constraints, grouping)
    if old is None:
        assert new is None
        assert witness_sequence(constraints, grouping, nodes) == (
            _old_witness_sequence(constraints, grouping, nodes)
        )
    else:
        assert new is not None
        assert (new.level, new.stage, new.cycle, new.blocked) == (
            old.level, old.stage, old.cycle, old.blocked
        )
    return new


@given(isolation_instances())
@settings(max_examples=400, deadline=None)
def test_isolation_kernels_match_their_restricted_versions(instance):
    _assert_same_verdict(*instance)


def test_two_cycle_inside_a_group():
    constraints = Relation(
        [("a", "b"), ("b", "a"), ("c", "d")], elements=["c", "a", "b", "d"]
    )
    grouping = _grouping(["c", "a", "b", "d"], ["G1", "G0", "G0", "G1"])
    failure = _assert_same_verdict(constraints, grouping, ("c", "a", "b", "d"))
    assert failure.cycle == ["a", "b", "a"] and failure.blocked == ("G0",)


def test_cycle_only_through_the_quotient():
    # a -> c -> b with a, b grouped: each group is acyclic, the
    # quotient G0 -> c -> G0 is not
    constraints = Relation([("a", "c"), ("c", "b")], elements=["a", "b", "c"])
    grouping = _grouping(["a", "b", "c"], ["G0", "G0", None])
    failure = _assert_same_verdict(constraints, grouping, ("a", "b", "c"))
    assert failure.cycle == ["G0", "c", "G0"] and failure.blocked == ("G0",)


def test_cycle_only_through_an_input_order():
    # the observed pairs alone leave both groups isolable; the input
    # order y -> b (part of the constraints, Def. 19) closes
    # G0 -> G1 -> G0
    nodes = ["a", "b", "x", "y"]
    observed = Relation([("a", "x")], elements=nodes)
    grouping = _grouping(nodes, ["G0", "G0", "G1", "G1"])
    assert _assert_same_verdict(observed, grouping, tuple(nodes)) is None
    constraints = observed.union(Relation([("y", "b")], elements=nodes))
    failure = _assert_same_verdict(constraints, grouping, tuple(nodes))
    assert failure.cycle == ["G0", "G1", "G0"]
    assert failure.blocked == ("G0", "G1")
