"""Property tests for the incremental-closure machinery.

The reduction engine stands on two relation facts pinned here (DESIGN.md
lists them with the engine's invariants):

1. ``add_closed`` on a closed relation equals the full closure of the
   union with the delta;
2. the restriction of a transitively closed relation is closed, and
   ``restricted_to``'s explicit-carrier form preserves the caller's
   carrier order.

``TestEngineEquivalence`` checks the fronts the engine builds on them
against the independent oracle of :mod:`tests.core.front_oracle`, and
that two reductions of one system are byte-identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orders import Relation
from repro.core.reduction import reduce_to_roots
from repro.testing import recorded_executions
from tests.core.front_oracle import disagreements

ELEMENTS = [f"e{i}" for i in range(10)]

pair_lists = st.lists(
    st.tuples(st.sampled_from(ELEMENTS), st.sampled_from(ELEMENTS)),
    max_size=25,
)


def closed_relations():
    return pair_lists.map(
        lambda pairs: Relation(pairs, elements=ELEMENTS).transitive_closure()
    )


class TestDeltaClosure:
    @given(closed_relations(), pair_lists)
    @settings(max_examples=100, deadline=None)
    def test_add_closed_matches_from_scratch(self, closed, delta):
        scratch = closed.union(
            Relation(delta, elements=ELEMENTS)
        ).transitive_closure()
        closed.add_closed(delta)
        assert closed == scratch

    @given(closed_relations(), pair_lists)
    @settings(max_examples=50, deadline=None)
    def test_delta_closure_with_new_elements(self, closed, delta):
        fresh = ["n0", "n1"]
        delta = delta + [("n0", "n1"), (ELEMENTS[0], "n0")]
        scratch = closed.union(
            Relation(delta, elements=ELEMENTS + fresh)
        ).transitive_closure()
        closed.add_closed(delta, elements=fresh)
        assert closed == scratch

    @given(closed_relations())
    @settings(max_examples=50, deadline=None)
    def test_empty_delta_is_identity(self, closed):
        grown = closed.copy()
        assert grown.add_closed([]) == 0
        assert grown == closed


class TestRestriction:
    @given(closed_relations(), st.sets(st.sampled_from(ELEMENTS)))
    @settings(max_examples=100, deadline=None)
    def test_restriction_of_closed_is_closed(self, closed, keep):
        restricted = closed.restricted_to(keep)
        assert restricted == restricted.transitive_closure()

    @given(pair_lists, st.sets(st.sampled_from(ELEMENTS)))
    @settings(max_examples=100, deadline=None)
    def test_restriction_keeps_exactly_internal_pairs(self, pairs, keep):
        relation = Relation(pairs, elements=ELEMENTS)
        restricted = relation.restricted_to(keep)
        expected = {(a, b) for a, b in pairs if a in keep and b in keep}
        assert set(restricted.pairs()) == expected
        assert set(restricted.elements) == keep

    @given(pair_lists, st.sets(st.sampled_from(ELEMENTS)))
    @settings(max_examples=50, deadline=None)
    def test_explicit_carrier_sets_element_order(self, pairs, keep):
        relation = Relation(pairs, elements=ELEMENTS)
        carrier = [e for e in ELEMENTS if e in keep] + ["extra"]
        restricted = relation.restricted_to(keep, carrier=carrier)
        assert list(restricted.elements) == carrier
        assert restricted.successors("extra") == set()


class TestEngineEquivalence:
    @given(recorded_executions(kinds=("stack", "fork", "join", "dag")))
    @settings(max_examples=40, deadline=None)
    def test_incremental_engine_is_byte_identical(self, recorded):
        system = recorded.system
        result = reduce_to_roots(system)
        assert disagreements(system, result) == []
        again = reduce_to_roots(system)
        assert again.succeeded == result.succeeded
        assert len(again.fronts) == len(result.fronts)
        for fa, fr in zip(again.fronts, result.fronts):
            assert fa.nodes == fr.nodes
            # pairs() iteration is canonical, so demand identical
            # *sequences*, not merely equal sets: narratives and traces
            # print in this order.
            assert list(fa.observed.pairs()) == list(fr.observed.pairs())
            assert list(fa.input_weak.pairs()) == list(fr.input_weak.pairs())
            assert list(fa.input_strong.pairs()) == list(
                fr.input_strong.pairs()
            )
        assert again.witnesses == result.witnesses
        if result.succeeded:
            assert again.serial_order() == result.serial_order()
