"""Unit tests for the observed order: seeding, pull-up, the meeting gate."""

from repro.core.builder import SystemBuilder
from repro.core.observed import (
    ObservedOrderOptions,
    carried_restriction,
    observed_between_trees,
    pull_up_delta,
    seed_observed_pairs,
)
from repro.core.orders import Relation
from repro.core.reduction import reduce_to_roots


def pull_up(system, observed, representative, options=ObservedOrderOptions()):
    """One pull-up step as the engine composes it: the carried
    restriction plus the rewritten, Def.-10-gated pairs."""
    grouped = frozenset(
        n for n in observed.elements if representative(n) != n
    )
    lifted = carried_restriction(observed, representative, grouped)
    lifted.add_all(
        pull_up_delta(
            system, observed, representative, options, grouped=grouped
        )
    )
    return lifted


def two_level(top_conflicts=(), db_exec=("x", "y"), top_exec=("u", "v")):
    b = SystemBuilder()
    b.transaction("T1", "Top", ["u"]).transaction("T2", "Top", ["v"])
    for a, c in top_conflicts:
        b.conflict("Top", a, c)
    b.executed("Top", list(top_exec))
    b.transaction("u", "DB", ["x"]).transaction("v", "DB", ["y"])
    b.conflict("DB", "x", "y")
    b.executed("DB", list(db_exec))
    return b.build()


class TestSeeding:
    def test_conflicting_ordered_leaves_are_seeded(self):
        sys = two_level()
        pairs = set(seed_observed_pairs(sys, ["x", "y"]))
        assert pairs == {("x", "y")}

    def test_non_conflicting_pairs_not_seeded(self):
        b = SystemBuilder()
        b.transaction("T1", "S", ["a"]).transaction("T2", "S", ["b"])
        b.executed("S", ["a", "b"])
        sys = b.build()
        assert set(seed_observed_pairs(sys, ["a", "b"])) == set()

    def test_seed_leaf_order_option_restores_def_10_1(self):
        b = SystemBuilder()
        b.transaction("T1", "S", ["a"]).transaction("T2", "S", ["b"])
        b.executed("S", ["a", "b"], mode="temporal")
        sys = b.build()
        opts = ObservedOrderOptions(seed_leaf_order=True)
        assert ("a", "b") in set(seed_observed_pairs(sys, ["a", "b"], opts))

    def test_seeding_only_considers_materialized_nodes(self):
        sys = two_level(top_conflicts=[("u", "v")])
        # u, v are transactions of DB: conflicting at Top, ordered there.
        pairs = set(seed_observed_pairs(sys, ["u", "v"]))
        assert ("u", "v") in pairs
        # but asking only about leaves does not leak the upper pair
        assert ("u", "v") not in set(seed_observed_pairs(sys, ["x", "y"]))

    def test_roots_never_seed(self):
        sys = two_level(top_conflicts=[("u", "v")])
        assert set(seed_observed_pairs(sys, ["T1", "T2"])) == set()


class TestPullUp:
    def test_pair_rewritten_to_parents(self):
        sys = two_level(top_conflicts=[("u", "v")])
        obs = Relation([("x", "y")])
        rep = {"x": "u", "y": "v"}
        lifted = pull_up(sys, obs, lambda n: rep.get(n, n))
        assert ("u", "v") in lifted

    def test_conflicting_pair_propagates_regardless_of_parents(self):
        # Def. 10.2: x, y conflict at DB, so the pair climbs to (u, v)
        # even though Top declares u, v non-conflicting.
        sys = two_level()
        obs = Relation([("x", "y")])
        rep = {"x": "u", "y": "v"}
        lifted = pull_up(sys, obs, lambda n: rep.get(n, n))
        assert ("u", "v") in lifted

    def test_forgetting_gate_blocks_commuting_endpoints(self):
        # A transitivity-derived pair between *non-conflicting* operations
        # of one schedule is forgotten when pulled past that schedule
        # (§3.7): DB vouches that x and z commute.
        b = SystemBuilder()
        b.transaction("T1", "Top", ["u"]).transaction("T2", "Top", ["v"])
        b.transaction("u", "DB", ["x"]).transaction("v", "DB", ["z"])
        b.executed("Top", ["u", "v"]).executed("DB", ["x", "z"])
        sys = b.build()
        obs = Relation([("x", "z")])  # e.g. closed through a third node
        rep = {"x": "u", "z": "v"}
        lifted = pull_up(sys, obs, lambda n: rep.get(n, n))
        assert ("u", "v") not in lifted

    def test_meeting_gate_can_be_disabled(self):
        b = SystemBuilder()
        b.transaction("T1", "Top", ["u"]).transaction("T2", "Top", ["v"])
        b.transaction("u", "DB", ["x"]).transaction("v", "DB", ["z"])
        b.executed("Top", ["u", "v"]).executed("DB", ["x", "z"])
        sys = b.build()
        obs = Relation([("x", "z")])
        rep = {"x": "u", "z": "v"}
        opts = ObservedOrderOptions(forget_nonconflicting=False)
        lifted = pull_up(sys, obs, lambda n: rep.get(n, n), opts)
        assert ("u", "v") in lifted

    def test_internal_pairs_vanish(self):
        sys = two_level()
        obs = Relation([("x", "y")])
        lifted = pull_up(sys, obs, lambda n: "u")
        assert len(lifted) == 0

    def test_untouched_pairs_carried_verbatim(self):
        sys = two_level()
        obs = Relation([("x", "y")])
        lifted = pull_up(sys, obs, lambda n: n)
        assert ("x", "y") in lifted

    def test_mixed_rewrite_keeps_cross_schedule_pair(self):
        # One endpoint grouped, the other not: endpoints land on different
        # schedules, so the pair is kept pessimistically (Def. 10.3).
        b = SystemBuilder()
        b.transaction("T1", "TopA", ["u"])
        b.transaction("T2", "TopB", ["w"])
        b.executed("TopA", ["u"])
        b.executed("TopB", ["w"])
        b.transaction("u", "Mid", ["x"])
        b.executed("Mid", ["x"])
        b.transaction("x", "Low", ["p"])
        b.transaction("w", "Low", ["q"])
        b.conflict("Low", "p", "q")
        b.executed("Low", ["p", "q"])
        sys = b.build()
        # x was grouped into u (an operation of Mid); w is an operation of
        # TopB — no common schedule, pair survives.
        obs = Relation([("x", "w")])
        rep = {"x": "u"}
        lifted = pull_up(sys, obs, lambda n: rep.get(n, n))
        assert ("u", "w") in lifted

    def test_mixed_rewrite_gates_on_old_endpoints(self):
        # The endpoints p (operation of Low) and q (operation of Low) are
        # non-conflicting at Low, so a derived pair between them is
        # forgotten even when only one side is being grouped.
        b = SystemBuilder()
        b.transaction("T1", "Top", ["u", "w"])
        b.executed("Top", ["u", "w"])
        b.transaction("u", "Low", ["p"])
        b.transaction("w", "Low", ["q"])
        b.executed("Low", ["p", "q"])
        sys = b.build()
        obs = Relation([("p", "q")])
        rep = {"p": "u"}
        lifted = pull_up(sys, obs, lambda n: rep.get(n, n))
        assert ("u", "q") not in lifted


class TestObservedBetweenTrees:
    def test_detects_cross_tree_relation(self):
        sys = two_level(top_conflicts=[("u", "v")])
        result = reduce_to_roots(sys)
        front1 = result.fronts[1]
        assert observed_between_trees(sys, front1.observed, "T1", "T2")

    def test_no_relation_when_independent(self):
        b = SystemBuilder()
        b.transaction("T1", "S", ["a"]).transaction("T2", "S", ["b"])
        b.executed("S", ["a", "b"])
        sys = b.build()
        obs = Relation(elements=("a", "b"))
        assert not observed_between_trees(sys, obs, "T1", "T2")
