"""Tier-2 orientation analysis: the mixed-multigraph certifier.

Unit tests for the pure graph routines in ``repro.lint.orientation``
plus the acceptance property of the tier: on a generated corpus the
orientation certifier proves strictly more systems Comp-C than the
level-forest test alone (the forced input diamond is the canonical
shape — an undirected cycle that can never orient into a directed
one).
"""

import random

from repro.core.builder import SystemBuilder
from repro.core.reduction import reduce_to_roots
from repro.lint import prove_static_safety
from repro.lint.orientation import (
    _strongly_connected_components,
    find_directed_cycle,
    mixed_graph_unsafe_reason,
)


# ----------------------------------------------------------------------
# graph routine units
# ----------------------------------------------------------------------


def test_scc_partitions_a_two_cycle():
    component = _strongly_connected_components(
        ["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c")]
    )
    assert component["a"] == component["b"]
    assert component["c"] != component["a"]


def test_forced_cycle_is_unsafe():
    reason = mixed_graph_unsafe_reason(
        [("a", "b"), ("b", "a")], []
    )
    assert reason is not None


def test_forced_diamond_is_safe():
    """a->b->d, a->c->d: an undirected cycle, yet no orientation of
    (zero) free edges closes a directed one — the shape tier-1's
    forest test can never certify."""
    forced = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
    assert mixed_graph_unsafe_reason(forced, []) is None


def test_free_cycle_is_unsafe():
    assert mixed_graph_unsafe_reason([], [("a", "b"), ("b", "c"), ("c", "a")]) is not None


def test_free_parallel_edges_are_a_cycle():
    """Two free edges between the same endpoints can orient head-on."""
    assert mixed_graph_unsafe_reason([], [("a", "b"), ("a", "b")]) is not None
    assert mixed_graph_unsafe_reason([], [("a", "b")]) is None


def test_free_tree_plus_forced_dag_is_safe():
    forced = [("a", "b"), ("b", "c")]
    free = [("a", "d"), ("b", "d")]
    # free edges a-d, b-d form no cycle on their own and no forced arc
    # sits inside an SCC of the bidirectionalized graph... except the
    # free edges bridge a-d-b, closing a mixed cycle with forced a->b:
    # orient a->d, d->b? That is a path a->d->b parallel to a->b, not
    # a cycle.  Orient d->a and b->d: b->d->a->b IS a directed cycle.
    assert mixed_graph_unsafe_reason(forced, free) is not None
    # drop the bridging free edge: now genuinely safe
    assert mixed_graph_unsafe_reason(forced, [("a", "d")]) is None


def test_find_directed_cycle_returns_arc_indices():
    arcs = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
    cycle = find_directed_cycle(arcs)
    assert cycle is not None
    assert sorted(cycle) == [0, 1, 2]
    assert find_directed_cycle([("a", "b"), ("b", "c")]) is None


# ----------------------------------------------------------------------
# tier-2 on real systems
# ----------------------------------------------------------------------


def _forced_diamond_system():
    """Weak-input edges are direction-forced; four of them in a
    diamond defeat the forest test but not the orientation tier."""
    b = SystemBuilder()
    b.schedule("S1")
    b.transaction("A", "S1", ["a"])
    b.transaction("B", "S1", ["b"])
    b.transaction("C", "S1", ["c"])
    b.transaction("D", "S1", ["d"])
    b.weak_input("S1", "A", "B")
    b.weak_input("S1", "A", "C")
    b.weak_input("S1", "B", "D")
    b.weak_input("S1", "C", "D")
    b.executed("S1", ["a", "b", "c", "d"])
    return b.build()


def test_input_diamond_certified_by_tier2_not_forest():
    system = _forced_diamond_system()
    report = prove_static_safety(system)
    assert report.certified
    assert report.tier == "orientation"
    # the forest test alone saw a cycle at level 1
    cyclic = [w for w in report.witnesses if not w.forest]
    assert cyclic and all(w.orientable is False for w in cyclic)
    # and the certificate is truthful
    assert reduce_to_roots(system).succeeded


def test_oriented_conflict_cycle_is_not_tier2_certified():
    b = SystemBuilder()
    b.schedule("S1")
    b.transaction("T1", "S1", ["a", "b"])
    b.transaction("T2", "S1", ["c"])
    b.conflict("S1", "a", "c")
    b.conflict("S1", "c", "b")
    b.executed("S1", ["a", "b", "c"])
    report = prove_static_safety(b.build())
    assert not report.certified  # free edges form a parallel pair
    assert not report.refuted  # recorded orientations agree


# ----------------------------------------------------------------------
# the corpus acceptance criterion
# ----------------------------------------------------------------------


def _random_mixed_system(seed):
    """A seeded random mixed multigraph realized as a one-schedule
    system: forced weak-input arcs drawn as a DAG by index (so the
    index-order execution is always a valid linear extension) plus
    sparse free conflict edges.  Dense enough in forced arcs that
    diamonds — the unorientable shape — actually occur."""
    rng = random.Random(seed)
    n = rng.randint(4, 7)
    b = SystemBuilder()
    b.schedule("S")
    for i in range(n):
        b.transaction(f"T{i}", "S", [f"o{i}"])
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                b.weak_input("S", f"T{i}", f"T{j}")
            elif rng.random() < 0.08:
                b.conflict("S", f"o{i}", f"o{j}")
    b.executed("S", [f"o{i}" for i in range(n)])
    return b.build()


def test_tier2_certifies_strictly_more_than_forest():
    """Over a 150-system corpus: the orientation tier certifies a
    strict superset of what the forest test certifies — systems whose
    multigraph *has* cycles, every one of them unorientable — and
    every tier-2 certificate is corroborated by a successful reduction."""
    forest = 0
    tier2 = 0
    for seed in range(150):
        system = _random_mixed_system(seed)
        report = prove_static_safety(system)
        if not report.certified:
            continue
        if report.tier == "forest":
            forest += 1
            assert all(w.forest for w in report.witnesses)
            continue
        tier2 += 1
        assert report.tier == "orientation"
        assert any(not w.forest for w in report.witnesses)
        assert reduce_to_roots(system).succeeded, seed
    assert forest > 0  # the baseline tier is alive on this corpus...
    assert tier2 > 0  # ...and tier 2 certifies strictly beyond it
