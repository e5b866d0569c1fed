"""The static safety prover: soundness on 500 generated systems plus
unit tests for the witnesses, the decline path, and the topology pass.

The property at the bottom is the acceptance criterion of the pass:
the prover is sound in both directions against the full reduction on
every generated system — a certified system's reduction succeeds, and
a refuted one's fails at the refutation's level and stage.
"""

from pathlib import Path

import pytest

import repro.lint.safety as safety
from repro.core.builder import SystemBuilder
from repro.core.observed import ObservedOrderOptions
from repro.core.reduction import reduce_to_roots
from repro.figures import figure1_system, figure3_system, figure4_system
from repro.io import load
from repro.lint import (
    DiagnosticCollector,
    analyze_system_safety,
    analyze_topology_safety,
    prove_static_safety,
)
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import (
    TopologySpec,
    fork_topology,
    join_topology,
    random_dag_topology,
    stack_topology,
    tree_topology,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "lint"


def _lost_update_system(executed=("a", "c", "b")):
    b = SystemBuilder()
    b.schedule("S1")
    b.transaction("T1", "S1", ["a", "b"])
    b.transaction("T2", "S1", ["c"])
    b.conflict("S1", "a", "c")
    b.conflict("S1", "c", "b")
    b.executed("S1", list(executed))
    return b.build()


# ----------------------------------------------------------------------
# unit tests
# ----------------------------------------------------------------------


def test_lost_update_shape_is_refuted():
    """Executed a,c,b the recorded orientations close a directed cycle
    and the replay rejects: CERTIFIED_UNSAFE with a witness."""
    report = prove_static_safety(_lost_update_system())
    assert report.refuted
    assert not report.certified
    assert "statically refuted" in report.summary()
    [witness] = report.cycle_witnesses
    assert witness.level == 1  # parallel T1--T2 edges
    assert not witness.forest
    assert witness.orientable is True
    assert report.refutation is not None
    assert report.refutation.level == 1
    assert {e.source for e in report.refutation.cycle_edges} == {"conflict"}
    assert report.refutation.failure["level"] == 1
    # the witness pins the recorded execution it refutes
    assert report.refutation.executions["S1"] == ("a", "c", "b")


def test_lost_update_variant_stays_unknown():
    """Executed a,b,c both conflict pairs record the same direction:
    no directed cycle under the recorded orientations, so the
    multigraph cycle stays an unresolved warning."""
    report = prove_static_safety(_lost_update_system(("a", "b", "c")))
    assert not report.certified and not report.refuted
    assert "potential conflict cycle" in report.summary()
    assert report.refutation is None
    # and the reduction indeed accepts this execution
    assert reduce_to_roots(_lost_update_system(("a", "b", "c"))).succeeded


def test_refuted_system_becomes_ctx310_error():
    collector = DiagnosticCollector()
    analyze_system_safety(collector, _lost_update_system())
    [error] = collector.errors
    assert error.code == "CTX310"
    assert "T1" in error.message and "T2" in error.message
    assert "replay" in error.message
    assert not collector.warnings  # the refuted level is not re-warned


def test_cycle_witness_becomes_ctx301_warning():
    collector = DiagnosticCollector()
    analyze_system_safety(collector, _lost_update_system(("a", "b", "c")))
    assert not collector.has_errors()
    [warning] = collector.warnings
    assert warning.code == "CTX301"
    # the warning names the component cycle and the item pairs behind it
    assert "T1" in warning.message and "T2" in warning.message
    assert "conflict" in warning.message


def test_certified_example_reduces_successfully():
    recorded = load(EXAMPLES / "booking_system.json")
    report = prove_static_safety(recorded.system)
    assert report.certified
    assert report.reason is None
    assert "statically Comp-C" in report.summary()
    assert all(w.forest for w in report.witnesses)
    assert len(report.witnesses) == recorded.system.order + 1
    assert reduce_to_roots(recorded.system).succeeded


def test_report_round_trips_to_dict():
    report = prove_static_safety(_lost_update_system())
    payload = report.to_dict()
    assert payload["certified"] is False
    assert payload["verdict"] == "certified_unsafe"
    assert payload["declined"] is False
    levels = [w["level"] for w in payload["witnesses"]]
    assert levels == sorted(levels)
    cycle = next(w for w in payload["witnesses"] if not w["forest"])
    assert cycle["cycle_nodes"]
    for edge in cycle["cycle_edges"]:
        assert edge["source"] in ("conflict", "input")
        assert len(edge["pair"]) == 2
        assert edge["level"] == cycle["level"]
    refutation = payload["refutation"]
    assert refutation["level"] == 1
    assert refutation["executions"]["S1"] == ["a", "c", "b"]
    assert refutation["failure"]["description"]


def test_safety_edge_describe_is_self_locating():
    """Golden output: every edge names its level, so --explain chains
    read without cross-referencing the surrounding report."""
    report = prove_static_safety(_lost_update_system())
    [witness] = report.cycle_witnesses
    rendered = sorted(e.describe() for e in witness.cycle_edges)
    assert rendered == [
        "L1 S1:conflict(a, c)",
        "L1 S1:conflict(b, c)",
    ]


def test_prover_declines_seed_leaf_order():
    recorded = load(EXAMPLES / "booking_system.json")
    options = ObservedOrderOptions(seed_leaf_order=True)
    report = prove_static_safety(recorded.system, options)
    assert not report.certified
    assert report.declined
    assert "seed_leaf_order" in report.reason
    # the decline is visible as exactly one CTX306 note -- never as an
    # error or warning (notes do not affect exit codes)
    collector = DiagnosticCollector()
    analyze_system_safety(collector, recorded.system, options)
    assert len(collector) == 1
    [note] = collector.notes
    assert note.code == "CTX306"
    assert "seed_leaf_order" in note.message
    assert not collector.errors and not collector.warnings


def test_topology_diamond_warns_tree_does_not():
    diamond = TopologySpec(
        name="diamond",
        levels={"F": 3, "B1": 2, "B2": 2, "J": 1},
        invokes={"F": ["B1", "B2"], "B1": ["J"], "B2": ["J"], "J": []},
        root_schedules=["F"],
    )
    collector = DiagnosticCollector()
    assert not analyze_topology_safety(collector, diamond)
    [warning] = collector.warnings
    assert warning.code == "CTX301"

    collector = DiagnosticCollector()
    assert analyze_topology_safety(collector, stack_topology(3))
    assert len(collector) == 0


# ----------------------------------------------------------------------
# the per-level multigraph against a definition-level oracle
# ----------------------------------------------------------------------


def _oracle_representative(system, node, level):
    """Def. 16.2: climb while the grouping step has happened by
    ``level`` (roots are never grouped)."""
    grouping = system.grouping_level(node)
    while grouping is not None and grouping <= level:
        node = system.parent(node)
        grouping = system.grouping_level(node)
    return node


def _oracle_covering(relation):
    """Pairs of ``relation`` with no element strictly between them."""
    pairs = set(relation.pairs())
    middles = {b for _, b in pairs}
    return {
        (a, b)
        for a, b in pairs
        if not any((a, c) in pairs and (c, b) in pairs for c in middles - {a, b})
    }


def _oracle_level(system, level):
    """The level-``level`` multigraph as the module docstring states it:
    ``(edges, front size, forest)`` with every edge an
    ``(endpoints, source, schedule, pair, oriented)`` tuple, listed
    schedule by schedule (sorted), conflict pairs (sorted) before
    covering pairs (sorted)."""
    rep = {n: _oracle_representative(system, n, level) for n in system.all_nodes()}
    edges = []
    for name in sorted(system.schedules):
        schedule = system.schedules[name]
        for a, b in sorted(tuple(sorted(pair)) for pair in schedule.conflicts):
            exists = max(
                system.materialization_level(a), system.materialization_level(b)
            )
            if exists <= level and rep[a] != rep[b]:
                ends = tuple(sorted((rep[a], rep[b])))
                if (a, b) in schedule.weak_output:
                    oriented = (rep[a], rep[b])
                elif (b, a) in schedule.weak_output:
                    oriented = (rep[b], rep[a])
                else:
                    oriented = None
                edges.append((ends, "conflict", name, (a, b), oriented))
        if system.level_of(name) <= level:
            for a, b in sorted(_oracle_covering(schedule.weak_input)):
                if rep[a] != rep[b]:
                    ends = tuple(sorted((rep[a], rep[b])))
                    edges.append((ends, "input", name, (a, b), (rep[a], rep[b])))
    front = 0
    for node in system.all_nodes():
        grouping = system.grouping_level(node)
        if system.materialization_level(node) <= level and (
            grouping is None or level < grouping
        ):
            front += 1
    # a multigraph is a forest iff each component has one edge fewer
    # than it has nodes, i.e. |E| = |V| - #components over touched nodes
    neighbours = {}
    for (u, v), *_ in edges:
        neighbours.setdefault(u, set()).add(v)
        neighbours.setdefault(v, set()).add(u)
    components, seen = 0, set()
    for start in neighbours:
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            for nxt in neighbours[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    forest = len(edges) == len(neighbours) - components
    return edges, front, forest


def _oracle_systems():
    yield "figure1", figure1_system()
    yield "figure3", figure3_system()
    yield "figure4", figure4_system()
    specs = [
        stack_topology(3),
        fork_topology(3),
        join_topology(3),
        tree_topology(2, 2),
        random_dag_topology(3, 2, seed=1),
    ]
    for spec in specs:
        for layout in ("serial", "perturbed", "random"):
            for seed in range(3):
                config = WorkloadConfig(
                    seed=seed,
                    roots=3,
                    conflict_probability=0.1 + 0.1 * seed,
                    intra_order_probability=0.3 if seed == 2 else 0.0,
                    layout=layout,
                )
                yield f"{spec.name}/{layout}/{seed}", generate(spec, config).system


def _record_level_edges(monkeypatch):
    """Wrap the prover's level projection; returns the list it fills
    with one ``(level, edges)`` entry per call."""
    calls = []
    project = safety._level_edges

    def recording(reps, level, sources):
        edges = project(reps, level, sources)
        calls.append((level, edges))
        return edges

    monkeypatch.setattr(safety, "_level_edges", recording)
    return calls


def _as_oracle_edge(edge, level):
    e = safety._safety_edge(edge, level)
    return (e.endpoints, e.source, e.schedule, e.pair, e.oriented)


def test_level_multigraphs_match_the_definition_oracle(monkeypatch):
    """Every level's ordered edge list (recorded orientation included),
    front size and forest bit equal an oracle built straight from the
    module docstring, and every cycle witness is a closed walk through
    oracle edges."""
    calls = _record_level_edges(monkeypatch)
    levels = cycles = 0
    for label, system in _oracle_systems():
        calls.clear()
        report = prove_static_safety(system)
        assert [w.level for w in report.witnesses] == list(range(system.order + 1))
        assert [level for level, _ in calls] == list(range(system.order + 1))
        for witness, (_, projected) in zip(report.witnesses, calls):
            levels += 1
            edges, front, forest = _oracle_level(system, witness.level)
            where = (label, witness.level)
            assert [_as_oracle_edge(e, witness.level) for e in projected] == edges, where
            assert witness.edge_count == len(edges), where
            assert witness.node_count == front, where
            assert witness.forest == forest, where
            if forest:
                continue
            cycles += 1
            for edge in witness.cycle_edges:
                key = (edge.endpoints, edge.source, edge.schedule, edge.pair, edge.oriented)
                assert key in edges, (where, key)
                assert edge.level == witness.level, where
            ring = witness.cycle_nodes
            assert len(ring) == len(witness.cycle_edges) + 1, where
            assert ring[0] == ring[-1], where
            for edge, u, v in zip(witness.cycle_edges, ring, ring[1:]):
                assert set(edge.endpoints) == {u, v}, where
    assert cycles > 0 and levels > cycles  # both kinds of level occur


def test_prover_builds_each_level_edge_once(monkeypatch):
    """One prover run projects each level exactly once, and those
    projections hold exactly the edges its witnesses count: no level's
    multigraph is built twice."""
    calls = _record_level_edges(monkeypatch)
    systems = [_lost_update_system(), figure1_system(), figure3_system()]
    for system in systems:
        calls.clear()
        report = prove_static_safety(system)
        assert [level for level, _ in calls] == list(range(system.order + 1))
        assert any(edges for _, edges in calls), "the prover built no edges"
        assert [len(edges) for _, edges in calls] == [
            w.edge_count for w in report.witnesses
        ]


def test_prover_builds_safety_edges_only_for_witnesses(monkeypatch):
    """A ``SafetyEdge`` object is built only for an edge a level witness
    or a refutation candidate names, never for the rest of a level."""
    built = []

    class CountingEdge(safety.SafetyEdge):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    candidates = []
    find_candidate = safety._recorded_cycle

    def recording(level, edges):
        candidate = find_candidate(level, edges)
        if candidate is not None:
            candidates.append(candidate)
        return candidate

    monkeypatch.setattr(safety, "SafetyEdge", CountingEdge)
    monkeypatch.setattr(safety, "_recorded_cycle", recording)
    systems = [_lost_update_system(), _lost_update_system(("a", "b", "c"))]
    systems.extend(system for _, system in _oracle_systems())
    refuted = edges = 0
    for system in systems:
        built.clear()
        candidates.clear()
        report = prove_static_safety(system)
        named = sum(len(w.cycle_edges) for w in report.witnesses)
        named += sum(len(c.cycle_edges) for c in candidates)
        assert len(built) == named, system
        refuted += bool(candidates)
        edges += sum(w.edge_count for w in report.witnesses)
    assert refuted, "no system reached the refuter"
    assert edges > 10 * len(systems)  # far more edges than witnesses name


# ----------------------------------------------------------------------
# the 500-system agreement property
# ----------------------------------------------------------------------

_SPECS = [
    stack_topology(2),
    stack_topology(3),
    fork_topology(3),
    join_topology(2),
    tree_topology(2, 2),
]


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.name)
def test_precheck_agrees_with_reduction_on_generated_systems(spec):
    """100 seeds per topology (500 systems over the suite): the
    prover's two-sided verdict agrees with the full reduction — every
    certificate is backed by a successful reduction, every refutation
    by a rejection at the refutation's level and stage — and both the
    certified and the refuted populations are non-empty (the property
    is not vacuous)."""
    certified = 0
    refuted = 0
    for seed in range(100):
        config = WorkloadConfig(
            seed=seed,
            roots=3,
            conflict_probability=(seed % 4) * 0.1,
            intra_order_probability=0.2 if seed % 5 == 0 else 0.0,
        )
        system = generate(spec, config).system
        report = prove_static_safety(system)
        full = reduce_to_roots(system)
        if report.certified:
            certified += 1
            assert full.succeeded, (spec.name, seed)
        elif report.refuted:
            refuted += 1
            assert full.failure is not None, (spec.name, seed)
            failure = report.refutation.failure
            assert full.failure.level == failure["level"], (spec.name, seed)
            assert full.failure.stage == failure["stage"], (spec.name, seed)
    assert certified > 0, f"no {spec.name} workload was ever certified"
    assert refuted > 0, f"no {spec.name} workload was ever refuted"
