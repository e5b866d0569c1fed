"""Tests for rejection root-cause diagnosis."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import diagnosis
from repro.core.correctness import check_composite_correctness
from repro.core.diagnosis import explain_edge, explain_failure
from repro.core.observed import ObservedOrderOptions, seed_observed_pairs
from repro.core.orders import Relation
from repro.core.reduction import reduce_to_roots
from repro.exceptions import ReductionError
from repro.figures import figure3_system, figure4_system
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import (
    fork_topology,
    join_topology,
    stack_topology,
)


class TestExplainFailure:
    def test_figure3_explanation_names_the_evidence(self):
        result = reduce_to_roots(figure3_system())
        text = explain_failure(result)
        assert "T1 -> T2" in text and "T2 -> T1" in text
        assert "preceded conflicting" in text
        assert "at SP" in text and "at SQ" in text
        assert "no serial order exists" in text

    def test_correct_execution_refused(self):
        result = reduce_to_roots(figure4_system())
        with pytest.raises(ReductionError):
            explain_failure(result)

    def test_report_explain_method(self):
        report = check_composite_correctness(figure3_system())
        assert "T1 -> T2" in report.explain()

    def test_every_random_rejection_is_explainable(self):
        explained = 0
        for seed in range(20):
            rec = generate(
                join_topology(3),
                WorkloadConfig(seed=seed, roots=3, conflict_probability=0.3),
            )
            result = reduce_to_roots(rec.system)
            if result.succeeded:
                continue
            text = explain_failure(result)
            assert result.failure.cycle[0] in text
            explained += 1
        assert explained > 0

    def test_evidence_chains_for_stacks(self):
        for seed in range(20):
            rec = generate(
                stack_topology(2),
                WorkloadConfig(seed=seed, roots=3, conflict_probability=0.3),
            )
            result = reduce_to_roots(rec.system)
            if result.succeeded:
                continue
            text = explain_failure(result)
            # stacks always have concrete conflict chains (no pure
            # input-order edges at the root level)
            assert "preceded conflicting" in text
            return
        pytest.fail("no rejected stack found")


class TestExplainEdge:
    def test_direct_edge(self):
        system = figure3_system()
        lines = explain_edge(system, "T1", "T2")
        assert any("at SP" in line for line in lines)

    def test_edge_without_conflicts_reports_input_orders(self):
        from repro.core.builder import SystemBuilder

        b = SystemBuilder()
        b.transaction("T1", "S", ["a"]).transaction("T2", "S", ["b"])
        b.executed("S", ["a", "b"])
        system = b.build()
        lines = explain_edge(system, "T1", "T2")
        assert any("input orders" in line for line in lines)


def edge_by_edge(result):
    """``explain_failure``'s text rebuilt from its header and one
    ``explain_edge`` call (one fresh seed graph) per cycle edge."""
    cycle = result.failure.cycle
    lines = [result.failure.describe(), ""]
    for before, after in zip(cycle, cycle[1:]):
        lines.append(f"{before} -> {after}")
        lines.extend(explain_edge(result.system, before, after))
    lines.append("")
    lines.append(
        "every arrow must be embedded in any equivalent serial order; "
        "together they form a cycle, so no serial order exists."
    )
    return "\n".join(lines)


class TestSharedSeedGraph:
    """``explain_failure`` builds the seed graph once for the whole
    cycle; its text must equal the per-edge public API's."""

    def test_figure3(self):
        result = reduce_to_roots(figure3_system())
        assert explain_failure(result) == edge_by_edge(result)

    @given(
        depth=st.integers(1, 3),
        seed=st.integers(0, 100_000),
        roots=st.integers(2, 5),
        conflicts=st.sampled_from([0.15, 0.3, 0.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_rejected_stacks(self, depth, seed, roots, conflicts):
        rec = generate(
            stack_topology(depth),
            WorkloadConfig(
                seed=seed, roots=roots, conflict_probability=conflicts
            ),
        )
        result = reduce_to_roots(rec.system)
        assume(not result.succeeded)
        assert explain_failure(result) == edge_by_edge(result)


def eager_seed_graph(system):
    """The seed graph as a whole-system relation over every node — the
    eager construction the on-demand ``_SeedGraph`` replaces."""
    graph = Relation()
    nodes = list(system.all_nodes())
    graph.add_all(seed_observed_pairs(system, nodes, ObservedOrderOptions()))
    return graph


class EagerSeedGraph:
    """``_SeedGraph``'s interface read off :func:`eager_seed_graph`."""

    def __init__(self, system):
        self.graph = eager_seed_graph(system)

    def successors(self, node):
        return sorted(self.graph.successors(node), key=str)

    def touches(self, node):
        return node in self.graph.elements


def rejected_ensemble():
    """Every rejected system of the ensembles above, plus generated
    random stack, fork and join rejects."""
    yield figure3_system()
    cases = [(join_topology(3), 3, 0.3), (stack_topology(2), 3, 0.3)]
    cases += [
        (topology, roots, conflicts)
        for topology in (
            stack_topology(1),
            stack_topology(3),
            fork_topology(3),
            join_topology(2),
        )
        for roots, conflicts in ((2, 0.5), (4, 0.15), (5, 0.3))
    ]
    for topology, roots, conflicts in cases:
        for seed in range(20):
            rec = generate(
                topology,
                WorkloadConfig(
                    seed=seed, roots=roots, conflict_probability=conflicts
                ),
            )
            result = reduce_to_roots(rec.system)
            if not result.succeeded:
                yield rec.system


class TestOnDemandSeedGraph:
    """The seed graph built node by node as the chain search reaches it
    equals the eager whole-system one, and so do the explanations."""

    def test_matches_the_eager_graph_on_every_node(self):
        systems = 0
        for system in rejected_ensemble():
            eager = EagerSeedGraph(system)
            lazy = diagnosis._SeedGraph(system)
            for node in system.all_nodes():
                assert lazy.touches(node) == eager.touches(node), node
                if eager.touches(node):
                    assert lazy.successors(node) == eager.successors(node)
            systems += 1
        assert systems > 50

    def test_explanations_match_the_eager_graph(self, monkeypatch):
        results = [reduce_to_roots(s) for s in rejected_ensemble()]
        lazy = [explain_failure(r) for r in results]
        monkeypatch.setattr(diagnosis, "_SeedGraph", EagerSeedGraph)
        assert [explain_failure(r) for r in results] == lazy
