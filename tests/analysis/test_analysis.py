"""Unit tests for the analysis layer: tables and experiments."""

from repro.analysis.hierarchy import (
    CONTAINMENTS,
    run_hierarchy_experiment,
    total_violations,
)
from repro.analysis.scaling import checker_scaling
from repro.analysis.tables import banner, format_table
from repro.analysis.theorems import (
    theorem1_experiment,
    theorem2_rows,
    theorem3_rows,
    theorem4_rows,
)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "long_header"], [[1, 2], ["xx", "yyyy"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_banner(self):
        assert "P1" in banner("P1")


class TestHierarchyExperiment:
    def test_no_containment_violations(self):
        rows = run_hierarchy_experiment(trials=10, conflict_rates=(0.1, 0.4))
        assert total_violations(rows) == 0

    def test_rates_bounded(self):
        rows = run_hierarchy_experiment(trials=8, conflict_rates=(0.2,))
        for row in rows:
            for name in row.accepted:
                assert 0.0 <= row.rate(name) <= 1.0

    def test_containment_list_is_sane(self):
        narrows = {n for n, _w in CONTAINMENTS}
        assert "opsr" in narrows and "scc" in narrows


class TestTheoremExperiments:
    def test_theorem2_agreement_is_total(self):
        for row in theorem2_rows(depths=(2,), trials=20):
            assert row.disagreements == 0
            assert row.trials > 0

    def test_theorem3_agreement_is_total(self):
        for row in theorem3_rows(branch_counts=(2,), trials=20):
            assert row.disagreements == 0

    def test_theorem4_agreement_is_total(self):
        for row in theorem4_rows(client_counts=(2,), trials=20):
            assert row.disagreements == 0

    def test_theorem1_constructive(self):
        for row in theorem1_experiment(trials=12):
            assert row.all_valid, row


class TestScaling:
    def test_checker_scaling_points(self):
        points = checker_scaling(root_counts=(2, 4), repeats=1)
        assert len(points) == 2
        assert points[0].operations < points[1].operations
        assert all(p.seconds >= 0 for p in points)

