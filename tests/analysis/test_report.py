"""Tests for the consolidated experiment report."""

import pytest

from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.report import build_report
from repro.cli import main


@pytest.fixture(scope="module")
def report_text():
    return build_report(trials=6)


def _markdown_section(text, title):
    """The cells of the Markdown table under ``## title`` (header row
    first, separator dropped) and the lines after it in the section,
    the report's closing timing line excluded."""
    section = text.split(f"\n## {title}\n", 1)[1]
    section = section.split("\n## ", 1)[0].split("\n_generated in ", 1)[0]
    lines = section.strip("\n").splitlines()
    table = [line for line in lines if line.startswith("|")]
    rest = [line for line in lines[len(table):] if line]
    cells = [[c.strip() for c in line.strip("|").split("|")] for line in table]
    return [cells[0]] + cells[2:], rest


def _text_table(out):
    """The cells of a :func:`format_table` printout (header row first,
    separator dropped) and the lines printed after it."""
    lines = out.rstrip("\n").splitlines()
    table = [line for line in lines if " | " in line or "-+-" in line]
    rest = lines[len(table):]
    cells = [[c.strip() for c in line.split(" | ")] for line in table]
    return [cells[0]] + cells[2:], rest


class TestBuildReport:
    def test_sections_present(self, report_text):
        for needle in (
            "# composite-tx experiment report",
            "## Figures (F1–F4)",
            "## Theorem 1 (T1)",
            "## Theorem 2 (T2)",
            "## Theorem 3 (T3)",
            "## Theorem 4 (T4)",
            "## Hierarchy (H1)",
            "## Checker cost (P2)",
            "## Ablation (A1)",
        ):
            assert needle in report_text

    def test_verdicts_recorded(self, report_text):
        assert "NOT Comp-C" in report_text  # figure 3
        assert "\ncontainment violations: 0\n" in report_text

    def test_protocols_optional(self, report_text):
        assert "Protocols on the join" not in report_text

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_report_tables_are_the_experiment_tables(
        self, report_text, capsys, name
    ):
        """Every registered experiment shows the same table, and the
        same note under it, in ``report`` and in ``experiment NAME``;
        only P2's wall-time column may differ."""
        assert main(["experiment", name, "--trials", "6"]) == 0
        printed, printed_note = _text_table(capsys.readouterr().out)
        rendered, rendered_note = _markdown_section(
            report_text, EXPERIMENTS[name].title
        )
        if name == "p2":
            assert printed[0][-1] == rendered[0][-1] == "ms"
            printed = [row[:-1] for row in printed]
            rendered = [row[:-1] for row in rendered]
        assert len(printed) > 1
        assert rendered == printed
        assert rendered_note == printed_note


class TestCliReport:
    def test_report_command(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        assert main(["report", "-o", str(out), "--trials", "4"]) == 0
        assert "report written" in capsys.readouterr().out
        assert out.read_text().startswith("# composite-tx experiment report")
