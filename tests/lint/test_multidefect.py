"""One lint run over a many-defect document reports *every* defect.

The fail-fast engine would stop at the first ModelError; the lint
acceptance criterion is that a single ``composite-tx lint`` invocation
surfaces all of them, in text and in ``--format json``.
"""

import json
from pathlib import Path

from repro.cli import main
from repro.lint import lint_file

FIXTURE = str(Path(__file__).parent / "fixtures" / "multi_defect.json")

#: every code seeded into the fixture (see the file's defects:
#: version 99, duplicate op, unknown intra-order member, self-conflict,
#: duplicate conflict, unknown conflict op, cyclic weak input, cyclic
#: weak output, transaction in two schedules, execution mismatch).
SEEDED = {
    "CTX110",
    "CTX111",
    "CTX112",
    "CTX113",
    "CTX114",
    "CTX115",
    "CTX202",
    "CTX203",
    "CTX302",
    "CTX303",
}


def test_single_run_reports_every_seeded_defect():
    report = lint_file(FIXTURE)
    assert report.kind == "system"
    assert set(report.collector.counts()) == SEEDED
    assert report.collector.has_errors()
    # the fixture path is stamped on every finding
    assert all(d.location.file == FIXTURE for d in report.diagnostics)


def test_cli_text_lists_every_code(capsys):
    assert main(["lint", FIXTURE]) == 2
    out = capsys.readouterr().out
    for code in sorted(SEEDED):
        assert code in out
    assert "FAIL" in out


def test_cli_json_is_valid_and_complete(capsys):
    assert main(["lint", FIXTURE, "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 2
    assert payload["strict"] is False
    assert payload["errors"] > 0
    assert set(payload["counts"]) == SEEDED
    [entry] = payload["files"]
    assert entry["path"] == FIXTURE
    assert entry["kind"] == "system"
    assert entry["safety"] is None  # errors block the safety pass
    seen = {d["code"] for d in entry["diagnostics"]}
    assert seen == SEEDED
    for diagnostic in entry["diagnostics"]:
        assert diagnostic["severity"] in ("error", "warning")
        assert diagnostic["message"]
        assert diagnostic["location"]["file"] == FIXTURE


def test_cycle_witnesses_name_the_declared_path():
    """The closed order decides the cycle; the witness is found on the
    declared pairs, so it names the path, not a closure self-loop."""
    messages = {d.code: d.message for d in lint_file(FIXTURE).diagnostics}
    assert messages["CTX114"].endswith("cycle T2 -> T3 -> T2")
    assert messages["CTX115"].endswith("cycle b -> d -> b")


def test_check_error_line_names_the_cycle_path(tmp_path, capsys):
    document = {
        "schedules": {
            "S": {
                "transactions": {"T1": ["a"], "T2": ["b"], "T3": ["c"]},
                "weak_input": [["T1", "T2"], ["T2", "T3"], ["T3", "T2"]],
            }
        }
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(document))
    assert main(["check", str(path)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == (
        "repro check: error: weak input order of 'S' is cyclic: "
        "cycle T2 -> T3 -> T2"
    )
