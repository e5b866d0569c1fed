"""The ``composite-tx lint`` exit-code contract and output formats.

0 = every document clean, 1 = usage/IO problem (missing path, nothing
to lint), 2 = error findings — or any finding under ``--strict``.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parents[2]

CLEAN_DOC = """{
  "schedules": {
    "S": {"transactions": {"T1": ["a"], "T2": ["b"]},
          "conflicts": [["a", "b"]],
          "executed": ["a", "b"]}
  }
}"""

#: warnings only: the lost-update *shape* (statically unsafe, CTX301)
#: around an execution the reduction accepts — no errors.
WARNING_DOC = """{
  "schedules": {
    "S1": {"transactions": {"T1": ["a", "b"], "T2": ["c"]},
           "conflicts": [["a", "c"], ["c", "b"]],
           "executed": ["a", "b", "c"]}
  }
}"""

ERROR_DOC = '{"schedules": {"S": {"transactions": {"T": ["x", "x"]}}}}'

#: errors via the refuter: the lost-update execution (CTX310)
REFUTED_DOC = """{
  "schedules": {
    "S1": {"transactions": {"T1": ["a", "b"], "T2": ["c"]},
           "conflicts": [["a", "c"], ["c", "b"]],
           "executed": ["a", "c", "b"]}
  }
}"""


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "clean.json"
    path.write_text(CLEAN_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture()
def warning_file(tmp_path):
    path = tmp_path / "warn.json"
    path.write_text(WARNING_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture()
def error_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(ERROR_DOC, encoding="utf-8")
    return str(path)


def test_clean_file_exits_zero(clean_file, capsys):
    assert main(["lint", clean_file]) == 0
    out = capsys.readouterr().out
    assert "OK: 1 document(s), 0 error(s), 0 warning(s)" in out
    assert "statically Comp-C" in out  # the certificate is surfaced


def test_error_file_exits_two(error_file, capsys):
    assert main(["lint", error_file]) == 2
    out = capsys.readouterr().out
    assert "CTX203" in out
    assert "FAIL" in out


def test_warnings_pass_unless_strict(warning_file, capsys):
    assert main(["lint", warning_file]) == 0
    assert "CTX301" in capsys.readouterr().out
    assert main(["lint", warning_file, "--strict"]) == 2
    out = capsys.readouterr().out
    assert "[strict]" in out
    assert "FAIL" in out


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope.json")]) == 1
    assert "no such file or directory" in capsys.readouterr().err


def test_empty_directory_is_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path)]) == 1
    assert capsys.readouterr().err


def test_invalid_json_is_a_finding_not_a_crash(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["lint", str(path)]) == 2
    assert "CTX401" in capsys.readouterr().out


def test_too_deeply_nested_json_is_a_finding_not_a_crash(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text('{"schedules": ' + "[" * 100_000, encoding="utf-8")
    assert main(["lint", "--format", "json", str(path)]) == 2
    [finding] = json.loads(capsys.readouterr().out)["files"][0]["diagnostics"]
    assert finding["code"] == "CTX401"
    assert finding["message"] == "not valid JSON: nested too deeply"


def test_directory_recursion_is_deterministic(
    tmp_path, clean_file, capsys
):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.json").write_text(CLEAN_DOC, encoding="utf-8")
    (tmp_path / "a.json").write_text(WARNING_DOC, encoding="utf-8")
    assert main(["lint", str(tmp_path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    paths = [f["path"] for f in payload["files"]]
    assert paths == sorted(paths)
    assert len(paths) >= 3  # a.json, clean.json, sub/b.json


def test_json_format_matches_exit_code(warning_file, capsys):
    code = main(["lint", warning_file, "--format", "json", "--strict"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["exit_code"] == 2
    assert payload["strict"] is True
    assert payload["errors"] == 0
    assert payload["warnings"] >= 1
    assert payload["counts"] == {"CTX301": payload["warnings"]}
    [entry] = payload["files"]
    assert entry["safety"]["certified"] is False


def test_mixed_kinds_in_one_run(tmp_path, capsys):
    (tmp_path / "sys.json").write_text(CLEAN_DOC, encoding="utf-8")
    (tmp_path / "topo.json").write_text(
        json.dumps(
            {
                "levels": {"A": 2, "B": 1},
                "invokes": {"A": ["B"], "B": []},
                "root_schedules": ["A"],
            }
        ),
        encoding="utf-8",
    )
    assert main(["lint", str(tmp_path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    kinds = {f["path"].rsplit("/", 1)[-1]: f["kind"] for f in payload["files"]}
    assert kinds == {"sys.json": "system", "topo.json": "topology"}


def test_examples_directory_is_lint_clean_under_strict(capsys):
    """The acceptance gate CI runs: the shipped examples stay clean."""
    assert main(["lint", str(REPO / "examples"), "--strict"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(("OK", str(REPO)))


# ----------------------------------------------------------------------
# verdict tier surface: --witness-out, --explain, --workers
# ----------------------------------------------------------------------


@pytest.fixture()
def refuted_file(tmp_path):
    path = tmp_path / "refuted.json"
    path.write_text(REFUTED_DOC, encoding="utf-8")
    return str(path)


def test_refuted_file_exits_two_without_strict(refuted_file, capsys):
    assert main(["lint", refuted_file]) == 2
    out = capsys.readouterr().out
    assert "CTX310" in out
    assert "statically refuted" in out
    assert "FAIL" in out


def test_witness_out_writes_a_replayable_document(
    refuted_file, tmp_path, capsys
):
    witness = tmp_path / "witness.json"
    assert (
        main(["lint", refuted_file, "--witness-out", str(witness)]) == 2
    )
    assert "witness document written" in capsys.readouterr().err
    from repro.lint import WITNESS_VERSION, replay_witness_file

    payload = json.loads(witness.read_text(encoding="utf-8"))
    assert payload["witness_version"] == WITNESS_VERSION
    assert payload["verdicts"] == {"certified_unsafe": 1}
    [outcome] = replay_witness_file(str(witness))
    assert outcome.rejected


def test_witness_out_written_even_when_clean(clean_file, tmp_path, capsys):
    witness = tmp_path / "witness.json"
    assert main(["lint", clean_file, "--witness-out", str(witness)]) == 0
    capsys.readouterr()
    payload = json.loads(witness.read_text(encoding="utf-8"))
    assert payload["refutations"] == []
    assert payload["verdicts"] == {"certified_safe": 1}


def test_explain_prints_edge_provenance(refuted_file, capsys):
    assert main(["lint", refuted_file, "--explain"]) == 2
    out = capsys.readouterr().out
    # the golden SafetyEdge.describe() chain, level-prefixed
    assert "L1 S1:conflict(a, c)" in out
    assert "L1 S1:conflict(b, c)" in out
    assert "recorded execution S1: a c b" in out


def test_workers_output_is_byte_identical(tmp_path, capsys):
    (tmp_path / "a.json").write_text(REFUTED_DOC, encoding="utf-8")
    (tmp_path / "b.json").write_text(WARNING_DOC, encoding="utf-8")
    (tmp_path / "c.json").write_text(CLEAN_DOC, encoding="utf-8")
    code = main(["lint", str(tmp_path), "--format", "json"])
    serial = capsys.readouterr().out
    assert main(
        ["lint", str(tmp_path), "--format", "json", "--workers", "2"]
    ) == code
    sharded = capsys.readouterr().out
    assert serial == sharded
    payload = json.loads(serial)
    assert payload["verdicts"] == {
        "certified_safe": 1,
        "certified_unsafe": 1,
        "unknown": 1,
    }
    # the canonical-JSON contract: one compact sorted line
    assert serial == serial.strip() + "\n"
    assert '": ' not in serial
