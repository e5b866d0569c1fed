"""CLI tests (direct main() invocation; one subprocess smoke test)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.correctness import check_composite_correctness
from repro.figures import figure1_system, figure3_system
from repro.io import load, save


@pytest.fixture()
def correct_file(tmp_path):
    path = tmp_path / "fig1.json"
    save(figure1_system(), path)
    return str(path)


@pytest.fixture()
def incorrect_file(tmp_path):
    path = tmp_path / "fig3.json"
    save(figure3_system(), path)
    return str(path)


class TestCheck:
    def test_correct(self, correct_file, capsys):
        assert main(["check", correct_file]) == 0
        assert "ACCEPTED" in capsys.readouterr().out

    def test_incorrect(self, incorrect_file, capsys):
        assert main(["check", incorrect_file]) == 0
        assert "REJECTED" in capsys.readouterr().out

    def test_strict_exit_code(self, incorrect_file, correct_file):
        assert main(["check", "--strict", incorrect_file]) == 2
        assert main(["check", "--strict", correct_file]) == 0

    def test_profile(self, correct_file, capsys):
        assert main(["check", "--profile", correct_file]) == 0
        out = capsys.readouterr().out
        assert "reduction profile" in out
        assert "closure" in out
        assert "total" in out


def run_main(argv, capsys):
    """``(exit status, stdout)`` of ``main(argv)``."""
    code = main(argv)
    return code, capsys.readouterr().out


class TestCheckReport:
    """``check`` prints a report sized to the verdict: the header, one
    line per reduction level, the verdict.  ``check --fronts`` prints
    every front's closed orders, ``CorrectnessReport.narrative()``."""

    @pytest.mark.parametrize(
        "system", [figure1_system, figure3_system], ids=["accept", "reject"]
    )
    def test_report_frames_the_same_verdict(self, system, tmp_path, capsys):
        path = tmp_path / "doc.json"
        save(system(), path)
        code, report = run_main(["check", str(path)], capsys)
        fronts_code, fronts = run_main(["check", "--fronts", str(path)], capsys)
        assert code == fronts_code == 0
        lines, full = report.splitlines(), fronts.splitlines()
        assert (lines[0], lines[-1]) == (full[0], full[-1])
        assert lines[-1].startswith(("ACCEPTED -- ", "REJECTED -- "))
        assert "observed order:" in fronts
        assert "observed order:" not in report
        profile = check_composite_correctness(system()).reduction.profile
        assert lines[1:-1] == [
            f"level {row.level}: {row.nodes} nodes, "
            f"{row.observed_pairs} observed pairs"
            for row in profile
        ]
        assert profile

    def test_explain_follows_the_report(self, incorrect_file, capsys):
        code, out = run_main(["check", "--explain", incorrect_file], capsys)
        _, report = run_main(["check", incorrect_file], capsys)
        explained = check_composite_correctness(figure3_system()).explain()
        assert code == 0
        assert out == report + "\n" + explained + "\n"

    @pytest.mark.parametrize(
        "path",
        sorted(
            str(path)
            for folder in ("examples/lint", "tests/fixtures")
            for path in Path(folder).glob("*.json")
        ),
    )
    def test_fronts_prints_the_narrative(self, path, capsys):
        code, out = run_main(["check", "--fronts", path], capsys)
        if code == 1:  # not a system document: an error, no report
            assert out == ""
            return
        report = check_composite_correctness(load(path).system)
        assert out == report.narrative() + "\n"


class TestInfo:
    def test_info(self, correct_file, capsys):
        assert main(["info", correct_file]) == 0
        out = capsys.readouterr().out
        assert "level 3: SA" in out
        assert "comp_c" in out


class TestRender:
    def test_ascii(self, correct_file, capsys):
        assert main(["render", correct_file]) == 0
        assert "T1" in capsys.readouterr().out

    def test_dot(self, correct_file, capsys):
        assert main(["render", correct_file, "--format", "dot-forest"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_dot_invocation(self, correct_file, capsys):
        assert (
            main(["render", correct_file, "--format", "dot-invocation"]) == 0
        )
        assert '"SA" -> "SB"' in capsys.readouterr().out


class TestGenerateAndRoundTrip:
    def test_generate_then_check(self, tmp_path, capsys):
        out = str(tmp_path / "gen.json")
        assert (
            main(
                [
                    "generate",
                    "--topology",
                    "fork",
                    "--width",
                    "3",
                    "--roots",
                    "3",
                    "--layout",
                    "serial",
                    "-o",
                    out,
                ]
            )
            == 0
        )
        assert "Comp-C" in capsys.readouterr().out
        assert main(["check", "--strict", out]) == 0

    def test_generate_all_topologies(self, tmp_path):
        for topo in ("stack", "fork", "join", "tree", "dag"):
            out = str(tmp_path / f"{topo}.json")
            args = ["generate", "--topology", topo, "-o", out]
            if topo in ("stack", "tree", "dag"):
                args += ["--depth", "2"]
            if topo in ("fork", "join", "tree", "dag"):
                args += ["--width", "2"]
            assert main(args) == 0


class TestSimulate:
    def test_simulate_prints_metrics(self, tmp_path, capsys):
        out = str(tmp_path / "sim.json")
        code = main(
            [
                "simulate",
                "--topology",
                "join",
                "--width",
                "2",
                "--clients",
                "2",
                "--transactions",
                "3",
                "-o",
                out,
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "throughput" in text
        assert "Comp-C" in text
        assert main(["check", out]) == 0


class TestFiguresAndExperiments:
    def test_figures_all(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "REJECTED" in out

    def test_single_figure(self, capsys):
        assert main(["figures", "4"]) == 0
        assert "ACCEPTED" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["t2", "t3", "t4"])
    def test_theorem_experiments(self, name, capsys):
        assert main(["experiment", name, "--trials", "8"]) == 0
        assert "agreements" in capsys.readouterr().out

    def test_h1(self, capsys):
        assert main(["experiment", "h1", "--trials", "6"]) == 0
        assert "containment violations: 0" in capsys.readouterr().out

    def test_a1(self, capsys):
        assert main(["experiment", "a1", "--trials", "10"]) == 0
        assert "no forgetting" in capsys.readouterr().out

    def test_p2(self, capsys):
        assert main(["experiment", "p2"]) == 0
        assert "nodes" in capsys.readouterr().out

    def test_t1(self, capsys):
        assert main(["experiment", "t1", "--trials", "8"]) == 0
        assert "certificates" in capsys.readouterr().out


def test_module_entry_point():
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "figures", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0
    assert "REJECTED" in completed.stdout


class TestInputErrors:
    """Unreadable or malformed input ends in one ``repro <command>:
    error:`` line on stderr and exit status 1, not a traceback."""

    @staticmethod
    def run_check(path):
        return subprocess.run(
            [sys.executable, "-m", "repro", "check", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_truncated_document(self, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_text('{"schedules": {"S": ')
        completed = self.run_check(path)
        assert completed.returncode == 1
        assert completed.stdout == ""
        assert completed.stderr.startswith("repro check: error: CTX402")
        assert "Traceback" not in completed.stderr
        assert len(completed.stderr.splitlines()) == 1

    def test_missing_file(self, tmp_path):
        completed = self.run_check(tmp_path / "absent.json")
        assert completed.returncode == 1
        assert completed.stderr.startswith("repro check: error: ")
        assert "No such file or directory" in completed.stderr
        assert "Traceback" not in completed.stderr

    def test_stream_protocol_violation(self, tmp_path):
        """A log out of protocol (a commit with nothing staged) is a
        StreamError: one error line naming it and its ``FILE:LINE``,
        not a traceback."""
        log = tmp_path / "log.jsonl"
        log.write_text(
            '{"e":"log","v":1,"derive":"declared"}\n'
            '{"e":"commit","root":"R1"}\n'
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "watch", str(log)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 1
        assert completed.stderr == (
            f"repro watch: error: {log}:2: commit of root 'R1' with no "
            "staged transactions\n"
        )

    def test_non_utf8_document(self, tmp_path, capsys):
        """A document that is not UTF-8 is one CTX401 `check` error
        line naming the bad byte; lint reports the same CTX401."""
        path = tmp_path / "latin1.json"
        path.write_bytes(
            b'{"schedules": {"S": {"transactions": {"T1": ["a\xe9"]}}}}'
        )
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"repro check: error: CTX401 error: {path}: not valid UTF-8: "
            "invalid continuation byte at line 1 (byte offset 47)\n"
        )
        assert main(["lint", str(path)]) == 2
        assert (
            f"CTX401 error: {path}: not valid UTF-8: invalid continuation "
            "byte at line 1 (byte offset 47)"
        ) in capsys.readouterr().out

    def test_deeply_nested_document(self, tmp_path, capsys):
        """Arrays nested past the JSON parser's depth are one CTX401
        `check` error line, not a RecursionError traceback; lint
        reports the same CTX401."""
        path = tmp_path / "nested.json"
        path.write_text('{"schedules": ' + "[" * 100_000)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"repro check: error: CTX401 error: {path}: not valid JSON: "
            "nested too deeply\n"
        )
        assert main(["lint", str(path)]) == 2
        out = capsys.readouterr().out
        assert f"CTX401 error: {path}: not valid JSON: nested too deeply" in out

    @pytest.mark.parametrize(
        "line, message",
        [
            (
                b'{"e":"txn","root":"R1","schedule":"S","txn":"R1",'
                b'"ops":["a"],"weak":["ab"]}',
                "field 'weak' is not a list of pairs",
            ),
            (b'{"e":"begin","root":"R\xff"}', "invalid UTF-8 in event log"),
        ],
        ids=["string-pair", "non-utf8"],
    )
    def test_malformed_event_line(self, tmp_path, capsys, line, message):
        """A malformed event-log line ends `watch` with one error line
        naming its ``FILE:LINE``, after the events before it."""
        log = tmp_path / "log.jsonl"
        log.write_bytes(b'{"e":"log","v":1,"derive":"declared"}\n' + line + b"\n")
        assert main(["watch", str(log)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("[offset ")
        assert captured.err.startswith(f"repro watch: error: {log}:2: {message}")
        assert len(captured.err.splitlines()) == 1

    def test_invalid_generator_parameters(self, tmp_path):
        """A WorkloadError (here a zero-depth stack) is bad input too."""
        output = tmp_path / "g.json"
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "generate", "--topology",
             "stack", "--depth", "0", "-o", str(output)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 1
        assert completed.stderr == (
            "repro generate: error: stack depth must be >= 1\n"
        )
        assert not output.exists()

    def test_unknown_strong_input(self, tmp_path):
        """A strong input naming an unknown transaction is the
        schedule's ModelError, not a KeyError from the builder."""
        path = tmp_path / "unknown.json"
        path.write_text(
            '{"schedules": {"S": {"transactions": {"T1": ["a"], '
            '"T2": ["b"]}, "strong_input": [["T1", "T9"]]}}}'
        )
        completed = self.run_check(path)
        assert completed.returncode == 1
        assert completed.stderr == (
            "repro check: error: strong input order of schedule 'S' "
            "mentions 'T9', which is not one of its transactions\n"
        )

    @pytest.mark.parametrize(
        "key, entry",
        [
            ("weak_output", '["a", "b", "a"]'),
            ("conflicts", '["a"]'),
            ("strong_input", "3"),
            ("weak_input", '"t3"'),
        ],
    )
    def test_malformed_pair(self, tmp_path, capsys, key, entry):
        """A pair entry that is not a two-element list is one error
        line worded like lint's CTX305 — a two-character string is not
        unpacked into its characters."""
        path = tmp_path / "pair.json"
        path.write_text(
            '{"schedules": {"S": {"transactions": {"T1": ["a"], '
            f'"T2": ["b"]}}, "{key}": [{entry}]}}}}}}'
        )
        assert main(["check", str(path)]) == 1
        shown = json.loads(entry)
        assert capsys.readouterr().err == (
            f"repro check: error: {key!r} of schedule 'S' contains the "
            f"malformed entry {shown!r} (expected a pair)\n"
        )

    @pytest.mark.parametrize(
        "document, message",
        [
            ('{"schedules": {"S": {"transactions": {"T1": 5}}}}',
             "transaction 'T1' of schedule 'S' is neither an operation "
             "list nor a mapping"),
            ('{"schedules": {"S": {"transactions": {"T1": "ab"}}}}',
             "transaction 'T1' of schedule 'S' is neither an operation "
             "list nor a mapping"),
            ('{"schedules": {"S": {"transactions": {"T1": {"ops": 5}}}}}',
             "'ops' of transaction 'T1' of schedule 'S' is not a list of "
             "operations"),
            ('{"schedules": {"S": {"transactions": {"T1": ["a"]}, '
             '"executed": 5}}}',
             "'executed' of schedule 'S' is not a list of operations"),
            ('{"schedules": {"S": [1, 2]}}',
             "schedule 'S' body is not a mapping"),
            ('{"schedules": {"S": {"transactions": [["a"]]}}}',
             "'transactions' of schedule 'S' is not a mapping"),
            ('{"schedules": []}', "document has no 'schedules' section"),
            ('{"schedules": {}}', "document has no 'schedules' section"),
            ('{"schedules": {"S": {"transactions": {"T1": ["a"]}}}, '
             '"executions": 3}',
             "'executions' is not a mapping of schedule -> sequence"),
            ('{"schedules": {"S": {"transactions": {"T1": ["a"]}}}, '
             '"executions": {"S": 3}}',
             "'executions' of schedule 'S' is not a list of operations"),
            ('{"schedules": {"S": {"transactions": {"T1": ["a"]}}}, '
             '"executions": {"S": null}}',
             "'executions' of schedule 'S' is not a list of operations"),
            ('{"schedules": {"S": {"transactions": {"T1": ["a", ["b"]]}}}}',
             "transaction 'T1' of schedule 'S' is neither an operation "
             "list nor a mapping"),
            ('{"schedules": {"S": {"transactions": {"T1": ["a", 5]}}}}',
             "transaction 'T1' of schedule 'S' is neither an operation "
             "list nor a mapping"),
            ('{"schedules": {"S": {"transactions": {"T1": {"ops": [5]}}}}}',
             "'ops' of transaction 'T1' of schedule 'S' is not a list of "
             "operations"),
            ('{"schedules": {"S": {"transactions": {"T1": ["a"], '
             '"T2": ["b"]}, "conflicts": [["a", ["b"]]]}}}',
             "'conflicts' of schedule 'S' contains the malformed entry "
             "['a', ['b']] (expected a pair)"),
            ('{"schedules": {"S": {"transactions": {"T1": ["a"]}, '
             '"executed": ["a", ["b"]]}}}',
             "'executed' of schedule 'S' is not a list of operations"),
            ('{"schedules": {"S": {"transactions": {"T1": ["a"]}}}, '
             '"executions": {"S": ["a", 5]}}',
             "'executions' of schedule 'S' is not a list of operations"),
            ('{"schedules": {"S": {"transactions": {"T1": ["a"]}}}, '
             '"executions": {"Q": ["a"]}}',
             "'executions' names unknown schedule 'Q'"),
        ],
    )
    def test_malformed_shape(self, tmp_path, capsys, document, message):
        """Each malformed document shape is one `check` error line with
        the message lint reports as CTX305, never a traceback; a string
        is not read as a list of one-character operations, and an
        operation name that is not a string is no name."""
        path = tmp_path / "shape.json"
        path.write_text(document)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == f"repro check: error: {message}\n"
        assert main(["lint", "--format", "json", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        found = report["files"][0]["diagnostics"]
        assert ("CTX305", message) in [(d["code"], d["message"]) for d in found]
        assert report["files"][0]["safety"] is None  # nothing certified

    @pytest.mark.parametrize(
        "lane, missing, extra",
        [('["a", "zzz"]', [], ["zzz"]), ('["b"]', ["a"], ["b"]),
         ('["a", "a"]', [], [])],
    )
    def test_executions_lane_mismatch(
        self, tmp_path, capsys, lane, missing, extra
    ):
        """A top-level lane that does not list its schedule's operations
        exactly once is one `check` error line, and lint's CTX302 with
        the same message; neither accepts the document."""
        path = tmp_path / "lane.json"
        path.write_text(
            '{"schedules": {"S": {"transactions": {"T1": ["a"]}}}, '
            f'"executions": {{"S": {lane}}}}}'
        )
        message = (
            "top-level execution of 'S' does not match its declared "
            f"operations (missing={missing}, extra={extra})"
        )
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == f"repro check: error: {message}\n"
        assert main(["lint", "--format", "json", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        found = report["files"][0]["diagnostics"]
        assert [(d["code"], d["message"]) for d in found] == [
            ("CTX302", message)
        ]
        assert report["files"][0]["safety"] is None

    @pytest.mark.parametrize(
        "executed, missing, extra",
        [('["b", "zz"]', ["a"], ["zz"]), ('["a"]', ["b"], []),
         ('["a", "b", "a"]', [], [])],
    )
    def test_executed_sequence_mismatch(
        self, tmp_path, capsys, executed, missing, extra
    ):
        """A schedule's ``executed`` sequence that does not list its
        operations exactly once is one `check` error line, and lint's
        CTX302 with the same message; neither accepts the document."""
        path = tmp_path / "executed.json"
        path.write_text(
            '{"schedules": {"S": {"transactions": {"T1": ["a"], '
            f'"T2": ["b"]}}, "executed": {executed}}}}}}}'
        )
        message = (
            "execution sequence of 'S' does not match the declared "
            f"operations (missing={missing}, extra={extra})"
        )
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"repro check: error: {message}\n"
        assert main(["lint", "--format", "json", str(path)]) == 2
        report = json.loads(capsys.readouterr().out)
        found = report["files"][0]["diagnostics"]
        assert [(d["code"], d["message"]) for d in found] == [
            ("CTX302", message)
        ]
        assert report["files"][0]["safety"] is None

    def test_in_process_status(self, tmp_path, capsys):
        path = tmp_path / "truncated.json"
        path.write_text("")
        assert main(["info", str(path)]) == 1
        assert capsys.readouterr().err.startswith("repro info: error: CTX402")
