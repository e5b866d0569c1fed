"""End-to-end CLI telemetry tests: --telemetry-out, profile, determinism."""

import json

import pytest

from repro.cli import main
from repro.figures import figure1_system
from repro.io import save
from repro.obs import canonical_dumps, read_records, validate_records


@pytest.fixture()
def correct_file(tmp_path):
    path = tmp_path / "fig1.json"
    save(figure1_system(), path)
    return str(path)


class TestTelemetryOut:
    def test_check_writes_valid_jsonl(self, correct_file, tmp_path, capsys):
        out = str(tmp_path / "t.jsonl")
        assert main(["check", correct_file, "--telemetry-out", out]) == 0
        captured = capsys.readouterr()
        assert "ACCEPTED" in captured.out
        assert "telemetry written" in captured.err
        records = read_records(out)
        assert validate_records(records) == []
        names = {r["name"] for r in records}
        assert "cli.command" in names
        assert "reduce.level" in names
        # every line is one JSON object
        with open(out) as handle:
            for line in handle:
                assert json.loads(line)["v"] == 1

    def test_simulate_records_attempt_lifecycle(self, tmp_path):
        out = str(tmp_path / "t.jsonl")
        assert main(
            ["simulate", "--topology", "stack", "--depth", "2",
             "--transactions", "5", "--telemetry-out", out]
        ) == 0
        records = read_records(out)
        assert validate_records(records) == []
        names = {r["name"] for r in records}
        assert "sim.run" in names
        assert "sim.attempt" in names

    def test_strict_exit_code_passes_through(self, correct_file, tmp_path):
        out = str(tmp_path / "t.jsonl")
        code = main(
            ["check", "--strict", correct_file, "--telemetry-out", out]
        )
        assert code == 0
        assert read_records(out)


class TestProfileCommand:
    def test_check_then_profile_shows_level_table(
        self, correct_file, tmp_path, capsys
    ):
        out = str(tmp_path / "t.jsonl")
        assert main(["check", correct_file, "--telemetry-out", out]) == 0
        capsys.readouterr()
        assert main(["profile", out]) == 0
        report = capsys.readouterr().out
        assert "per-phase time (inclusive)" in report
        assert "reduction levels" in report
        assert "reduce.level" in report
        assert "slowest spans" in report

    def test_profile_check_mode(self, correct_file, tmp_path, capsys):
        out = str(tmp_path / "t.jsonl")
        assert main(["check", correct_file, "--telemetry-out", out]) == 0
        capsys.readouterr()
        assert main(["profile", out, "--check"]) == 0
        assert "schema OK" in capsys.readouterr().out

    def test_profile_check_rejects_broken_stream(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"v": 1, "stream": "main", "seq": 0, "kind": "exit", '
            '"name": "x", "depth": 0, "dur_s": 0.1, "fields": {}}\n'
        )
        assert main(["profile", str(bad), "--check"]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_profile_top(self, correct_file, tmp_path, capsys):
        out = str(tmp_path / "t.jsonl")
        assert main(["check", correct_file, "--telemetry-out", out]) == 0
        capsys.readouterr()
        assert main(["profile", out, "--top", "2"]) == 0
        assert "slowest spans (top 2)" in capsys.readouterr().out


class TestWorkerDeterminism:
    """--workers 4 telemetry must be a canonical merge identical to the
    serial stream once wall durations are projected away (satellite 4)."""

    CHAOS = ["chaos", "--topology", "stack", "--depth", "2", "--runs", "2",
             "--protocols", "cc,s2pl", "--transactions", "4", "--seed", "7"]

    def _canonical(self, tmp_path, workers, tag):
        out = str(tmp_path / f"chaos-{tag}.jsonl")
        argv = self.CHAOS + ["--workers", str(workers), "--telemetry-out", out]
        assert main(argv) == 0
        records = read_records(out)
        assert validate_records(records) == []
        return canonical_dumps(records)

    def test_chaos_workers_1_vs_4_byte_identical(self, tmp_path, capsys):
        serial = self._canonical(tmp_path, 1, "serial")
        parallel = self._canonical(tmp_path, 4, "parallel")
        assert serial == parallel

    def test_task_streams_named_by_submission_index(self, tmp_path, capsys):
        out = str(tmp_path / "chaos.jsonl")
        assert main(
            self.CHAOS + ["--workers", "2", "--telemetry-out", out]
        ) == 0
        streams = {r["stream"] for r in read_records(out)}
        # 2 protocols x 2 runs = 4 task streams, plus the main stream
        assert streams == {"main", "task0000", "task0001", "task0002",
                          "task0003"}
