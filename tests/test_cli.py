"""CLI tests (direct main() invocation; one subprocess smoke test)."""

import subprocess
import sys

import pytest

from repro.cli import main
from repro.figures import figure1_system, figure3_system
from repro.io import save


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

    def test_in_process_status(self, tmp_path, capsys):
        path = tmp_path / "truncated.json"
        path.write_text("")
        assert main(["info", str(path)]) == 1
        assert capsys.readouterr().err.startswith("repro info: error: CTX402")
