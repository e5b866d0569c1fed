"""Tests for batch checkpoints: the value codec, the session/section
protocol, ambient resume, and the kill-and-resume byte-identity
contract (SIGKILL mid-grid, resume, compare against uninterrupted)."""

import json
import os
import subprocess
import sys
import time

import pytest

import repro
from repro.analysis.batch import run_batch_report
from repro.analysis.checkpoint import (
    CheckpointSession,
    batch_fingerprint,
    checkpointing,
    decode_value,
    encode_value,
    read_checkpoint,
)
from repro.analysis.protocols import ChaosRun
from repro.exceptions import CheckpointError
from tests.analysis.orphans import assert_no_process_names

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def counting_square(task):
    """Worker that logs every real invocation, so resume tests can
    assert restored tasks were NOT re-run."""
    path, value = task
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{value}\n")
    return value * value


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            7,
            0.1,
            1e300,
            "text",
            [1, "two", None],
            (1, 2, (3, 4)),
            {"a": [1, 2], "b": {"c": 3.5}},
            {1: "int-keyed", (2, 3): "tuple-keyed"},
            ChaosRun(
                commits=3,
                gave_up=1,
                throughput=0.25,
                abort_rate=0.1,
                availability=0.9,
                discarded_operations=2,
                aborts_by_reason={"conflict": 4},
                faults_injected={"crash": 1},
                assembled=True,
                comp_c=True,
                lint_codes={"CTX301": 2},
            ),
        ],
    )
    def test_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_floats_roundtrip_exactly_through_json(self):
        """The byte-identity contract leans on repr shortest-round-trip
        floats surviving the JSON encode/decode unchanged."""
        values = [0.1 + 0.2, 1 / 3, 2.0 ** -1074, 1.7976931348623157e308]
        text = json.dumps(encode_value(values))
        assert decode_value(json.loads(text)) == values

    def test_unsupported_type_is_refused(self):
        with pytest.raises(CheckpointError, match="cannot checkpoint"):
            encode_value(object())

    def test_reserved_key_collision_uses_tagged_form(self):
        tricky = {"__kind__": "not-a-tag", "x": 1}
        assert decode_value(encode_value(tricky)) == tricky


class TestSessionProtocol:
    def test_checkpoint_written_and_restored(self, tmp_path):
        ck = tmp_path / "ck.json"
        log = tmp_path / "calls.log"
        tasks = [(str(log), n) for n in range(5)]

        with checkpointing(CheckpointSession(str(ck), argv=["x"])):
            first = run_batch_report(tasks, counting_square)
        assert first.results == [n * n for n in range(5)]
        assert log.read_text().count("\n") == 5

        # resume: every task restored, worker never called again,
        # results identical
        with checkpointing(CheckpointSession.resume(str(ck))):
            second = run_batch_report(tasks, counting_square)
        assert second.results == first.results
        assert log.read_text().count("\n") == 5

    def test_partial_checkpoint_only_reruns_missing(self, tmp_path):
        ck = tmp_path / "ck.json"
        log = tmp_path / "calls.log"
        tasks = [(str(log), n) for n in range(4)]

        with checkpointing(CheckpointSession(str(ck))):
            run_batch_report(tasks, counting_square)
        # drop the last two completed records, simulating a kill
        document = json.loads(ck.read_text())
        section = document["sections"][0]
        section["completed"] = section["completed"][:2]
        ck.write_text(json.dumps(document))

        with checkpointing(CheckpointSession.resume(str(ck))):
            report = run_batch_report(tasks, counting_square)
        assert report.results == [0, 1, 4, 9]
        # 4 original calls + exactly the 2 dropped ones re-ran
        assert log.read_text().count("\n") == 6

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        ck = tmp_path / "ck.json"
        with checkpointing(CheckpointSession(str(ck))):
            run_batch_report([(str(tmp_path / "l"), 1)], counting_square)
        with checkpointing(CheckpointSession.resume(str(ck))):
            with pytest.raises(CheckpointError, match="different grid"):
                run_batch_report(
                    [(str(tmp_path / "l"), 999)], counting_square
                )

    def test_fingerprint_depends_on_worker_and_tasks(self):
        a = batch_fingerprint(counting_square, [1, 2, 3])
        assert a == batch_fingerprint(counting_square, [1, 2, 3])
        assert a != batch_fingerprint(counting_square, [1, 2, 4])
        assert a != batch_fingerprint(json.dumps, [1, 2, 3])

    def test_checkpoint_file_is_always_complete_json(self, tmp_path):
        """Atomic rewrite: at every flush the file on disk parses."""
        ck = tmp_path / "ck.json"
        session = CheckpointSession(str(ck))
        with checkpointing(session):
            tasks = [(str(tmp_path / "log"), n) for n in range(3)]
            run_batch_report(tasks, counting_square)
            document = json.loads(ck.read_text())
            assert document["v"] == 1

    def test_read_checkpoint_rejects_garbage(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            read_checkpoint(str(missing))
        bad = tmp_path / "bad.json"
        bad.write_text("{torn")
        with pytest.raises(CheckpointError, match="unreadable"):
            read_checkpoint(str(bad))
        wrong = tmp_path / "wrong.json"
        wrong.write_text('{"v": 99}')
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(str(wrong))


CHAOS_ARGS = [
    "chaos",
    "--runs",
    "4",
    "--transactions",
    "8",
    "--clients",
    "4",
    "--workers",
    "2",
    "--seed",
    "0",
]


def _run_cli(args, cwd, timeout=180):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestKillAndResume:
    def test_sigkilled_grid_resumes_byte_identical(self, tmp_path):
        """The headline contract: SIGKILL a checkpointed chaos grid
        mid-run, `composite-tx resume` it, and the merged metrics AND
        canonical telemetry are byte-identical to an uninterrupted
        run's."""
        from repro.obs import canonical_dumps, read_records

        # uninterrupted reference run
        ref = _run_cli(
            CHAOS_ARGS
            + ["--telemetry-out", str(tmp_path / "ref.jsonl")],
            cwd=str(tmp_path),
        )
        assert ref.returncode == 0, ref.stderr

        # checkpointed run, SIGKILLed as soon as the checkpoint shows
        # at least one completed cell
        ck = tmp_path / "ck.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", *CHAOS_ARGS]
            + [
                "--telemetry-out",
                str(tmp_path / "out.jsonl"),
                "--checkpoint-out",
                str(ck),
            ],
            cwd=str(tmp_path),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if victim.poll() is not None:
                    break
                try:
                    document = json.loads(ck.read_text())
                    if document["sections"][0]["completed"]:
                        break
                except (OSError, json.JSONDecodeError, KeyError, IndexError):
                    pass
                time.sleep(0.005)
            killed_mid_run = victim.poll() is None
            victim.kill()
        finally:
            victim.wait(timeout=60)

        # its pool workers notice the dead parent and exit
        assert_no_process_names(str(tmp_path))

        # the checkpoint on disk is complete JSON despite the SIGKILL
        document = json.loads(ck.read_text())
        assert document["v"] == 1
        completed = sum(
            len(section["completed"]) for section in document["sections"]
        )
        if killed_mid_run:
            assert completed < 16  # genuinely interrupted

        resumed = _run_cli(["resume", str(ck)], cwd=str(tmp_path))
        assert resumed.returncode == 0, resumed.stderr

        if killed_mid_run:
            assert resumed.stdout == ref.stdout
            ours = canonical_dumps(read_records(str(tmp_path / "out.jsonl")))
            theirs = canonical_dumps(
                read_records(str(tmp_path / "ref.jsonl"))
            )
            assert ours == theirs
        else:
            # the victim finished before the kill landed: the
            # checkpoint records a completed run, and resume says so
            # instead of re-dispatching
            assert "nothing to resume" in resumed.stdout

    def test_resume_without_recorded_argv_fails_cleanly(self, tmp_path):
        ck = tmp_path / "ck.json"
        ck.write_text(
            '{"v": 1, "argv": [], "sections": '
            '[{"fingerprint": "x", "total": 2, "completed": [], '
            '"quarantined": []}]}'
        )
        result = _run_cli(["resume", str(ck)], cwd=str(tmp_path))
        assert result.returncode != 0
        assert "no command line recorded" in result.stderr


class TestCheckpointComplete:
    """The nothing-to-resume detection (`checkpoint_complete`)."""

    @staticmethod
    def _section(total, completed, quarantined=0):
        return {
            "fingerprint": "fp",
            "total": total,
            "completed": [
                {"index": i, "result": None, "events": []}
                for i in range(completed)
            ],
            "quarantined": [
                {"index": completed + i} for i in range(quarantined)
            ],
        }

    def test_clean_exit_flag_wins(self):
        from repro.analysis.checkpoint import checkpoint_complete

        assert checkpoint_complete({"complete": True, "sections": []})

    def test_fully_recorded_sections_are_complete(self):
        from repro.analysis.checkpoint import checkpoint_complete

        document = {
            "sections": [self._section(3, 3), self._section(4, 2, 2)]
        }
        assert checkpoint_complete(document)

    def test_unfinished_section_is_incomplete(self):
        from repro.analysis.checkpoint import checkpoint_complete

        document = {
            "sections": [self._section(3, 3), self._section(4, 2, 1)]
        }
        assert not checkpoint_complete(document)

    def test_empty_and_malformed_documents_are_incomplete(self):
        from repro.analysis.checkpoint import checkpoint_complete

        assert not checkpoint_complete({})
        assert not checkpoint_complete({"sections": []})
        assert not checkpoint_complete({"sections": "nope"})
        assert not checkpoint_complete({"sections": [{"total": "many"}]})

    def test_clean_session_exit_marks_checkpoint_complete(self, tmp_path):
        from repro.analysis.checkpoint import checkpoint_complete

        path = tmp_path / "ck.json"
        session = CheckpointSession(str(path), argv=["chaos"])
        with checkpointing(session):
            run_batch_report(
                [(str(tmp_path / "log"), v) for v in range(3)],
                counting_square,
            )
        assert checkpoint_complete(json.loads(path.read_text()))

    def test_killed_session_checkpoint_stays_incomplete(self, tmp_path):
        from repro.analysis.checkpoint import checkpoint_complete

        path = tmp_path / "ck.json"
        session = CheckpointSession(str(path), argv=["chaos"])
        with pytest.raises(RuntimeError):
            with checkpointing(session):
                section = session.section("fp", 3)
                section.record(0, 1, [])
                raise RuntimeError("simulated crash")
        assert not checkpoint_complete(json.loads(path.read_text()))

    def test_resume_of_complete_checkpoint_prints_and_exits_zero(
        self, tmp_path
    ):
        """Satellite contract: resuming an already-complete checkpoint
        says so and exits 0 without spawning a pool."""
        done = _run_cli(
            [
                "chaos",
                "--runs",
                "1",
                "--transactions",
                "2",
                "--clients",
                "2",
                "--protocols",
                "cc",
                "--checkpoint-out",
                str(tmp_path / "ck.json"),
            ],
            cwd=str(tmp_path),
        )
        assert done.returncode == 0, done.stderr
        resumed = _run_cli(
            ["resume", str(tmp_path / "ck.json")], cwd=str(tmp_path)
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "nothing to resume" in resumed.stdout
