"""Supervised watch: restart-by-re-read through injected failures,
poison-event quarantine with offset attribution, log rotation, hang
detection, and seeded-backoff determinism."""

import pytest

from repro.core.reduction import reduce_to_roots
from repro.io.eventlog import dumps_event, events_from_recorded
from repro.stream import StreamSupervisor
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import stack_topology


def _workload(seed=9):
    recorded = generate(
        stack_topology(3),
        WorkloadConfig(seed=seed, roots=3, conflict_probability=0.2),
    )
    return recorded, events_from_recorded(recorded)


def _lines(events):
    return [(dumps_event(e) + "\n").encode("utf-8") for e in events]


def _supervisor(log, **kwargs):
    kwargs.setdefault("follow", False)
    kwargs.setdefault("quarantine_after", 2)
    kwargs.setdefault("backoff_base", 0.0)
    kwargs.setdefault("sleep", lambda _s: None)
    return StreamSupervisor(str(log), **kwargs)


def _metas(supervisor, name):
    return [
        dict(e.fields)
        for e in supervisor.telemetry.collect()
        if e.kind == "meta" and e.name == name
    ]


class TestCleanRun:
    def test_complete_log_certifies_in_one_attempt(self, tmp_path):
        recorded, events = _workload()
        log = tmp_path / "log.jsonl"
        log.write_bytes(b"".join(_lines(events)))
        watch = _supervisor(log).run()
        assert watch.attempts == 1 and not watch.quarantined
        assert watch.result is not None
        batch = reduce_to_roots(recorded.system)
        assert watch.result.verdict.rejected == (batch.failure is not None)
        assert watch.result.reduction.failure == batch.failure


class TestQuarantine:
    def test_poison_line_is_quarantined_with_attribution(self, tmp_path):
        """A deterministic failure lands on the same offset every
        restart; after ``quarantine_after`` failures there the
        supervisor stops and names the poison line (CTX504)."""
        _, events = _workload()
        lines = _lines(events)
        poison_at = len(lines) // 2
        poisoned = (
            lines[:poison_at] + [b"%not json%\n"] + lines[poison_at:]
        )
        log = tmp_path / "log.jsonl"
        log.write_bytes(b"".join(poisoned))
        supervisor = _supervisor(log)
        watch = supervisor.run()
        assert watch.quarantined and watch.result is None
        assert watch.attempts == 2
        poison = watch.poison
        assert poison.failures == 2
        assert poison.diagnostic.code == "CTX504"
        # attribution: the failure offset is the bytes consumed up to
        # (not including) the poison line, and the reported line is
        # the poison line's 1-based number
        assert poison.offset == sum(len(l) for l in lines[:poison_at])
        assert poison.line == poison_at + 1
        assert _metas(supervisor, "stream.quarantine") != []

    def test_restart_rereads_from_offset_zero(self, tmp_path):
        """Every restart is a fresh checker over the whole log: the
        recovery record names the offset the failed attempt died at,
        and the last attempt's checker carries nothing over (the one
        poll that read the whole log raised before any ingest)."""
        _, events = _workload()
        lines = _lines(events)
        poison_at = len(lines) - 20
        log = tmp_path / "log.jsonl"
        log.write_bytes(
            b"".join(lines[:poison_at] + [b"%not json%\n"] + lines[poison_at:])
        )
        supervisor = _supervisor(log)
        watch = supervisor.run()
        assert watch.quarantined and watch.attempts == 2
        poison_offset = sum(len(l) for l in lines[:poison_at])
        assert _metas(supervisor, "stream.recover") == [
            {"attempt": 2, "reread": poison_offset}
        ]
        [_, second] = _metas(supervisor, "stream.supervisor.failure")
        assert second["offset"] == poison_offset
        assert supervisor.checker is not None
        assert supervisor.checker.verdict().events == 0

    def test_repair_then_resume_certifies(self, tmp_path):
        """The quarantine fix-hint workflow: excise the poison line,
        re-run the supervisor, and it re-reads the repaired log and
        certifies the same verdict as an uninterrupted batch check."""
        recorded, events = _workload()
        lines = _lines(events)
        poison_at = len(lines) * 3 // 4
        log = tmp_path / "log.jsonl"
        log.write_bytes(
            b"".join(lines[:poison_at] + [b"%x%\n"] + lines[poison_at:])
        )
        first = _supervisor(log).run()
        assert first.quarantined

        log.write_bytes(b"".join(lines))  # the repair
        second = _supervisor(log)
        watch = second.run()
        assert not watch.quarantined and watch.attempts == 1
        assert _metas(second, "stream.recover") == []
        batch = reduce_to_roots(recorded.system)
        assert watch.result.reduction.failure == batch.failure

    def test_max_restarts_reraises_moving_failures(self, tmp_path):
        """Failures that keep moving are environmental, not poison:
        past ``max_restarts`` the last error propagates."""
        from repro.exceptions import ParseError

        _, events = _workload()
        lines = _lines(events)
        log = tmp_path / "log.jsonl"
        log.write_bytes(b"".join(lines[:10] + [b"%x%\n"]))

        # every restart repairs the current poison and plants a new
        # one a line later, so the offset never repeats
        state = {"n": 10}

        def advance(_s):
            state["n"] += 1
            log.write_bytes(
                b"".join(lines[: state["n"]] + [b"%x%\n"])
            )

        supervisor = _supervisor(
            log,
            quarantine_after=99,
            max_restarts=3,
            sleep=advance,
        )
        with pytest.raises(ParseError):
            supervisor.run()


class TestRotation:
    def test_rotated_log_is_reread_from_offset_zero(self, tmp_path):
        """A log copytruncate-rotated under a following watch shrinks
        below the consumed offset: the tailer raises CTX502, and the
        restart re-reads the log as it now is while the writer
        backfills, certifying the batch verdict."""
        recorded, events = _workload()
        lines = _lines(events)
        log = tmp_path / "log.jsonl"
        half = len(lines) // 2
        log.write_bytes(b"".join(lines[:half]))
        state = {"rotated": False}

        def writer():
            if not state["rotated"]:
                # rotation that loses the tail: only a prefix survives
                log.write_bytes(b"".join(lines[: half // 2]))
                state["rotated"] = True
            elif log.stat().st_size < sum(len(l) for l in lines):
                log.write_bytes(b"".join(lines))

        supervisor = _supervisor(
            log, follow=True, interval=0.0, on_idle=writer
        )
        watch = supervisor.run()
        assert watch.attempts == 2 and not watch.quarantined
        [failure] = _metas(supervisor, "stream.supervisor.failure")
        assert failure["code"] == "CTX502"
        assert failure["error"] == "EventLogTruncatedError"
        [recover] = _metas(supervisor, "stream.recover")
        assert recover == {
            "attempt": 2,
            "reread": sum(len(l) for l in lines[:half]),
        }
        assert supervisor.checker.verdict().events == len(events)
        batch = reduce_to_roots(recorded.system)
        assert watch.result.reduction.failure == batch.failure


class TestHangDetection:
    def test_hung_attempt_is_timed_out_and_quarantined(self, tmp_path):
        """A watch that stops making progress (log never ends, writer
        gone) trips the SIGALRM attempt timeout; the timeout is
        supervised like any failure and quarantines at the stalled
        offset."""
        _, events = _workload()
        lines = _lines(events)
        log = tmp_path / "log.jsonl"
        log.write_bytes(b"".join(lines[:-1]))  # no end record: stalls
        supervisor = StreamSupervisor(
            str(log),
            follow=True,
            interval=0.01,
            attempt_timeout=0.3,
            quarantine_after=2,
            backoff_base=0.0,
        )
        watch = supervisor.run()
        assert watch.quarantined
        assert "wall-clock budget" in watch.poison.error
        stalled = sum(len(l) for l in lines[:-1])
        assert watch.poison.offset == stalled
        # the restart re-read the whole log back to the stall
        assert _metas(supervisor, "stream.recover") == [
            {"attempt": 2, "reread": stalled}
        ]


class TestDeterminism:
    def _delays(self, tmp_path, tag, seed):
        _, events = _workload()
        lines = _lines(events)
        log = tmp_path / f"log-{tag}.jsonl"
        log.write_bytes(b"".join(lines[:30] + [b"%x%\n"] + lines[30:]))
        delays = []
        supervisor = _supervisor(
            log,
            quarantine_after=3,
            backoff_base=0.01,
            seed=seed,
            sleep=delays.append,
        )
        supervisor.run()
        return delays

    def test_same_seed_same_backoff_schedule(self, tmp_path):
        a = self._delays(tmp_path, "a", seed=42)
        b = self._delays(tmp_path, "b", seed=42)
        assert a == b and len(a) == 2  # two restarts before quarantine

    def test_different_seed_different_jitter(self, tmp_path):
        a = self._delays(tmp_path, "c", seed=1)
        b = self._delays(tmp_path, "d", seed=2)
        assert a != b


def test_quarantine_after_must_be_positive(tmp_path):
    with pytest.raises(ValueError, match="quarantine_after"):
        StreamSupervisor(str(tmp_path / "l"), quarantine_after=0)
