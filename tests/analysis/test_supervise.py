"""Tests for the supervised batch runner: timeouts, retries, hung
workers, lost workers, quarantine, and the keep-going failure report."""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.analysis.batch import (
    MAX_WORKER_LOSSES,
    BatchReport,
    run_batch,
    run_batch_report,
)
from repro.analysis.supervise import (
    REASON_CRASH,
    REASON_EXCEPTION,
    REASON_HUNG,
    REASON_TIMEOUT,
    BatchSupervisor,
    QuarantinedTask,
    QuarantineReport,
    time_limit,
)
from repro.exceptions import BatchTaskError, TaskTimeoutError
from repro.obs import Telemetry, canonical_dumps, read_records, to_record, using
from repro.simulator.retry import ExponentialBackoff
from tests.analysis.orphans import assert_no_process_names

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def square(task):
    return task * task


def fail_on_three(task):
    if task == 3:
        raise ValueError("boom")
    return task


def sleepy(task):
    """Sleeps when the task is the sentinel; SIGALRM interrupts it."""
    if task == "sleep":
        time.sleep(10.0)
    return task


def flaky(task):
    """Fails until its attempt-counter file reaches the threshold."""
    path, needed = task
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("x")
    attempts = os.path.getsize(path)
    if attempts < needed:
        raise RuntimeError(f"flaky attempt {attempts}")
    return attempts


def no_sleep(_delay):
    return None


def own_pid(_task):
    return os.getpid()


def always_exit(task):
    """Task 3 kills its worker process every time it runs."""
    if task == 3:
        os._exit(1)
    return task


def _first_time(marker):
    """True exactly once per marker file (the file makes it one-shot)."""
    if os.path.exists(marker):
        return False
    with open(marker, "w"):
        pass
    return True


def exit_once(task):
    """``"die"`` kills its worker process the first time it runs."""
    marker, value = task
    if value == "die" and _first_time(marker):
        os._exit(1)
    return value


def hang_once(task):
    """``"hang"`` stalls its worker the first time it runs."""
    marker, value = task
    if value == "hang" and _first_time(marker):
        time.sleep(60.0)
    return value


def unpicklable(task):
    """Task 2 returns a value that cannot leave its worker process."""
    if task == 2:
        return lambda: task
    return task


class TestTimeLimit:
    def test_expires(self):
        with pytest.raises(TaskTimeoutError, match="wall-clock budget"):
            with time_limit(0.05):
                time.sleep(5.0)

    def test_disabled_for_none_and_nonpositive(self):
        with time_limit(None):
            pass
        with time_limit(0):
            pass
        with time_limit(-1.0):
            pass

    def test_no_alarm_left_armed(self):
        import signal

        with time_limit(5.0):
            pass
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0

    def test_nested_inner_limit_restores_outer_budget(self):
        """The nesting bugfix: an inner time_limit used to zero the
        outer timer on exit, silently unbounding the outer guard.  Now
        the outer deadline still fires after the inner block ends."""
        with pytest.raises(TaskTimeoutError):
            with time_limit(0.2):
                with time_limit(5.0):
                    time.sleep(0.05)  # inner exits cleanly
                time.sleep(5.0)  # outer must still be armed

    def test_nested_outer_deadline_already_due_fires_promptly(self):
        """An inner block that outlives the outer budget: the restored
        outer timer is already overdue and must fire as soon as the
        inner guard hands control back."""
        started = time.monotonic()
        with pytest.raises(TaskTimeoutError):
            with time_limit(0.05):
                with time_limit(5.0):
                    # survive the outer deadline inside the inner
                    # guard: SIGALRM is armed for the INNER budget
                    time.sleep(0.15)
                time.sleep(5.0)
        assert time.monotonic() - started < 2.0

    def test_nested_inner_expiry_still_raises(self):
        import signal

        with pytest.raises(TaskTimeoutError):
            with time_limit(30.0):
                with time_limit(0.05):
                    time.sleep(5.0)
        # unwound completely: nothing left armed after the outer exits
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0


class TestQuarantine:
    def test_keep_going_quarantines_and_finishes(self):
        report = run_batch_report(
            [1, 2, 3, 4],
            fail_on_three,
            supervisor=BatchSupervisor(fail_fast=False),
        )
        assert report.results == [1, 2, None, 4]
        assert report.completed == {0: 1, 1: 2, 3: 4}
        assert report.missing == (2,)
        assert len(report.quarantine) == 1
        entry = report.quarantine.entries[0]
        assert entry.index == 2
        assert entry.reason == REASON_EXCEPTION
        assert "boom" in entry.error
        assert "boom" in entry.traceback
        assert entry.task_repr == "3"

    def test_keep_going_parallel(self):
        report = run_batch_report(
            [3, 1, 3, 2, 5],
            fail_on_three,
            workers=2,
            supervisor=BatchSupervisor(fail_fast=False),
        )
        assert report.results == [None, 1, None, 2, 5]
        assert report.quarantine.indices() == [0, 2]

    def test_fail_fast_raises_with_partial_results(self):
        with pytest.raises(BatchTaskError) as excinfo:
            run_batch_report(
                [1, 2, 3, 4],
                fail_on_three,
                supervisor=BatchSupervisor(fail_fast=True),
            )
        err = excinfo.value
        assert err.index == 2
        assert err.completed == {0: 1, 1: 2, 3: 4}
        assert err.missing == (2,)

    def test_unsupervised_run_batch_carries_partial_results(self):
        """The keep-going bugfix: even the plain fail-fast path no
        longer throws away completed cells."""
        with pytest.raises(BatchTaskError) as excinfo:
            run_batch([1, 2, 3, 4], fail_on_three, workers=2)
        err = excinfo.value
        assert err.completed == {0: 1, 1: 2, 3: 4}
        assert err.missing == (2,)

    def test_report_renders(self):
        report = QuarantineReport()
        report.add(
            QuarantinedTask(
                index=2,
                task_repr="(spec, 'cc', 7)",
                reason=REASON_TIMEOUT,
                error="TaskTimeoutError(...)",
                attempts=3,
            )
        )
        text = report.render()
        assert "task #2" in text
        assert "timeout" in text
        assert "3 attempt(s)" in text
        assert "(spec, 'cc', 7)" in text

    def test_add_keeps_task_index_order(self):
        report = QuarantineReport()
        for index in (7, 2, 5):
            report.add(
                QuarantinedTask(
                    index=index,
                    task_repr=f"t{index}",
                    reason=REASON_EXCEPTION,
                    error="e",
                )
            )
        assert report.indices() == [2, 5, 7]


class TestTimeoutsAndRetries:
    def test_task_timeout_quarantines(self):
        report = run_batch_report(
            ["a", "sleep", "b"],
            sleepy,
            supervisor=BatchSupervisor(task_timeout=0.1, fail_fast=False),
        )
        assert report.results == ["a", None, "b"]
        entry = report.quarantine.entries[0]
        assert entry.index == 1
        assert entry.reason == REASON_TIMEOUT

    def test_retry_until_success(self, tmp_path):
        counter = tmp_path / "attempts"
        report = run_batch_report(
            [(str(counter), 3)],
            flaky,
            supervisor=BatchSupervisor(
                max_attempts=5, fail_fast=False, sleep=no_sleep
            ),
        )
        assert report.results == [3]
        assert counter.read_text() == "xxx"
        assert not report.quarantine

    def test_retries_exhausted_quarantines_with_attempt_count(self, tmp_path):
        counter = tmp_path / "attempts"
        report = run_batch_report(
            [(str(counter), 99)],
            flaky,
            supervisor=BatchSupervisor(
                max_attempts=3, fail_fast=False, sleep=no_sleep
            ),
        )
        assert report.results == [None]
        entry = report.quarantine.entries[0]
        assert entry.attempts == 3
        assert counter.read_text() == "xxx"


class TestHungWorkers:
    def test_hung_worker_is_quarantined_and_grid_finishes(self):
        """Parent-side hang detection: a worker that stops delivering
        results within the hang deadline is declared hung and replaced;
        the rest of the grid still completes."""
        report = run_batch_report(
            ["a", "sleep", "b", "c"],
            sleepy,
            workers=2,
            supervisor=BatchSupervisor(hang_timeout=1.0, fail_fast=False),
        )
        assert report.results[0] == "a"
        assert report.results[2] == "b"
        assert report.results[3] == "c"
        assert report.results[1] is None
        entry = report.quarantine.entries[0]
        assert entry.index == 1
        assert entry.reason == REASON_HUNG
        assert "hung" in entry.error

    def test_effective_hang_timeout_derivation(self):
        assert BatchSupervisor().effective_hang_timeout() is None
        assert BatchSupervisor(
            task_timeout=2.0
        ).effective_hang_timeout() == pytest.approx(11.0)
        assert BatchSupervisor(
            task_timeout=2.0, hang_timeout=3.0
        ).effective_hang_timeout() == 3.0
        assert BatchSupervisor(hang_timeout=0).effective_hang_timeout() is None


class TestSeededJitter:
    def test_task_rng_is_a_pure_function_of_seed_and_index(self):
        a = BatchSupervisor(retry_seed=7).task_rng(3).random()
        b = BatchSupervisor(retry_seed=7).task_rng(3).random()
        c = BatchSupervisor(retry_seed=7).task_rng(4).random()
        d = BatchSupervisor(retry_seed=8).task_rng(3).random()
        assert a == b
        assert a != c
        assert a != d

    def test_seeded_policy_ignores_caller_rng(self):
        import random

        policy = ExponentialBackoff(0.5, seed=42)
        first = [policy.delay(i, random.Random(0)) for i in range(1, 4)]
        policy = ExponentialBackoff(0.5, seed=42)
        second = [policy.delay(i, random.Random(999)) for i in range(1, 4)]
        assert first == second

    def test_unseeded_policy_uses_caller_rng(self):
        import random

        policy = ExponentialBackoff(0.5)
        a = policy.delay(1, random.Random(0))
        b = policy.delay(1, random.Random(0))
        assert a == b  # same caller stream, same draw
        c = policy.delay(1, random.Random(1))
        assert a != c

    def test_supervised_serial_equals_parallel(self):
        supervisor = BatchSupervisor(fail_fast=False, retry_seed=3)
        serial = run_batch_report(
            list(range(8)), square, workers=1, supervisor=supervisor
        )
        parallel = run_batch_report(
            list(range(8)), square, workers=3, supervisor=supervisor
        )
        assert serial.results == parallel.results == [n * n for n in range(8)]


class TestBatchReportShape:
    def test_missing_is_empty_on_success(self):
        report = run_batch_report([1, 2], square)
        assert isinstance(report, BatchReport)
        assert report.missing == ()
        assert not report.quarantine

    def test_single_task_grid_runs_in_process(self):
        report = run_batch_report([0], own_pid, workers=4)
        assert report.results == [os.getpid()]


def _canonical_run(tasks, worker, workers):
    """The report and canonical telemetry of one keep-going batch."""
    telemetry = Telemetry()
    with using(telemetry):
        report = run_batch_report(
            tasks,
            worker,
            workers=workers,
            supervisor=BatchSupervisor(fail_fast=False),
        )
    events = [to_record(event) for event in telemetry.collect()]
    return report, canonical_dumps(events)


def _children(pid):
    """Pids of the live child processes of ``pid`` (Linux ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the field after the parenthesised command name is the state,
        # then the parent pid
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found


CHAOS_ARGS = [
    "chaos",
    "--runs",
    "6",
    "--transactions",
    "8",
    "--clients",
    "4",
    "--seed",
    "0",
]


class TestWorkerLoss:
    """A worker that dies or hangs does not change the output; a task
    that keeps losing workers on its own is quarantined."""

    def test_worker_killed_once_leaves_no_quarantine(self, tmp_path):
        marker = str(tmp_path / "died")
        tasks = [(marker, value) for value in ("a", "die", "b", "c")]
        report, canonical = _canonical_run(tasks, exit_once, workers=2)
        assert os.path.exists(marker), "the kill never fired"
        assert not report.quarantine
        serial, serial_canonical = _canonical_run(tasks, exit_once, workers=1)
        assert report.results == serial.results == ["a", "die", "b", "c"]
        assert canonical == serial_canonical

    def test_always_killer_quarantines_only_itself(self):
        report = run_batch_report(
            list(range(8)),
            always_exit,
            workers=2,
            supervisor=BatchSupervisor(fail_fast=False),
        )
        assert report.results == [0, 1, 2, None, 4, 5, 6, 7]
        assert report.quarantine.indices() == [3]
        entry = report.quarantine.entries[0]
        assert entry.reason == REASON_CRASH
        assert entry.attempts == MAX_WORKER_LOSSES == 3
        assert "worker process died" in entry.error

    def test_fail_fast_names_the_always_killer(self):
        with pytest.raises(BatchTaskError) as excinfo:
            run_batch_report(
                list(range(6)),
                always_exit,
                workers=2,
                supervisor=BatchSupervisor(fail_fast=True),
            )
        assert excinfo.value.index == 3
        assert excinfo.value.completed == {0: 0, 1: 1, 2: 2, 4: 4, 5: 5}

    def test_hung_once_task_is_rerun_and_completes(self, tmp_path):
        marker = str(tmp_path / "hung")
        tasks = [(marker, value) for value in ("a", "hang", "b", "c")]
        report = run_batch_report(
            tasks,
            hang_once,
            workers=2,
            supervisor=BatchSupervisor(hang_timeout=1.0, fail_fast=False),
        )
        assert os.path.exists(marker), "the hang never fired"
        assert report.results == ["a", "hang", "b", "c"]
        assert not report.quarantine

    def test_unpicklable_result_is_quarantined_not_raised(self):
        report = run_batch_report(
            [1, 2, 3],
            unpicklable,
            workers=2,
            supervisor=BatchSupervisor(fail_fast=False),
        )
        assert report.results == [1, None, 3]
        entry = report.quarantine.entries[0]
        assert entry.index == 1
        assert entry.reason == REASON_EXCEPTION
        with pytest.raises(BatchTaskError) as excinfo:
            run_batch_report(
                [1, 2, 3],
                unpicklable,
                workers=2,
                supervisor=BatchSupervisor(fail_fast=True),
            )
        assert excinfo.value.index == 1

    def test_unsupervised_run_batch_survives_a_killed_worker(self, tmp_path):
        """The chunked-``map`` fast path hands what a dead worker left
        unfinished to the worker-loss rule instead of raising."""
        marker = str(tmp_path / "died")
        tasks = [(marker, value) for value in ("a", "die", "b", "c", "d")]
        assert run_batch(tasks, exit_once, workers=2) == [
            "a", "die", "b", "c", "d"
        ]
        assert os.path.exists(marker), "the kill never fired"

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="finds pool workers via /proc"
    )
    def test_sigkilled_worker_output_is_byte_identical(self, tmp_path):
        """SIGKILL one ``chaos --workers 4`` pool worker mid-sweep: the
        run exits 0 and its stdout and canonical telemetry equal the
        serial run's."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        serial = subprocess.run(
            [sys.executable, "-m", "repro", *CHAOS_ARGS]
            + ["--telemetry-out", str(tmp_path / "ref.jsonl")],
            cwd=str(tmp_path),
            env=env,
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert serial.returncode == 0, serial.stderr
        run = subprocess.Popen(
            [sys.executable, "-m", "repro", *CHAOS_ARGS]
            + ["--workers", "4", "--telemetry-out", str(tmp_path / "out.jsonl")],
            cwd=str(tmp_path),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        killed = False
        deadline = time.monotonic() + 60
        while not killed and run.poll() is None and time.monotonic() < deadline:
            for child in _children(run.pid):
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    continue
                killed = True
                break
            time.sleep(0.01)
        stdout, stderr = run.communicate(timeout=240)
        assert run.returncode == 0, stderr
        if not killed:
            pytest.skip("the sweep finished before a worker could be killed")
        assert stdout == serial.stdout
        ours = canonical_dumps(read_records(str(tmp_path / "out.jsonl")))
        theirs = canonical_dumps(read_records(str(tmp_path / "ref.jsonl")))
        assert ours == theirs

    def test_sigkilled_parent_leaves_no_workers(self, tmp_path):
        """SIGKILL the parent of a ``chaos --workers 2`` sweep: its pool
        workers exit on their own, and re-running the same command
        reproduces the uninterrupted run's stdout and canonical
        telemetry (a killed seeded run is simply re-run)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        argv = [sys.executable, "-m", "repro", *CHAOS_ARGS, "--workers", "2"]
        out = ["--telemetry-out", str(tmp_path / "out.jsonl")]

        def finish(extra):
            return subprocess.run(
                argv + extra,
                cwd=str(tmp_path),
                env=env,
                capture_output=True,
                text=True,
                timeout=240,
            )

        reference = finish(["--telemetry-out", str(tmp_path / "ref.jsonl")])
        assert reference.returncode == 0, reference.stderr
        victim = subprocess.Popen(
            argv + out,
            cwd=str(tmp_path),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        while (
            victim.poll() is None
            and not _children(victim.pid)
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        killed = victim.poll() is None
        victim.kill()
        victim.wait(timeout=60)
        assert_no_process_names(str(tmp_path))
        if not killed:
            pytest.skip("the sweep finished before its parent was killed")
        rerun = finish(out)
        assert rerun.returncode == 0, rerun.stderr
        assert rerun.stdout == reference.stdout
        ours = canonical_dumps(read_records(str(tmp_path / "out.jsonl")))
        theirs = canonical_dumps(read_records(str(tmp_path / "ref.jsonl")))
        assert ours == theirs
