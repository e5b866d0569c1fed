"""Tests for the fault-tolerant checking fleet: shard partitioning,
the coordinator state machine (simulated delivery schedules, duplicate
results, worker kills), real-process crash/hang/quarantine recovery
with byte-identity, and the SIGKILLed-coordinator resume contract."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.batch import _TaskOutcome, run_batch_report
from repro.analysis.fleet import (
    MSG_DONE,
    MSG_RESULT,
    FleetConfig,
    FleetCoordinator,
    FleetProtocolError,
    _WorkerHandle,
    ambient_fleet,
    fleet_scope,
    partition_shards,
)
from repro.analysis.supervise import (
    REASON_CRASH,
    REASON_HUNG,
    BatchSupervisor,
)
from repro.exceptions import BatchTaskError
from repro.obs import Telemetry, canonical_dumps, to_record, using
from tests.analysis.orphans import assert_no_process_names

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


# ----------------------------------------------------------------------
# module-level workers (the pool/fleet must be able to pickle them)
# ----------------------------------------------------------------------
def square(task):
    return task * task


def sentinel_square(task):
    """Squares, but the first encounter of value 5 SIGKILLs its own
    worker process (the sentinel file makes the kill one-shot, so the
    reassigned shard completes)."""
    path, value = task
    if value == 5 and not os.path.exists(path):
        with open(path, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def sentinel_stopper(task):
    """The first encounter of value 3 SIGSTOPs its own worker — the
    heartbeat thread freezes with it, so the coordinator must expire
    the lease rather than see a crash."""
    path, value = task
    if value == 3 and not os.path.exists(path):
        with open(path, "w"):
            pass
        os.kill(os.getpid(), signal.SIGSTOP)
    return value + 100


def poison_two(task):
    """Value 2 always kills its worker: that shard can never finish
    and must be quarantined after failing on distinct workers."""
    if task == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return task


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
class TestPartition:
    def test_contiguous_and_complete(self):
        todo = [(i, f"t{i}") for i in range(10)]
        shards = partition_shards(todo, workers=2, shard_size=3)
        assert [len(s) for s in shards] == [3, 3, 3, 1]
        assert [pair for shard in shards for pair in shard] == todo

    def test_default_size_targets_four_shards_per_worker(self):
        todo = [(i, i) for i in range(32)]
        shards = partition_shards(todo, workers=4, shard_size=0)
        assert len(shards) == 16
        assert all(len(s) == 2 for s in shards)

    def test_small_grids_still_shard(self):
        todo = [(0, "a"), (1, "b")]
        assert partition_shards(todo, workers=8, shard_size=0) == [
            [(0, "a")],
            [(1, "b")],
        ]


# ----------------------------------------------------------------------
# the coordinator state machine, no processes
# ----------------------------------------------------------------------
def _sim_coordinator(n, shard_size=2, max_shard_retries=100, **kw):
    clock = [0.0]
    coordinator = FleetCoordinator(
        square,
        [(i, i) for i in range(n)],
        FleetConfig(
            workers=2,
            shard_size=shard_size,
            max_shard_retries=max_shard_retries,
        ),
        fingerprint="fp",
        clock=lambda: clock[0],
        **kw,
    )
    return coordinator, clock


_SIM_NAMES = iter(range(1_000_000))


def _sim_worker(coordinator):
    handle = _WorkerHandle(
        name=f"sim{next(_SIM_NAMES)}", process=None, conn=None, started_s=0.0
    )
    coordinator._workers[handle.name] = handle
    return handle


class TestCoordinatorSimulated:
    def test_first_result_wins_and_duplicates_are_counted(self):
        coordinator, _ = _sim_coordinator(4, shard_size=4)
        handle = _sim_worker(coordinator)
        coordinator._assign_ready_shards()
        assert handle.shard_id == 0
        first = _TaskOutcome(0, 0, [], None)
        replay = _TaskOutcome(0, -999, [], None)
        assert coordinator.note_result(handle, 0, "fp", 0, first)
        assert not coordinator.note_result(handle, 0, "fp", 0, replay)
        assert coordinator.outcomes[0].result == 0
        assert coordinator.report.duplicates_discarded == 1

    def test_verdict_counts_fold_once_per_delivery(self):
        """Results carrying ``safety_verdicts`` (chaos runs) fold onto
        the report exactly once — duplicates never double-count."""
        from repro.analysis.protocols import ChaosRun

        coordinator, _ = _sim_coordinator(2, shard_size=2)
        handle = _sim_worker(coordinator)
        coordinator._assign_ready_shards()
        run = ChaosRun(
            commits=1, gave_up=0, throughput=1.0, abort_rate=0.0,
            availability=1.0, discarded_operations=0,
            aborts_by_reason={}, faults_injected={}, assembled=True,
            comp_c=True, safety_verdicts={"certified_safe": 1},
        )
        outcome = _TaskOutcome(0, run, [], None)
        assert coordinator.note_result(handle, 0, "fp", 0, outcome)
        assert coordinator.report.verdicts == {"certified_safe": 1}
        replay = _TaskOutcome(0, run, [], None)
        assert not coordinator.note_result(handle, 0, "fp", 0, replay)
        assert coordinator.report.verdicts == {"certified_safe": 1}
        assert "verdicts: certified_safe:1" in coordinator.report.render()
        # plain results without the attribute leave the fold untouched
        assert coordinator.note_result(
            handle, 0, "fp", 1, _TaskOutcome(1, 1, [], None)
        )
        assert coordinator.report.verdicts == {"certified_safe": 1}

    def test_stale_fingerprint_is_discarded_not_fatal(self):
        coordinator, _ = _sim_coordinator(2, shard_size=2)
        handle = _sim_worker(coordinator)
        coordinator._assign_ready_shards()
        stale = _TaskOutcome(0, 0, [], None)
        assert not coordinator.note_result(handle, 0, "OLD", 0, stale)
        assert 0 not in coordinator.outcomes

    def test_garbage_messages_raise_protocol_errors(self):
        coordinator, _ = _sim_coordinator(2, shard_size=2)
        handle = _sim_worker(coordinator)
        with pytest.raises(FleetProtocolError):
            coordinator._handle_message(handle, "not a tuple")
        with pytest.raises(FleetProtocolError):
            coordinator._handle_message(handle, ("no-such-tag", 1))
        with pytest.raises(FleetProtocolError):
            coordinator._handle_message(
                handle,
                (MSG_RESULT, 99, "fp", 0, _TaskOutcome(0, 0, [], None)),
            )

    def test_premature_done_is_ignored_until_results_arrive(self):
        coordinator, _ = _sim_coordinator(2, shard_size=2)
        handle = _sim_worker(coordinator)
        coordinator._assign_ready_shards()
        coordinator._handle_message(handle, (MSG_DONE, 0, "fp"))
        assert coordinator._shards[0].status == "leased"

    def test_shard_failing_on_distinct_workers_is_quarantined(self):
        coordinator, clock = _sim_coordinator(
            2, shard_size=2, max_shard_retries=2
        )
        for _ in range(2):
            clock[0] += 1000.0
            handle = _sim_worker(coordinator)
            coordinator._assign_ready_shards()
            assert handle.shard_id == 0
            coordinator._fail_worker(handle, REASON_CRASH, "sim kill")
        shard = coordinator._shards[0]
        assert shard.status == "quarantined"
        assert coordinator.report.shards_quarantined == 1
        assert coordinator.report.shards_reassigned == 1
        outcome = coordinator.outcomes[0]
        assert outcome.error is not None
        assert outcome.reason == REASON_CRASH
        assert "2 distinct worker(s)" in outcome.error

    def test_lease_expiry_is_attributed_hung(self):
        coordinator, clock = _sim_coordinator(2, shard_size=2)
        handle = _sim_worker(coordinator)
        coordinator._assign_ready_shards()
        clock[0] = handle.deadline + 1.0
        coordinator._expire_leases()
        assert handle.name not in coordinator._workers
        assert coordinator.report.leases_expired == 1
        timeline = coordinator.report.timeline
        assert timeline[-1].fate == REASON_HUNG

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_kill_and_duplicate_schedules_never_change_the_fold(
        self, data
    ):
        """The dedup property: whatever adversarial schedule of worker
        kills, duplicate deliveries, and backoff delays plays out, the
        delivered outcome for every task is the first (correct) one —
        so the batch fold, metrics, and telemetry cannot change."""
        n = data.draw(st.integers(2, 12), label="tasks")
        shard_size = data.draw(st.integers(1, 4), label="shard_size")
        kill_budget = data.draw(st.integers(0, 5), label="kills")
        coordinator, clock = _sim_coordinator(n, shard_size=shard_size)
        rounds = 0
        while not coordinator._finished():
            rounds += 1
            assert rounds < 1000, "simulation failed to converge"
            clock[0] += 1000.0  # leap past any reassignment backoff
            handle = _sim_worker(coordinator)
            coordinator._assign_ready_shards()
            if handle.shard_id is None:
                coordinator._workers.pop(handle.name, None)
                continue
            shard = coordinator._shards[handle.shard_id]
            remaining = shard.remaining(coordinator._delivered)
            kill_at = len(remaining)
            if kill_budget > 0 and data.draw(
                st.booleans(), label="kill this shard"
            ):
                kill_budget -= 1
                kill_at = data.draw(
                    st.integers(0, len(remaining)), label="kill offset"
                )
            delivered_all = True
            for position, (index, task) in enumerate(remaining):
                if position == kill_at:
                    coordinator._fail_worker(
                        handle, REASON_CRASH, "schedule kill"
                    )
                    delivered_all = False
                    break
                outcome = _TaskOutcome(index, task * task, [], None)
                coordinator._handle_message(
                    handle,
                    (MSG_RESULT, shard.shard_id, "fp", index, outcome),
                )
                if data.draw(st.booleans(), label="duplicate"):
                    wrong = _TaskOutcome(index, -999, [], None)
                    coordinator._handle_message(
                        handle,
                        (MSG_RESULT, shard.shard_id, "fp", index, wrong),
                    )
            if delivered_all:
                coordinator._handle_message(
                    handle, (MSG_DONE, shard.shard_id, "fp")
                )
                coordinator._workers.pop(handle.name, None)
        assert {
            index: outcome.result
            for index, outcome in coordinator.outcomes.items()
        } == {i: i * i for i in range(n)}
        assert coordinator.report.shards_completed == len(
            coordinator._shards
        )


# ----------------------------------------------------------------------
# real worker processes
# ----------------------------------------------------------------------
def _run_grid(worker, tasks, fleet=None, **config):
    telemetry = Telemetry()
    supervisor = BatchSupervisor(fail_fast=False)
    with using(telemetry):
        if fleet:
            with fleet_scope(FleetConfig(**config)):
                report = run_batch_report(
                    tasks, worker, supervisor=supervisor
                )
        else:
            report = run_batch_report(tasks, worker, supervisor=supervisor)
    canonical = canonical_dumps(
        [to_record(event) for event in telemetry.collect()]
    )
    return report, canonical


class TestFleetProcesses:
    def test_sigkilled_worker_output_is_byte_identical(self, tmp_path):
        """The headline contract: SIGKILL a worker mid-shard and the
        results and canonical telemetry match --workers 1 exactly."""
        sentinel = tmp_path / "killed-once"
        tasks = [(str(sentinel), value) for value in range(10)]

        # serial reference, sentinel pre-created so nothing dies
        sentinel.write_text("")
        reference, ref_canonical = _run_grid(sentinel_square, tasks)
        sentinel.unlink()

        report, fleet_canonical = _run_grid(
            sentinel_square,
            tasks,
            fleet=True,
            workers=2,
            heartbeat_interval=0.05,
            lease_timeout=2.0,
        )
        assert sentinel.exists(), "the kill never fired"
        assert report.results == reference.results
        assert fleet_canonical == ref_canonical
        assert report.fleet is not None
        assert report.fleet.workers_replaced >= 1
        assert any(
            entry.fate == REASON_CRASH for entry in report.fleet.timeline
        )

    def test_hung_worker_lease_expires_and_shard_reassigns(self, tmp_path):
        sentinel = tmp_path / "stopped-once"
        tasks = [(str(sentinel), value) for value in range(8)]
        report, _ = _run_grid(
            sentinel_stopper,
            tasks,
            fleet=True,
            workers=2,
            heartbeat_interval=0.05,
            lease_timeout=0.5,
        )
        assert report.results == [value + 100 for value in range(8)]
        assert report.fleet.leases_expired >= 1
        assert report.fleet.shards_reassigned >= 1
        assert any(
            entry.fate == REASON_HUNG for entry in report.fleet.timeline
        )

    def test_poisoned_shard_is_quarantined_never_dropped(self):
        with fleet_scope(
            FleetConfig(
                workers=2,
                heartbeat_interval=0.05,
                lease_timeout=2.0,
                max_shard_retries=2,
                shard_size=1,
            )
        ):
            report = run_batch_report(
                list(range(6)),
                poison_two,
                supervisor=BatchSupervisor(fail_fast=False),
            )
        assert report.results == [0, 1, None, 3, 4, 5]
        assert report.quarantine.indices() == [2]
        entry = report.quarantine.entries[0]
        assert entry.reason == REASON_CRASH
        assert "distinct worker(s)" in entry.error
        assert report.fleet.shards_quarantined == 1

    def test_fail_fast_aborts_on_quarantined_shard(self):
        with fleet_scope(
            FleetConfig(
                workers=2,
                heartbeat_interval=0.05,
                lease_timeout=2.0,
                max_shard_retries=1,
                shard_size=1,
            )
        ):
            with pytest.raises(BatchTaskError):
                run_batch_report(
                    list(range(6)),
                    poison_two,
                    supervisor=BatchSupervisor(fail_fast=True),
                )

    def test_single_task_grids_skip_the_fleet(self):
        with fleet_scope(FleetConfig(workers=4)):
            report = run_batch_report([7], square)
        assert report.results == [49]
        assert report.fleet is None

    def test_ambient_scope_restores_on_exit(self):
        assert ambient_fleet() is None
        with fleet_scope(FleetConfig(workers=2)) as config:
            assert ambient_fleet() is config
        assert ambient_fleet() is None


# ----------------------------------------------------------------------
# the CLI: kill the COORDINATOR, resume, same bytes
# ----------------------------------------------------------------------
CHAOS_ARGS = [
    "chaos",
    "--runs",
    "4",
    "--transactions",
    "8",
    "--clients",
    "4",
    "--seed",
    "0",
]
FLEET_ARGS = ["--fleet", "2", "--heartbeat-interval", "0.2"]


def _run_cli(args, cwd, timeout=240):
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


class TestFleetCLI:
    def test_sigkilled_coordinator_resumes_byte_identical(self, tmp_path):
        """Kill the whole fleet COORDINATOR mid-grid; `composite-tx
        resume` re-drives the remaining shards and the canonical
        telemetry matches a serial --workers 1 run byte for byte."""
        from repro.obs import canonical_dumps, read_records

        reference = _run_cli(
            CHAOS_ARGS + ["--telemetry-out", str(tmp_path / "ref.jsonl")],
            cwd=str(tmp_path),
        )
        assert reference.returncode == 0, reference.stderr

        ck = tmp_path / "ck.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", *CHAOS_ARGS, *FLEET_ARGS]
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

        # its pool/fleet workers notice the dead parent and exit
        assert_no_process_names(str(tmp_path))

        resumed = _run_cli(["resume", str(ck)], cwd=str(tmp_path))
        assert resumed.returncode == 0, resumed.stderr
        if not killed_mid_run:
            pytest.skip("grid finished before the kill landed")

        # the metrics table matches the serial reference exactly; the
        # fleet section (pids, timings) is environment, printed after
        assert resumed.stdout.startswith(
            reference.stdout.rstrip("\n").split("\nfleet:")[0].rstrip("\n")
        )
        ours = canonical_dumps(read_records(str(tmp_path / "out.jsonl")))
        theirs = canonical_dumps(read_records(str(tmp_path / "ref.jsonl")))
        assert ours == theirs

    def test_fleet_run_matches_serial_run(self, tmp_path):
        serial = _run_cli(
            [
                "chaos",
                "--runs",
                "2",
                "--transactions",
                "3",
                "--seed",
                "0",
                "--telemetry-out",
                str(tmp_path / "serial.jsonl"),
            ],
            cwd=str(tmp_path),
        )
        assert serial.returncode == 0, serial.stderr
        fleet = _run_cli(
            [
                "chaos",
                "--runs",
                "2",
                "--transactions",
                "3",
                "--seed",
                "0",
                *FLEET_ARGS,
                "--telemetry-out",
                str(tmp_path / "fleet.jsonl"),
            ],
            cwd=str(tmp_path),
        )
        assert fleet.returncode == 0, fleet.stderr
        assert fleet.stdout.startswith(serial.stdout.rstrip("\n"))
        assert "fleet: 2 worker slot(s)" in fleet.stdout

        from repro.obs import canonical_dumps, read_records

        ours = canonical_dumps(read_records(str(tmp_path / "fleet.jsonl")))
        theirs = canonical_dumps(
            read_records(str(tmp_path / "serial.jsonl"))
        )
        assert ours == theirs
