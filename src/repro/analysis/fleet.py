"""Fault-tolerant sharded checking fleet: lease-based coordination.

:mod:`repro.analysis.batch` drives one grid through one process pool;
this module promotes that to a *fleet*: long-lived worker processes
driven by a :class:`FleetCoordinator` over stdlib
:mod:`multiprocessing` pipes, designed so that **any worker can be
SIGKILLed, hang, or return garbage at any point** and the grid still
terminates with verdicts, metrics, and telemetry byte-identical to an
undisturbed serial run.

The robustness mechanisms, one per failure class:

* **lease-based shard assignment** — the grid is partitioned into
  shards (contiguous submission-index ranges); a shard is *leased* to
  a worker with a deadline.  Workers heartbeat while computing; a
  missed heartbeat past the deadline expires the lease, the worker is
  presumed hung and killed, and the shard re-enters the pending queue
  after a seeded backoff delay (the :mod:`repro.simulator.retry`
  policy vocabulary, jitter drawn per shard from the
  :meth:`~repro.analysis.supervise.BatchSupervisor.task_rng`
  determinism contract — a function of ``(retry_seed, first task
  index)`` only, never wall clock or worker identity).
* **worker lifecycle supervision** — a worker whose pipe reaches EOF
  (SIGKILL, OOM, segfault) is attributed
  :data:`~repro.analysis.supervise.REASON_CRASH`; one that stops
  heartbeating, :data:`~repro.analysis.supervise.REASON_HUNG`; one
  that ships an unintelligible message, a protocol violation (treated
  as a crash).  Failed workers are replaced to keep the fleet at
  strength while work remains.  A shard that fails on
  ``max_shard_retries`` *distinct* workers is quarantined — its
  undelivered tasks become quarantine entries in the batch's
  :class:`~repro.analysis.supervise.QuarantineReport` — instead of
  aborting the grid (``fail_fast`` restores the abort).
* **idempotent at-least-once execution** — a killed worker's shard is
  re-run elsewhere, so the same task may complete twice.  Results are
  deduplicated by shard id + batch fingerprint + task index (first
  delivery wins); reassignment can therefore never double-count
  metrics or double-record telemetry.

Determinism argument
--------------------
The coordinator only ever *collects* per-task outcomes into a dict
keyed by submission index; :func:`repro.analysis.batch.run_batch_report`
folds that dict in submission order exactly as the serial loop would.
Scheduling (which worker ran which shard, how often leases expired)
affects only *whether* a given index's outcome came from the first or
a later execution — and a task is a deterministic function of its
task tuple, so every execution returns the same value and the same
canonical telemetry events.  Fleet-level telemetry (lease expiries,
worker timelines) goes to the dedicated ``fleet`` stream, which
:func:`repro.obs.sink.canonical_dumps` projects away — so the
canonical stream of a ``--fleet 4`` run with a SIGKILLed worker is
byte-identical to ``--workers 1``.

Checkpoint integration: completed tasks are recorded into the ambient
:class:`~repro.analysis.checkpoint.CheckpointSection` as they arrive,
so a SIGKILLed *coordinator* resumes mid-fleet via ``composite-tx
resume`` with the usual byte-identity guarantee.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from multiprocessing import Pipe, Process
from multiprocessing.connection import Connection, wait as _connection_wait
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.checkpoint import CheckpointSection
from repro.analysis.supervise import (
    REASON_CRASH,
    REASON_HUNG,
    BatchSupervisor,
    exit_with_parent,
)
from repro.exceptions import CompositeTxError
from repro.obs import Telemetry

#: the telemetry stream fleet coordination events are recorded under;
#: listed in :data:`repro.obs.sink.ENV_STREAMS`, so canonical dumps
#: project the whole stream away (scheduling is environment, not work)
FLEET_STREAM = "fleet"

# message tags, worker -> coordinator
MSG_HEARTBEAT = "heartbeat"
MSG_RESULT = "result"
MSG_DONE = "done"
# message tags, coordinator -> worker
MSG_SHARD = "shard"
MSG_SHUTDOWN = "shutdown"

#: shard lifecycle states
SHARD_PENDING = "pending"
SHARD_LEASED = "leased"
SHARD_DONE = "done"
SHARD_QUARANTINED = "quarantined"


class FleetProtocolError(CompositeTxError):
    """A worker shipped a message the coordinator cannot interpret.

    Never escapes the coordinator: the offending worker is killed and
    replaced (crash attribution), exactly as if it had segfaulted —
    a worker that returns garbage must not be able to wedge the fleet.
    """


@dataclass
class FleetConfig:
    """How a fleet drives one batch.

    ``workers`` is the fleet size; ``heartbeat_interval`` how often a
    busy worker proves liveness; ``lease_timeout`` how long a shard
    lease survives without a heartbeat before the worker is presumed
    hung (defaults to ``max(6 * heartbeat_interval, 3.0)``);
    ``max_shard_retries`` how many *distinct* workers may fail a shard
    before it is quarantined; ``shard_size`` tasks per shard (0 =
    ``ceil(tasks / (workers * 4))``, the batch layer's chunking).
    """

    workers: int = 2
    heartbeat_interval: float = 0.5
    lease_timeout: Optional[float] = None
    max_shard_retries: int = 3
    shard_size: int = 0

    def effective_lease_timeout(self) -> float:
        if self.lease_timeout is not None and self.lease_timeout > 0:
            return self.lease_timeout
        return max(6.0 * self.heartbeat_interval, 3.0)


@dataclass
class WorkerTimeline:
    """One worker incarnation's liveness record (for the profile's
    per-worker timeline table)."""

    name: str
    pid: Optional[int]
    started_s: float
    ended_s: Optional[float]
    fate: str  # "shutdown" | REASON_CRASH | REASON_HUNG
    shards_completed: int


@dataclass
class FleetReport:
    """What one fleet run did — shards completed/reassigned/
    quarantined plus the per-worker liveness timeline.  The same data
    is emitted as ``fleet.*`` telemetry, which ``composite-tx
    profile`` renders back into these tables."""

    workers: int
    shards_total: int
    shards_completed: int = 0
    shards_reassigned: int = 0
    shards_quarantined: int = 0
    leases_expired: int = 0
    workers_replaced: int = 0
    duplicates_discarded: int = 0
    #: static safety verdicts folded from per-shard results
    #: (``verdict -> runs``; empty when the task type carries none)
    verdicts: Dict[str, int] = field(default_factory=dict)
    timeline: List[WorkerTimeline] = field(default_factory=list)

    def render(self) -> str:
        """Human-readable summary (the CLI prints this after a grid)."""
        lines = [
            f"fleet: {self.workers} worker slot(s) over "
            f"{self.shards_total} shard(s): "
            f"{self.shards_completed} completed, "
            f"{self.shards_reassigned} reassignment(s), "
            f"{self.shards_quarantined} quarantined; "
            f"{self.leases_expired} lease(s) expired, "
            f"{self.workers_replaced} worker(s) replaced, "
            f"{self.duplicates_discarded} duplicate result(s) discarded"
        ]
        if self.verdicts:
            lines.append(
                "  verdicts: "
                + " ".join(
                    f"{verdict}:{count}"
                    for verdict, count in sorted(self.verdicts.items())
                )
            )
        for entry in self.timeline:
            ended = (
                f"{entry.ended_s:.2f}s" if entry.ended_s is not None else "?"
            )
            lines.append(
                f"  {entry.name}: pid {entry.pid}, "
                f"{entry.started_s:.2f}s-{ended}, "
                f"{entry.shards_completed} shard(s), {entry.fate}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------
def _fleet_worker_main(
    conn: Connection,
    worker: Callable[[Any], Any],
    capture: bool,
    supervisor: Optional[BatchSupervisor],
    heartbeat_interval: float,
    parent_pid: int,
) -> None:
    """Worker loop: receive shard assignments, run their tasks under
    the usual per-task supervision, stream results back, heartbeat
    from a daemon thread while computing, and exit soon after the
    coordinator process ``parent_pid`` dies.

    The heartbeat thread only proves the *interpreter* is alive and
    scheduling threads; a worker stuck in a non-GIL-releasing C call
    (or SIGSTOPped) stops heartbeating and is correctly declared hung
    by the coordinator.
    """
    import threading

    from repro.analysis.batch import _run_guarded

    exit_with_parent(parent_pid)
    send_lock = threading.Lock()
    active_shard: List[Optional[int]] = [None]
    stop = threading.Event()

    def _send(message: Tuple[Any, ...]) -> None:
        with send_lock:
            conn.send(message)

    def _beat() -> None:
        while not stop.wait(heartbeat_interval):
            shard_id = active_shard[0]
            if shard_id is None:
                continue
            try:
                _send((MSG_HEARTBEAT, shard_id))
            except OSError:
                return

    heartbeat = threading.Thread(
        target=_beat, name="fleet-heartbeat", daemon=True
    )
    heartbeat.start()
    try:
        while True:
            message = conn.recv()
            if not isinstance(message, tuple) or not message:
                continue
            if message[0] == MSG_SHUTDOWN:
                break
            if message[0] != MSG_SHARD:
                continue
            _, shard_id, fingerprint, pairs = message
            active_shard[0] = shard_id
            _send((MSG_HEARTBEAT, shard_id))
            for index, task in pairs:
                outcome = _run_guarded(
                    worker, capture, supervisor, (index, task)
                )
                _send((MSG_RESULT, shard_id, fingerprint, index, outcome))
            active_shard[0] = None
            _send((MSG_DONE, shard_id, fingerprint))
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# coordinator state
# ----------------------------------------------------------------------
@dataclass
class _ShardState:
    """One shard's lifecycle record inside the coordinator."""

    shard_id: int
    pairs: List[Tuple[int, Any]]
    rng: random.Random
    status: str = SHARD_PENDING
    failed_workers: Set[str] = field(default_factory=set)
    attempts: int = 0
    ready_at: float = 0.0
    last_delay: float = 0.0

    def remaining(self, delivered: Set[int]) -> List[Tuple[int, Any]]:
        return [(i, task) for i, task in self.pairs if i not in delivered]


@dataclass
class _WorkerHandle:
    """One live worker incarnation as the coordinator sees it."""

    name: str
    process: Optional[Process]
    conn: Optional[Connection]
    started_s: float
    shard_id: Optional[int] = None
    deadline: float = 0.0
    shards_completed: int = 0

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None


def partition_shards(
    todo: Sequence[Tuple[int, Any]], workers: int, shard_size: int
) -> List[List[Tuple[int, Any]]]:
    """Split the (index, task) work list into contiguous shards.

    Contiguity in submission order keeps a shard the same unit Biswas
    & Enea's decomposition argument treats as independently checkable,
    and makes a shard's identity stable across coordinator restarts
    (same todo list -> same shards -> same per-shard RNG streams).
    """
    if shard_size <= 0:
        shard_size = max(1, -(-len(todo) // (max(1, workers) * 4)))
    return [
        list(todo[offset:offset + shard_size])
        for offset in range(0, len(todo), shard_size)
    ]


class FleetCoordinator:
    """Drives one batch's work list across a supervised worker fleet.

    The public surface is :meth:`run`; the message handlers are
    factored so tests can drive the state machine directly (simulated
    delivery schedules, duplicate results, worker kills) without
    spawning processes — handles with ``process=None, conn=None`` are
    legal and skip every OS interaction.
    """

    def __init__(
        self,
        worker: Callable[[Any], Any],
        todo: Sequence[Tuple[int, Any]],
        config: FleetConfig,
        *,
        capture: bool = False,
        supervisor: Optional[BatchSupervisor] = None,
        section: Optional[CheckpointSection] = None,
        fingerprint: str = "",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._worker = worker
        self._config = config
        self._capture = capture
        self._supervisor = supervisor
        self._section = section
        self._fingerprint = fingerprint
        self._clock = clock
        self._start = clock()
        self._lease_timeout = config.effective_lease_timeout()
        rng_source = (
            supervisor if supervisor is not None else BatchSupervisor()
        )
        self._policy = rng_source.resolve_policy()
        self._shards = [
            _ShardState(
                shard_id=shard_id,
                pairs=pairs,
                rng=rng_source.task_rng(pairs[0][0]),
            )
            for shard_id, pairs in enumerate(
                partition_shards(todo, config.workers, config.shard_size)
            )
        ]
        self._expected: Set[int] = {i for i, _ in todo}
        self._fail_fast = (
            supervisor.fail_fast if supervisor is not None else False
        )
        self._workers: Dict[str, _WorkerHandle] = {}
        self._incarnations = 0
        self._delivered: Set[int] = set()
        self._aborted = False
        self.outcomes: Dict[int, Any] = {}
        self.telemetry = Telemetry(stream=FLEET_STREAM, enabled=capture)
        self.report = FleetReport(
            workers=config.workers, shards_total=len(self._shards)
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self._clock()

    def _elapsed(self) -> float:
        return self._now() - self._start

    def _finished(self) -> bool:
        return all(
            shard.status in (SHARD_DONE, SHARD_QUARANTINED)
            for shard in self._shards
        )

    def _unfinished_count(self) -> int:
        return sum(
            1
            for shard in self._shards
            if shard.status in (SHARD_PENDING, SHARD_LEASED)
        )

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> _WorkerHandle:
        name = f"w{self._incarnations}"
        self._incarnations += 1
        parent_conn, child_conn = Pipe()
        process = Process(
            target=_fleet_worker_main,
            args=(
                child_conn,
                self._worker,
                self._capture,
                self._supervisor,
                self._config.heartbeat_interval,
                os.getpid(),
            ),
            name=f"fleet-{name}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _WorkerHandle(
            name=name,
            process=process,
            conn=parent_conn,
            started_s=self._elapsed(),
        )
        self._workers[name] = handle
        return handle

    def _replace_workers(self) -> None:
        """Keep the fleet at strength while unfinished shards remain
        (never more workers than unfinished shards)."""
        target = min(self._config.workers, self._unfinished_count())
        while len(self._workers) < target:
            self._spawn_worker()

    def _retire(self, handle: _WorkerHandle, fate: str) -> None:
        """Remove a worker from the live set, kill its process, and
        record its timeline entry."""
        self._workers.pop(handle.name, None)
        self.report.timeline.append(
            WorkerTimeline(
                name=handle.name,
                pid=handle.pid,
                started_s=round(handle.started_s, 3),
                ended_s=round(self._elapsed(), 3),
                fate=fate,
                shards_completed=handle.shards_completed,
            )
        )
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
        process = handle.process
        if process is not None:
            try:
                process.terminate()
                process.join(timeout=0.2)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)
            except (OSError, ValueError):
                pass

    def _fail_worker(
        self, handle: _WorkerHandle, reason: str, error: str
    ) -> None:
        """Crash/hang attribution: retire the worker, release (or
        quarantine) its leased shard, count the failure."""
        if handle.name not in self._workers:
            return  # already retired (double report)
        self._retire(handle, reason)
        self.report.workers_replaced += 1
        self.telemetry.count("fleet.worker_replaced", reason=reason)
        if reason == REASON_HUNG:
            self.report.leases_expired += 1
            self.telemetry.count("fleet.lease_expired")
        shard_id = handle.shard_id
        if shard_id is None:
            return
        shard = self._shards[shard_id]
        if shard.status != SHARD_LEASED:
            return
        shard.failed_workers.add(handle.name)
        if len(shard.failed_workers) >= self._config.max_shard_retries:
            self._quarantine_shard(shard, reason, error)
            return
        shard.status = SHARD_PENDING
        shard.last_delay = self._policy.delay(
            max(1, shard.attempts), shard.rng, shard.last_delay
        )
        shard.ready_at = self._now() + shard.last_delay
        self.report.shards_reassigned += 1
        self.telemetry.count("fleet.shard", status="reassigned")

    # ------------------------------------------------------------------
    # shard lifecycle
    # ------------------------------------------------------------------
    def _lease(self, handle: _WorkerHandle, shard: _ShardState) -> None:
        """Assign a shard (its still-undelivered tasks) to a worker."""
        shard.status = SHARD_LEASED
        shard.attempts += 1
        handle.shard_id = shard.shard_id
        handle.deadline = self._now() + self._lease_timeout
        if handle.conn is None:
            return
        try:
            handle.conn.send(
                (
                    MSG_SHARD,
                    shard.shard_id,
                    self._fingerprint,
                    shard.remaining(self._delivered),
                )
            )
        except (OSError, ValueError) as err:
            self._fail_worker(
                handle, REASON_CRASH, f"assignment failed: {err!r}"
            )

    def _assign_ready_shards(self) -> None:
        now = self._now()
        ready = [
            shard
            for shard in self._shards
            if shard.status == SHARD_PENDING and shard.ready_at <= now
        ]
        ready.sort(key=lambda shard: shard.shard_id)
        idle = sorted(
            (
                handle
                for handle in self._workers.values()
                if handle.shard_id is None
            ),
            key=lambda handle: handle.name,
        )
        for handle, shard in zip(idle, ready):
            self._lease(handle, shard)

    def _quarantine_shard(
        self, shard: _ShardState, reason: str, error: str
    ) -> None:
        """Give up on a shard: every still-undelivered task becomes an
        error outcome (the batch fold turns those into
        :class:`~repro.analysis.supervise.QuarantinedTask` entries)."""
        from repro.analysis.batch import _TaskOutcome

        shard.status = SHARD_QUARANTINED
        distinct = len(shard.failed_workers)
        for index, _task in shard.remaining(self._delivered):
            self._delivered.add(index)
            self.outcomes[index] = _TaskOutcome(
                index,
                None,
                [],
                f"fleet shard {shard.shard_id} abandoned after failing "
                f"on {distinct} distinct worker(s): {error}",
                reason=reason,
                attempts=shard.attempts,
            )
        self.report.shards_quarantined += 1
        self.telemetry.count("fleet.shard", status="quarantined")
        if self._fail_fast:
            self._aborted = True

    def _complete_shard(
        self, handle: _WorkerHandle, shard: _ShardState
    ) -> None:
        shard.status = SHARD_DONE
        handle.shards_completed += 1
        if handle.shard_id == shard.shard_id:
            handle.shard_id = None
        self.report.shards_completed += 1
        self.telemetry.count("fleet.shard", status="completed")

    # ------------------------------------------------------------------
    # message handling (driven by run(), and directly by tests)
    # ------------------------------------------------------------------
    def note_result(
        self,
        handle: _WorkerHandle,
        shard_id: int,
        fingerprint: str,
        index: int,
        outcome: Any,
    ) -> bool:
        """Record one task outcome; ``False`` when it was deduplicated
        (lease-race duplicate or stale fingerprint).  This is the
        at-least-once -> exactly-once boundary: the first delivery for
        a (shard, fingerprint, index) wins, everything later is
        discarded, so reassignment can never double-count."""
        if fingerprint != self._fingerprint:
            self.report.duplicates_discarded += 1
            self.telemetry.count("fleet.duplicate_result", kind="stale")
            return False
        if not isinstance(shard_id, int) or not (
            0 <= shard_id < len(self._shards)
        ):
            raise FleetProtocolError(
                f"result names unknown shard {shard_id!r}"
            )
        if index not in self._expected:
            raise FleetProtocolError(f"result names unknown task {index!r}")
        if getattr(outcome, "index", None) != index:
            raise FleetProtocolError(
                f"malformed outcome for task {index!r}: {outcome!r}"
            )
        handle.deadline = self._now() + self._lease_timeout
        if index in self._delivered:
            self.report.duplicates_discarded += 1
            self.telemetry.count("fleet.duplicate_result", kind="replay")
            return False
        self._delivered.add(index)
        self.outcomes[index] = outcome
        if outcome.error is None:
            shard_verdicts = getattr(
                outcome.result, "safety_verdicts", None
            )
            if shard_verdicts:
                for verdict, count in shard_verdicts.items():
                    self.report.verdicts[verdict] = (
                        self.report.verdicts.get(verdict, 0) + int(count)
                    )
        if outcome.error is None and self._section is not None:
            self._section.record(index, outcome.result, outcome.events)
        if outcome.error is not None and self._fail_fast:
            self._aborted = True
        return True

    def _handle_message(self, handle: _WorkerHandle, message: Any) -> None:
        if not isinstance(message, tuple) or not message:
            raise FleetProtocolError(f"unintelligible message {message!r}")
        tag = message[0]
        if tag == MSG_HEARTBEAT:
            if len(message) != 2:
                raise FleetProtocolError(f"malformed heartbeat {message!r}")
            handle.deadline = self._now() + self._lease_timeout
            return
        if tag == MSG_RESULT:
            if len(message) != 5:
                raise FleetProtocolError(f"malformed result {message!r}")
            _, shard_id, fingerprint, index, outcome = message
            self.note_result(handle, shard_id, fingerprint, index, outcome)
            return
        if tag == MSG_DONE:
            if len(message) != 3:
                raise FleetProtocolError(f"malformed done {message!r}")
            _, shard_id, fingerprint = message
            if fingerprint != self._fingerprint:
                return
            if not isinstance(shard_id, int) or not (
                0 <= shard_id < len(self._shards)
            ):
                raise FleetProtocolError(
                    f"done names unknown shard {shard_id!r}"
                )
            shard = self._shards[shard_id]
            if shard.status in (SHARD_DONE, SHARD_QUARANTINED):
                # duplicate completion from a lease race
                self.report.duplicates_discarded += 1
                self.telemetry.count("fleet.duplicate_result", kind="done")
                if handle.shard_id == shard_id:
                    handle.shard_id = None
                return
            if any(
                index not in self._delivered for index, _ in shard.pairs
            ):
                # a done without all results is a lie (garbage worker);
                # ignore it — the lease will expire if nothing arrives
                return
            self._complete_shard(handle, shard)
            return
        raise FleetProtocolError(f"unknown message tag {tag!r}")

    def _drain(self, handle: _WorkerHandle) -> None:
        """Consume every buffered message from one worker, converting
        EOF into crash attribution and garbage into a protocol kill."""
        conn = handle.conn
        if conn is None:
            return
        try:
            while handle.name in self._workers and conn.poll():
                self._handle_message(handle, conn.recv())
        except (EOFError, OSError):
            self._fail_worker(
                handle,
                REASON_CRASH,
                "worker process died (connection closed)",
            )
        except Exception as err:
            # unpicklable payloads, malformed tuples, FleetProtocolError:
            # the worker is compromised — kill and replace it
            self._fail_worker(
                handle, REASON_CRASH, f"protocol violation: {err!r}"
            )

    def _expire_leases(self) -> None:
        now = self._now()
        for handle in list(self._workers.values()):
            if handle.shard_id is None:
                continue
            if now <= handle.deadline:
                continue
            self._fail_worker(
                handle,
                REASON_HUNG,
                f"lease expired: no heartbeat within "
                f"{self._lease_timeout:g}s",
            )

    # ------------------------------------------------------------------
    # the drive loop
    # ------------------------------------------------------------------
    def _wait_timeout(self) -> float:
        """Sleep until the next actionable instant: a lease deadline,
        a backoff-delayed shard becoming ready, or one heartbeat."""
        now = self._now()
        horizon = now + max(0.05, self._config.heartbeat_interval)
        for handle in self._workers.values():
            if handle.shard_id is not None:
                horizon = min(horizon, handle.deadline)
        for shard in self._shards:
            if shard.status == SHARD_PENDING and shard.ready_at > now:
                horizon = min(horizon, shard.ready_at)
        return max(0.005, horizon - now)

    def _shutdown(self) -> None:
        for handle in list(self._workers.values()):
            if handle.conn is not None:
                try:
                    handle.conn.send((MSG_SHUTDOWN,))
                except (OSError, ValueError):
                    pass
            self._retire(handle, "shutdown")

    def run(self) -> Tuple[Dict[int, Any], FleetReport]:
        """Drive the fleet until every shard is done or quarantined
        (or fail-fast aborts).  Returns the per-index outcome dict for
        the batch fold plus the :class:`FleetReport`."""
        with self.telemetry.span(
            "fleet.run",
            workers=self._config.workers,
            shards=len(self._shards),
        ) as span:
            try:
                while not self._finished() and not self._aborted:
                    self._replace_workers()
                    self._assign_ready_shards()
                    connections = {
                        handle.conn: handle
                        for handle in self._workers.values()
                        if handle.conn is not None
                    }
                    if connections:
                        for ready in _connection_wait(
                            list(connections), timeout=self._wait_timeout()
                        ):
                            handle = connections[ready]  # type: ignore[index]
                            self._drain(handle)
                    else:
                        time.sleep(min(0.01, self._wait_timeout()))
                    self._expire_leases()
            finally:
                self._shutdown()
            span.note(
                completed=self.report.shards_completed,
                reassigned=self.report.shards_reassigned,
                quarantined=self.report.shards_quarantined,
            )
        self._emit_report()
        return self.outcomes, self.report

    def _emit_report(self) -> None:
        tele = self.telemetry
        tele.meta(
            "fleet.summary",
            workers=self.report.workers,
            shards=self.report.shards_total,
            completed=self.report.shards_completed,
            reassigned=self.report.shards_reassigned,
            quarantined=self.report.shards_quarantined,
            leases_expired=self.report.leases_expired,
            workers_replaced=self.report.workers_replaced,
            duplicates_discarded=self.report.duplicates_discarded,
        )
        for entry in self.report.timeline:
            tele.meta(
                "fleet.worker",
                worker=entry.name,
                pid=entry.pid,
                started_s=entry.started_s,
                ended_s=entry.ended_s,
                fate=entry.fate,
                shards=entry.shards_completed,
            )


def run_fleet(
    worker: Callable[[Any], Any],
    todo: Sequence[Tuple[int, Any]],
    config: FleetConfig,
    *,
    capture: bool = False,
    supervisor: Optional[BatchSupervisor] = None,
    section: Optional[CheckpointSection] = None,
    fingerprint: str = "",
    telemetry: Optional[Telemetry] = None,
) -> Tuple[Dict[int, Any], FleetReport]:
    """Run one work list under a fleet; the batch layer's entry point.

    ``telemetry`` (the batch's sink) absorbs the coordinator's
    ``fleet`` stream so ``--telemetry-out`` files carry the fleet
    timeline for ``composite-tx profile``.
    """
    coordinator = FleetCoordinator(
        worker,
        todo,
        config,
        capture=capture,
        supervisor=supervisor,
        section=section,
        fingerprint=fingerprint,
    )
    outcomes, report = coordinator.run()
    if telemetry is not None and telemetry.enabled:
        telemetry.absorb(coordinator.telemetry.collect())
    return outcomes, report


# ----------------------------------------------------------------------
# the ambient fleet (how the CLI reaches every nested run_batch)
# ----------------------------------------------------------------------
_FLEET: ContextVar[Optional[FleetConfig]] = ContextVar(
    "repro_fleet_config", default=None
)


def ambient_fleet() -> Optional[FleetConfig]:
    """The active fleet configuration of this context, if any."""
    return _FLEET.get()


@contextmanager
def fleet_scope(config: FleetConfig) -> Iterator[FleetConfig]:
    """Make ``config`` ambient: every
    :func:`repro.analysis.batch.run_batch_report` under the ``with``
    block shards its grid across a fleet instead of a process pool —
    how ``--fleet N`` reaches grids buried inside experiment code
    without threading a parameter through every signature."""
    token = _FLEET.set(config)
    try:
        yield config
    finally:
        _FLEET.reset(token)


__all__ = [
    "FLEET_STREAM",
    "FleetConfig",
    "FleetCoordinator",
    "FleetProtocolError",
    "FleetReport",
    "WorkerTimeline",
    "ambient_fleet",
    "fleet_scope",
    "partition_shards",
    "run_fleet",
]
