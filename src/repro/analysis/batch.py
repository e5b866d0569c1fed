"""Parallel batch runner for (config x seed) grids.

Every sweep in the analysis layer — chaos grids, theorem-agreement
ensembles, hierarchy tables, ablations — is embarrassingly parallel:
independent simulator or checker runs whose results are folded into a
summary row.  :func:`run_batch` shards such a grid across a
``ProcessPoolExecutor`` with chunked dispatch.

Determinism contract
--------------------
``run_batch`` returns results **in task-submission order**, whatever
order the workers finish in.  Callers therefore merge results exactly
as the serial loop would have (same iteration order, hence the same
floating-point accumulation order), which makes ``--workers N`` output
bit-identical to ``--workers 1``.  The serial path (``workers <= 1``)
calls the very same worker functions in-process, so it *is* the old
code path, not an approximation of it.

The contract extends to telemetry: when the ambient
:func:`repro.obs.current` sink is active (or one is passed explicitly),
every task runs under its own ``taskNNNN`` stream named by submission
index, serial or sharded alike, and the collected events merge into one
canonical ``(stream, seq)`` order — so a ``--workers 4`` telemetry file
is a stable merge of the per-worker streams, identical (modulo wall
durations) to the serial file.

And it extends to recovery: because merging is a pure function of the
submission-ordered result list, a run resumed from a checkpoint (see
:mod:`repro.analysis.checkpoint`) merges restored and fresh results in
the same order an uninterrupted run would have, producing
byte-identical metrics and canonical telemetry.

Resilience
----------
:func:`run_batch_report` is the supervised entry point (see
:mod:`repro.analysis.supervise`): per-task wall-clock timeouts enforced
inside the worker, per-task retry with seeded jittered backoff,
parent-side hung-worker detection with pool replacement, and — unless
``fail_fast`` — quarantine of tasks that exhaust their attempts, so one
poisoned grid cell no longer destroys every completed result.  On
every parallel path a worker that is SIGKILLed or hangs leaves the
output unchanged: the tasks it took down re-run, and only a task that
keeps losing workers on its own is reported (see
:func:`_parallel_outcomes`).

Failure reporting: a raising worker surfaces as
:class:`repro.exceptions.BatchTaskError` carrying the failing task and
its submission index — ``ProcessPoolExecutor.map`` alone loses which
grid cell died.  The error is raised for the *earliest* failing task in
submission order, another determinism guarantee, and carries the
completed partial results (``completed``/``missing``) so callers can
salvage the rest of the grid.

Workers are module-level functions taking one picklable task tuple —
a requirement of the ``fork``/``spawn`` process pool, and the reason
the per-run halves of :mod:`repro.analysis.protocols` et al. are
top-level functions rather than closures.
"""

from __future__ import annotations

import dataclasses
import math
import traceback
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.analysis.checkpoint import (
    CheckpointSection,
    ambient_session,
    batch_fingerprint,
)
from repro.analysis.supervise import (
    REASON_CRASH,
    REASON_EXCEPTION,
    REASON_HUNG,
    REASON_TIMEOUT,
    RETRY_POLICY,
    BatchSupervisor,
    QuarantinedTask,
    QuarantineReport,
    time_limit,
    worker_pool,
)
from repro.exceptions import BatchTaskError, TaskTimeoutError
from repro.obs import Telemetry, TelemetryEvent, current, using
from repro.simulator.metrics import Metrics

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class _TaskOutcome:
    """What one guarded worker call ships back (always picklable)."""

    index: int
    result: Any
    events: List[TelemetryEvent]
    error: Optional[str]  # repr of the exception, None on success
    error_traceback: str = ""
    reason: str = REASON_EXCEPTION  # quarantine reason when error is set
    attempts: int = 1


def _attempt(
    worker: Callable[[T], R],
    capture: bool,
    timeout: Optional[float],
    index: int,
    task: T,
) -> _TaskOutcome:
    """One guarded attempt at one task (its own telemetry stream, its
    own wall-clock budget)."""
    if not capture:
        try:
            with time_limit(timeout):
                return _TaskOutcome(index, worker(task), [], None)
        except Exception as err:
            return _TaskOutcome(
                index,
                None,
                [],
                repr(err),
                traceback.format_exc(),
                reason=REASON_TIMEOUT
                if isinstance(err, TaskTimeoutError)
                else REASON_EXCEPTION,
            )
    telemetry = Telemetry(stream=f"task{index:04d}")
    try:
        with time_limit(timeout):
            with using(telemetry):
                with telemetry.span("batch.task", index=index):
                    result = worker(task)
    except Exception as err:
        return _TaskOutcome(
            index,
            None,
            telemetry.collect(),
            repr(err),
            traceback.format_exc(),
            reason=REASON_TIMEOUT
            if isinstance(err, TaskTimeoutError)
            else REASON_EXCEPTION,
        )
    return _TaskOutcome(index, result, telemetry.collect(), None)


def _run_guarded(
    worker: Callable[[T], R],
    capture: bool,
    supervisor: Optional[BatchSupervisor],
    pair: Tuple[int, T],
) -> _TaskOutcome:
    """Run one task under supervision, catching failures.

    Module-level (with :func:`functools.partial`) so the pool can
    pickle it.  Without a supervisor this is exactly one unguarded
    attempt — the historical behaviour.  With one, the attempt runs
    under the per-task wall-clock alarm and is retried up to
    ``max_attempts`` times with delays drawn from the retry policy and
    the per-task seeded jitter stream (see the seeding contract in
    :mod:`repro.analysis.supervise`).

    A *fresh* telemetry stream is recorded per attempt and only the
    final attempt's events ship, so a task that eventually succeeds
    emits exactly the events of a task that succeeded first try —
    which is what keeps retried runs canonically identical to clean
    ones.
    """
    index, task = pair
    if supervisor is None:
        return _attempt(worker, capture, None, index, task)
    rng = supervisor.task_rng(index)
    reason_counts: Dict[str, int] = {}
    last_delay = 0.0
    attempt = 0
    while True:
        attempt += 1
        outcome = _attempt(
            worker, capture, supervisor.task_timeout, index, task
        )
        outcome.attempts = attempt
        if outcome.error is None:
            return outcome
        reason = outcome.reason
        reason_counts[reason] = reason_counts.get(reason, 0) + 1
        if not RETRY_POLICY.should_retry(
            attempt,
            supervisor.max_attempts,
            reason,
            reason_counts[reason],
        ):
            return outcome
        last_delay = RETRY_POLICY.delay(attempt, rng, last_delay)
        supervisor.sleep(last_delay)


@dataclass
class BatchReport:
    """Everything one supervised batch produced.

    ``results`` is submission-ordered with ``None`` holes at
    quarantined indices; ``completed`` maps index -> result for the
    successes; ``quarantine`` describes every task the supervisor gave
    up on.
    """

    results: List[Any]
    quarantine: QuarantineReport = field(default_factory=QuarantineReport)
    completed: Dict[int, Any] = field(default_factory=dict)

    @property
    def missing(self) -> Tuple[int, ...]:
        return tuple(
            i for i, result in enumerate(self.results)
            if i not in self.completed
        )


#: worker losses (a death or a hang) charged to one task before it is
#: quarantined as a crash or a hang
MAX_WORKER_LOSSES = 3


def _abandon(pool: Any) -> None:
    """Shut ``pool`` down without waiting, killing its workers: a hung
    process would otherwise linger (and block interpreter exit) until
    its task finished on its own."""
    # shutdown() forgets the processes, so collect them first
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False)
    for process in processes:
        try:
            process.terminate()
        except OSError:
            pass  # already gone


def _parallel_outcomes(
    worker: Callable[[T], R],
    capture: bool,
    supervisor: Optional[BatchSupervisor],
    todo: Sequence[Tuple[int, T]],
    max_workers: int,
    section: Optional[CheckpointSection],
) -> Dict[int, _TaskOutcome]:
    """Submit-based parallel execution that survives lost workers.

    A worker process that *dies* (SIGKILL, OOM kill, segfault) breaks
    the whole pool and poisons every in-flight future, so which task
    killed it is unknown: the earliest broken task is charged one loss
    and everything else is requeued uncharged.  When no future
    completes within the supervisor's hang deadline, every running
    (uncancellable) task is charged one loss as hung.  Either way the
    pool is abandoned and a fresh one takes over.  A charged task runs
    alone in a one-worker pool, so only a task that loses a worker by
    itself is charged again; after :data:`MAX_WORKER_LOSSES` it is
    recorded as a ``crash`` or ``hung`` failure.  Tasks are
    deterministic, so a re-run returns what the lost run would have.
    """
    hang = supervisor.effective_hang_timeout() if supervisor else None
    guarded = partial(_run_guarded, worker, capture, supervisor)
    outcomes: Dict[int, _TaskOutcome] = {}
    losses: Dict[int, int] = {}
    waiting = list(todo)
    while waiting:
        charged = [pair for pair in waiting if pair[0] in losses]
        if charged:
            batch = charged[:1]
            waiting.remove(batch[0])
        else:
            batch, waiting = waiting, []
        pool = worker_pool(min(max_workers, len(batch)))
        pending: Dict[Any, Tuple[int, T]] = {}
        lost: List[Tuple[int, T]] = []
        reason = error = ""
        try:
            try:
                for pair in batch:
                    pending[pool.submit(guarded, pair)] = pair
            except BrokenProcessPool:
                pass  # a worker died already: the submitted futures say so
            while pending and not reason:
                done, _ = wait(
                    set(pending), timeout=hang, return_when=FIRST_COMPLETED
                )
                if not done:
                    # stalled: the running tasks are beyond the reach of
                    # the in-worker alarm; queued ones simply move on
                    reason = REASON_HUNG
                    error = (
                        f"worker hung: no result within {hang:g}s "
                        "(task abandoned, worker replaced)"
                    )
                    lost = [
                        pair
                        for future, pair in pending.items()
                        if not future.cancel()
                    ]
                    continue
                broken: List[Tuple[int, T]] = []
                for future in done:
                    index, task = pending.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool as err:
                        broken.append((index, task))
                        error = f"worker process died: {err!r}"
                        continue
                    except Exception as err:
                        # the task ran, but its outcome could not come
                        # back (an unpicklable result, for one)
                        outcome = _TaskOutcome(
                            index, None, [], repr(err), traceback.format_exc()
                        )
                    outcomes[index] = outcome
                    if section is not None and outcome.error is None:
                        section.record(index, outcome.result, outcome.events)
                if broken:
                    reason = REASON_CRASH
                    lost = [min(broken, key=lambda pair: pair[0])]
        finally:
            if reason:
                _abandon(pool)
            else:
                pool.shutdown(wait=False)
        for index, _ in lost:
            losses[index] = losses.get(index, 0) + 1
            if losses[index] == MAX_WORKER_LOSSES:
                outcomes[index] = _TaskOutcome(
                    index,
                    None,
                    [],
                    error,
                    reason=reason,
                    attempts=MAX_WORKER_LOSSES,
                )
        waiting += [pair for pair in batch if pair[0] not in outcomes]
        waiting.sort(key=lambda pair: pair[0])
    return outcomes


def run_batch_report(
    tasks: Iterable[T],
    worker: Callable[[T], R],
    *,
    workers: int = 1,
    telemetry: Optional[Telemetry] = None,
    supervisor: Optional[BatchSupervisor] = None,
) -> BatchReport:
    """Run ``worker`` over ``tasks`` under supervision; never raises
    for task failures unless fail-fast semantics apply.

    ``workers <= 1`` runs serially in-process; otherwise tasks are
    dispatched to a process pool.  Without a ``supervisor`` the
    parallel path uses chunked ``map`` (the historical fast path) and
    the first failing task aborts the batch.  With one, tasks are
    individually supervised (timeout, retry, hang detection) and
    failures are quarantined unless ``supervisor.fail_fast``.  Either
    way a worker that dies or hangs does not change the output: its
    tasks re-run under the worker-loss rule of
    :func:`_parallel_outcomes`.

    When an ambient :func:`repro.analysis.checkpoint.checkpointing`
    session is active, this call claims its next checkpoint section:
    completed tasks are recorded (results + telemetry events) as they
    finish, and previously completed or quarantined tasks are restored
    instead of re-run — quarantined tasks are *not* retried on resume;
    rerun without resuming to retry them.

    ``telemetry`` defaults to the ambient sink; when active, each task
    records into its own stream and the events are absorbed here in
    submission order.
    """
    tele = telemetry if telemetry is not None else current()
    capture = tele.enabled
    task_list = list(tasks)
    session = ambient_session()
    section: Optional[CheckpointSection] = None
    if session is not None:
        section = session.section(
            batch_fingerprint(worker, task_list), len(task_list)
        )
    restored: Dict[int, Tuple[Any, List[TelemetryEvent]]] = (
        dict(section.completed) if section is not None else {}
    )
    restored_quarantine: List[QuarantinedTask] = (
        list(section.quarantined) if section is not None else []
    )
    skip = set(restored) | {q.index for q in restored_quarantine}
    with tele.span(
        "batch.run", tasks=len(task_list), workers=workers
    ) as span:
        todo = [
            (i, task) for i, task in enumerate(task_list) if i not in skip
        ]
        outcomes: Dict[int, _TaskOutcome] = {}
        if workers <= 1 or len(todo) <= 1:
            for i, task in todo:
                outcome = _run_guarded(worker, capture, supervisor, (i, task))
                outcomes[i] = outcome
                if section is not None and outcome.error is None:
                    section.record(i, outcome.result, outcome.events)
        elif supervisor is None and section is None:
            # the historical chunked-map fast path, byte for byte
            chunksize = max(1, math.ceil(len(todo) / (workers * 4)))
            span.note(chunksize=chunksize)
            try:
                with worker_pool(min(workers, len(todo))) as pool:
                    for outcome in pool.map(
                        partial(_run_guarded, worker, capture, None),
                        todo,
                        chunksize=chunksize,
                    ):
                        outcomes[outcome.index] = outcome
            except BrokenProcessPool:
                # a worker died: what it left unfinished goes through
                # the worker-loss rule instead
                outcomes.update(
                    _parallel_outcomes(
                        worker,
                        capture,
                        None,
                        [pair for pair in todo if pair[0] not in outcomes],
                        workers,
                        None,
                    )
                )
        else:
            outcomes = _parallel_outcomes(
                worker, capture, supervisor, todo, workers, section
            )

        # fold everything back in submission order
        report = BatchReport(results=[])
        for entry in restored_quarantine:
            report.quarantine.add(entry)
        first_failure: Optional[Tuple[_TaskOutcome, T]] = None
        for i, task in enumerate(task_list):
            if i in restored:
                result, events = restored[i]
                if capture:
                    tele.absorb(events)
                report.results.append(result)
                report.completed[i] = result
                continue
            if i not in outcomes:  # restored quarantine entry
                report.results.append(None)
                continue
            outcome = outcomes[i]
            if capture:
                tele.absorb(outcome.events)
            if outcome.error is None:
                report.results.append(outcome.result)
                report.completed[i] = outcome.result
                continue
            report.results.append(None)
            entry = QuarantinedTask(
                index=i,
                task_repr=repr(task),
                reason=outcome.reason,
                error=outcome.error,
                traceback=outcome.error_traceback,
                attempts=outcome.attempts,
            )
            report.quarantine.add(entry)
            if section is not None:
                section.record_quarantine(entry)
            if first_failure is None:
                first_failure = (outcome, task)
        # normalize: restored + fresh entries in one deterministic
        # task-index order, duplicates (a resume replaying a recorded
        # quarantine) collapsed
        report.quarantine = QuarantineReport.merge([report.quarantine])
        fail_fast = supervisor.fail_fast if supervisor is not None else True
        if first_failure is not None and fail_fast:
            outcome, task = first_failure
            raise BatchTaskError(
                f"batch task #{outcome.index} failed: {outcome.error} "
                f"(task={task!r})\n--- worker traceback ---\n"
                f"{outcome.error_traceback}",
                index=outcome.index,
                task=task,
                worker_traceback=outcome.error_traceback,
                completed=report.completed,
                missing=report.missing,
            )
        return report


def run_batch(
    tasks: Iterable[T],
    worker: Callable[[T], R],
    *,
    workers: int = 1,
    telemetry: Optional[Telemetry] = None,
    supervisor: Optional[BatchSupervisor] = None,
) -> List[R]:
    """Run ``worker`` over ``tasks``, results in task order.

    The thin unsupervised veneer over :func:`run_batch_report`: a
    raising worker aborts the batch with :class:`BatchTaskError`
    naming the earliest failing task in submission order — with the
    completed partial results attached (``err.completed`` /
    ``err.missing``) so callers can salvage them.  Pass a
    :class:`~repro.analysis.supervise.BatchSupervisor` with
    ``fail_fast=False`` to quarantine failures instead; quarantined
    positions then come back as ``None``.
    """
    return run_batch_report(
        tasks,
        worker,
        workers=workers,
        telemetry=telemetry,
        supervisor=supervisor,
    ).results


# ----------------------------------------------------------------------
# metrics aggregation
# ----------------------------------------------------------------------
#: how :func:`merge_metrics` folds each :class:`Metrics` dataclass field.
#: Every field MUST appear either here or in :data:`MERGE_EXEMPT_FIELDS`
#: — the regression test iterates ``dataclasses.fields(Metrics)`` so a
#: newly added counter cannot be silently dropped again (the fate of
#: ``static_precheck_skips`` before this table existed).
MERGE_RULES = {
    "commits": "sum",
    "gave_up": "sum",
    "operations": "sum",
    "static_precheck_skips": "sum",
    "static_refute_skips": "sum",
    "response_times": "extend",
    # Horizons ADD: each part observed its components for its own
    # end_time, so the merged capacity is components x sum(end_time).
    # The old ``max`` here made ``availability`` divide N runs' summed
    # downtime by a single run's horizon — reporting availability far
    # below every part's own number.
    "end_time": "sum",
    "components": "max",
    "aborts_by_reason": "sum_map",
    "retries_by_reason": "sum_map",
    "giveups_by_reason": "sum_map",
    "faults_injected": "sum_map",
    "downtime": "sum_map",
}

#: fields intentionally NOT merged (none today; add with a comment why)
MERGE_EXEMPT_FIELDS: frozenset = frozenset()


def merge_metrics(parts: Sequence[Metrics]) -> Metrics:
    """Fold per-run :class:`Metrics` into one aggregate.

    Counters and per-reason/per-kind maps are summed (order-independent
    integer arithmetic); ``components`` takes the max (parts describe
    the same topology); ``end_time`` horizons are summed, so derived
    rates (``availability``, ``throughput``) become time-weighted means
    of the parts — for equal-horizon parts, exactly the mean.  Response
    times are concatenated in the order given — pass ``parts`` in task
    order so derived float statistics are reproducible.

    The fold is table-driven by :data:`MERGE_RULES`; a :class:`Metrics`
    field missing from both the table and :data:`MERGE_EXEMPT_FIELDS`
    raises rather than silently vanishing from sharded reports.
    """
    for spec in dataclasses.fields(Metrics):
        if spec.name not in MERGE_RULES and spec.name not in MERGE_EXEMPT_FIELDS:
            raise ValueError(
                f"Metrics.{spec.name} has no merge rule; add it to "
                "MERGE_RULES or MERGE_EXEMPT_FIELDS in repro.analysis.batch"
            )
    merged = Metrics()
    for part in parts:
        for name, rule in MERGE_RULES.items():
            ours = getattr(merged, name)
            theirs = getattr(part, name)
            if rule == "sum":
                setattr(merged, name, ours + theirs)
            elif rule == "max":
                setattr(merged, name, max(ours, theirs))
            elif rule == "extend":
                ours.extend(theirs)
            elif rule == "sum_map":
                for key, count in theirs.items():
                    ours[key] = ours.get(key, 0) + count
            else:  # pragma: no cover - table invariant
                raise ValueError(f"unknown merge rule {rule!r}")
    return merged


# ----------------------------------------------------------------------
# grid builders (the CLI-facing convenience layer)
# ----------------------------------------------------------------------
@dataclass
class ChaosGridReport:
    """A chaos grid's merged points plus its quarantine report.

    ``points`` aggregates whatever cells completed (a quarantined
    (protocol, seed) cell is simply absent from its protocol's
    average — the per-point ``runs`` says how many survived);
    ``quarantine`` names every cell that did not.
    """

    points: List[Any]
    quarantine: QuarantineReport = field(default_factory=QuarantineReport)


def chaos_grid_report(
    topology,
    protocols: Sequence[str],
    seeds: Sequence[int],
    *,
    workers: int = 1,
    supervisor: Optional[BatchSupervisor] = None,
    **kw,
) -> ChaosGridReport:
    """The (protocol x seed) chaos grid with supervision, one
    :class:`ChaosPoint` per protocol.  Equivalent to calling
    :func:`repro.analysis.protocols.evaluate_protocol_under_faults`
    per protocol, but with every (protocol, seed) cell an independent
    task — so ``workers`` parallelizes across protocols *and* seeds,
    the supervisor's quarantine isolates poisoned cells, and an
    ambient checkpoint session makes the whole grid resumable."""
    from repro.analysis.protocols import chaos_run_task, merge_chaos_runs

    tasks = [
        (topology, protocol, seed, kw)
        for protocol in protocols
        for seed in seeds
    ]
    batch = run_batch_report(
        tasks, chaos_run_task, workers=workers, supervisor=supervisor
    )
    points = []
    per = len(seeds)
    for i, protocol in enumerate(protocols):
        runs = [
            run
            for run in batch.results[i * per:(i + 1) * per]
            if run is not None
        ]
        points.append(
            merge_chaos_runs(
                topology.name,
                protocol,
                kw.get("intensity", 1.0),
                runs,
            )
        )
    return ChaosGridReport(points=points, quarantine=batch.quarantine)


def chaos_grid(
    topology,
    protocols: Sequence[str],
    seeds: Sequence[int],
    *,
    workers: int = 1,
    supervisor: Optional[BatchSupervisor] = None,
    **kw,
):
    """The (protocol x seed) chaos grid — points only; see
    :func:`chaos_grid_report` for the quarantine report."""
    return chaos_grid_report(
        topology,
        protocols,
        seeds,
        workers=workers,
        supervisor=supervisor,
        **kw,
    ).points


def ablation_task(task: Tuple) -> bool:
    """One A1 cell: generate and reduce, with or without forgetting."""
    from repro.core.observed import ObservedOrderOptions
    from repro.core.reduction import reduce_to_roots
    from repro.workloads.generator import generate

    spec, config, forget = task
    recorded = generate(spec, config)
    options = ObservedOrderOptions(forget_nonconflicting=forget)
    return reduce_to_roots(recorded.system, options).succeeded


def compare_front_task(task: Tuple[str, int]) -> str:
    """Load one saved execution and describe its level front — the
    per-file half of ``repro compare``, shipped to a worker so the two
    (potentially expensive) reductions run concurrently."""
    from repro.core.equivalence import front_at_level
    from repro.exceptions import ReductionError
    from repro.io import load

    path, level = task
    system = load(path).system
    try:
        front = front_at_level(system, level)
    except ReductionError as err:
        return f"{path} @ level {level}: NO FRONT ({err})"
    obs = ", ".join(f"{x}<{y}" for x, y in front.observed.pairs())
    return (
        f"{path} @ level {level}: {{{', '.join(front.nodes)}}}\n"
        f"  observed: {obs or '(empty)'}"
    )
