"""Worker supervision policy for the batch runner.

:mod:`repro.analysis.batch` executes (config x seed) grids; this module
holds the *resilience* vocabulary those executions run under:

* :class:`BatchSupervisor` — the supervision configuration: per-task
  wall-clock timeouts, per-task retry with seeded jittered backoff
  (reusing the :mod:`repro.simulator.retry` policy vocabulary, so one
  set of policies covers simulated retries and real harness retries),
  hung-worker detection, and the fail-fast/keep-going switch;
* :class:`QuarantinedTask` / :class:`QuarantineReport` — the structured
  failure report a keep-going grid emits instead of aborting: task id,
  parameters, reason, and the worker traceback;
* :func:`time_limit` — the in-worker wall-clock guard (SIGALRM based,
  a no-op where signals are unavailable);
* :func:`exit_with_parent` / :func:`worker_pool` — every pool worker
  process exits soon after the process that started it dies.

Determinism contract
--------------------
Retry jitter is drawn from a per-task ``random.Random`` seeded with
``retry_seed`` and the task's submission index only (see
:meth:`BatchSupervisor.task_rng`), never from worker identity or wall
clock — so the delay sequence of any one task is identical whether the
grid runs serially, sharded, or is re-run after a kill.  This is
the same seeding contract :mod:`repro.simulator.retry` documents for
seeded policies.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterator,
    List,
    Optional,
)

from repro.exceptions import TaskTimeoutError
from repro.simulator.retry import ExponentialBackoff

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

#: quarantine reasons (stable vocabulary for reports and tests)
REASON_EXCEPTION = "exception"
REASON_TIMEOUT = "timeout"
REASON_HUNG = "hung"
REASON_CRASH = "crash"

#: seconds between two checks of an orphan watch (:func:`exit_with_parent`)
ORPHAN_POLL_INTERVAL = 0.25

#: the backoff between a task's attempts; unseeded, so each delay is
#: drawn from the per-task stream :meth:`BatchSupervisor.task_rng`
RETRY_POLICY = ExponentialBackoff(base=0.05)

#: multiplier used to derive per-task RNG seeds; a large prime keeps
#: (seed, index) pairs from colliding for any realistic grid size
_SEED_STRIDE = 1_000_003


@contextmanager
def time_limit(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`TaskTimeoutError` in the calling thread after
    ``seconds`` of wall-clock time.

    Uses ``SIGALRM`` (via ``signal.setitimer``), so it only arms on
    platforms that have it *and* on the main thread — everywhere else
    it degrades to a no-op and the parent-side hang deadline is the
    only guard.  Worker processes of a ``ProcessPoolExecutor`` run
    tasks on their main thread, so the guard is active in exactly the
    place that matters.

    Contexts nest: ``setitimer`` returns the previously armed
    ``ITIMER_REAL`` value, and the remaining portion of that outer
    timer (minus the time spent inside this block) is re-armed on
    exit, so an inner ``time_limit`` never silently disarms an outer
    one.  An outer budget that expired *while* the inner guard held
    the timer fires immediately after the inner block exits.
    """
    if (
        not seconds
        or seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum: int, frame: Any) -> None:
        raise TaskTimeoutError(
            f"task exceeded its {seconds:g}s wall-clock budget"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    started = time.monotonic()
    outer_delay, outer_interval = signal.setitimer(
        signal.ITIMER_REAL, seconds
    )
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_delay:
            remaining = outer_delay - (time.monotonic() - started)
            # an already-overdue outer guard fires as soon as possible
            signal.setitimer(
                signal.ITIMER_REAL, max(remaining, 1e-6), outer_interval
            )


def _alive(pid: int) -> bool:
    """True unless ``pid`` is known to be gone (POSIX only: elsewhere
    signal 0 is not a probe, so every pid counts as alive)."""
    if os.name != "posix":
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def exit_with_parent(parent_pid: int) -> None:
    """Make the calling worker process exit soon after ``parent_pid``
    (the process that started it) dies.

    A SIGKILLed parent runs no cleanup, and forked workers hold copies
    of each other's pipe ends, so a worker blocked on its task pipe
    never reads end-of-file: it would stay blocked, reparented to init,
    forever.  A daemon thread checks every ``ORPHAN_POLL_INTERVAL``
    seconds that the worker still has the parent it started with and that
    ``parent_pid`` still exists, and ends the process with ``os._exit``
    otherwise.  The first check fires as soon as the worker is
    reparented, and also covers start methods where a fork server, not
    ``parent_pid``, is the worker's parent (the server exits with it).
    The second catches a parent that died before this call ran, once
    that parent has been reaped.
    """
    watched = os.getppid()

    def _watch() -> None:
        while os.getppid() == watched and _alive(parent_pid):
            time.sleep(ORPHAN_POLL_INTERVAL)
        os._exit(1)

    threading.Thread(target=_watch, name="orphan-watch", daemon=True).start()


def worker_pool(max_workers: int) -> "ProcessPoolExecutor":
    """A process pool whose workers exit soon after this process dies
    (see :func:`exit_with_parent`)."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=max_workers,
        initializer=exit_with_parent,
        initargs=(os.getpid(),),
    )


@dataclass
class QuarantinedTask:
    """One task the supervisor gave up on — the structured failure
    record a keep-going grid emits instead of aborting.

    ``task_repr`` is the ``repr`` of the task tuple (the parameters
    needed to reproduce the cell), ``reason`` one of
    ``exception``/``timeout``/``hung``/``crash``, ``attempts`` how many
    times the supervisor tried (for ``hung`` and ``crash``, how many
    workers the task lost), and ``error``/``traceback`` what the final
    attempt died with (``traceback`` is empty for lost workers — a dead
    or SIGKILL-proof hung worker never reports back).
    """

    index: int
    task_repr: str
    reason: str
    error: str
    traceback: str = ""
    attempts: int = 1


@dataclass
class QuarantineReport:
    """Every quarantined task of one batch, in submission order."""

    entries: List[QuarantinedTask] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[QuarantinedTask]:
        return iter(self.entries)

    def add(self, entry: QuarantinedTask) -> None:
        self.entries.append(entry)
        self.entries.sort(key=lambda e: e.index)

    def indices(self) -> List[int]:
        return [entry.index for entry in self.entries]

    def render(self) -> str:
        """Human-readable report (the CLI prints this after the grid)."""
        lines = [
            f"{len(self.entries)} task(s) quarantined "
            "(grid completed without them):"
        ]
        for entry in self.entries:
            lines.append(
                f"  task #{entry.index} [{entry.reason} after "
                f"{entry.attempts} attempt(s)]: {entry.error}"
            )
            lines.append(f"    params: {entry.task_repr}")
        return "\n".join(lines)


@dataclass
class BatchSupervisor:
    """How :func:`repro.analysis.batch.run_batch_report` guards tasks.

    ``task_timeout`` is the per-task wall-clock budget enforced
    *inside* the worker (SIGALRM); ``hang_timeout`` is the parent-side
    deadline after which a worker that stopped delivering results is
    declared hung and replaced (defaults to ``3 * task_timeout + 5``
    when a task timeout is set, else disabled).  ``max_attempts`` is
    the total number of tries per task; between tries the supervisor
    sleeps a :data:`RETRY_POLICY` delay drawn from the per-task seeded
    stream.  With ``fail_fast=True`` the first task that exhausts its
    attempts aborts the whole batch with
    :class:`~repro.exceptions.BatchTaskError` (the pre-supervision
    behaviour); otherwise the task is quarantined and the rest of the
    grid completes.
    """

    task_timeout: Optional[float] = None
    hang_timeout: Optional[float] = None
    max_attempts: int = 1
    retry_seed: int = 0
    fail_fast: bool = False
    #: injectable for tests; must stay a picklable module-level callable
    sleep: Callable[[float], None] = time.sleep

    def task_rng(self, index: int) -> random.Random:
        """The deterministic jitter stream of task ``index`` — a
        function of ``(retry_seed, index)`` only, per the module's
        seeding contract."""
        return random.Random(self.retry_seed * _SEED_STRIDE + index)

    def effective_hang_timeout(self) -> Optional[float]:
        if self.hang_timeout is not None:
            return self.hang_timeout if self.hang_timeout > 0 else None
        if self.task_timeout:
            # the in-worker alarm should fire first on every attempt;
            # the parent deadline only catches workers the alarm cannot
            # reach (stuck outside the interpreter)
            return 3.0 * self.task_timeout + 5.0
        return None
