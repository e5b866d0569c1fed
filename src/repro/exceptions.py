"""Exception hierarchy for the composite-tx library.

All exceptions raised by the library derive from :class:`CompositeTxError`
so that callers can catch library failures with a single ``except`` clause
while still distinguishing model-construction problems from checking
problems.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional


class CompositeTxError(Exception):
    """Base class for every error raised by this library."""


class ModelError(CompositeTxError):
    """A composite-system model violates a structural definition.

    Raised while *constructing* schedules or composite systems, e.g. a
    transaction assigned to two schedules (Def. 4.1), a recursive
    invocation graph (Def. 4.6), or an order relation that is not a
    strict partial order.

    Each rule's check site states its violation structurally, so the
    linter reports it without parsing the message: :attr:`code` is the
    stable ``CTX***`` lint code (``CTX305``, a malformed document,
    unless the site names another), :attr:`schedule` the schedule it
    concerns, :attr:`nodes` the offending transactions or operations
    and :attr:`hint` how to fix it.  A constructor given a
    :data:`Report` hands each violation to it and carries on without
    the offending item (see :func:`report_or_raise`).
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = "CTX305",
        schedule: Optional[str] = None,
        nodes: Iterable[str] = (),
        hint: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.schedule = schedule
        self.nodes = tuple(nodes)
        self.hint = hint


#: Where a collecting construction sends each violation it finds.
Report = Callable[[ModelError], None]


def report_or_raise(report: Optional[Report], error: ModelError) -> None:
    """The one way a check site states a violation: raise ``error``
    (the engine's fail-fast path), or, given a ``report`` collector
    (lint's path), hand it over and return, so that the caller drops
    the offending pair, operation or transaction and goes on."""
    if report is None:
        raise error
    report(error)


#: Def.-3 axiom name -> lint code.
AXIOM_CODES: Dict[str, str] = {
    "1a": "CTX101",
    "1b": "CTX102",
    "1c": "CTX103",
    "2a": "CTX104",
    "2b": "CTX105",
    "3": "CTX106",
    "4": "CTX107",
}

_AXIOM_HINTS: Dict[str, str] = {
    "1a": "order the conflicting operations to match the weak input order",
    "1b": "order the conflicting operations to match the weak input order",
    "1c": "add a weak output pair between the conflicting operations",
    "2a": "surface the intra-transaction weak order in the weak output",
    "2b": "surface the intra-transaction strong order in the strong output",
    "3": "expand the strong input order into strong output operation pairs",
    "4": "every strong output pair must also be a weak output pair",
}


class ScheduleAxiomError(ModelError):
    """A schedule violates one of the output-order axioms of Def. 3.

    The offending axiom is recorded in :attr:`axiom` using the paper's
    numbering (``"1a"``, ``"1b"``, ``"1c"``, ``"2a"``, ``"2b"``, ``"3"``,
    ``"4"``).  :attr:`operations` holds the operation pair and
    :attr:`transactions` the transaction pair involved (either tuple
    may be empty when the axiom does not mention that kind of node);
    :attr:`nodes` is the two together.
    """

    def __init__(
        self,
        axiom: str,
        message: str,
        *,
        schedule: "str | None" = None,
        operations: "tuple[str, ...]" = (),
        transactions: "tuple[str, ...]" = (),
    ) -> None:
        super().__init__(
            f"schedule axiom {axiom} violated: {message}",
            code=AXIOM_CODES[axiom],
            schedule=schedule,
            nodes=tuple(operations) + tuple(transactions),
            hint=_AXIOM_HINTS[axiom],
        )
        self.axiom = axiom
        self.operations = tuple(operations)
        self.transactions = tuple(transactions)


class OrderPropagationError(ModelError):
    """Def. 4.7 violated: a caller's output order between two operations
    that are transactions of one callee is missing from that callee's
    input order.

    Carries the violation structurally: :attr:`caller` / :attr:`callee`
    are the schedule names, :attr:`pair` the offending operation pair,
    and :attr:`kind` is ``"weak"`` (lint code ``CTX207``) or
    ``"strong"`` (``CTX208``).
    """

    def __init__(
        self,
        message: str,
        *,
        caller: str,
        callee: str,
        pair: "tuple[str, str]",
        kind: str,
    ) -> None:
        super().__init__(
            message,
            code="CTX207" if kind == "weak" else "CTX208",
            schedule=caller,
            nodes=pair,
            hint=f"add the pair to the {kind} input order of {callee!r} "
            "(SystemBuilder propagates it automatically)",
        )
        self.caller = caller
        self.callee = callee
        self.pair = (pair[0], pair[1])
        self.kind = kind


class CycleError(ModelError):
    """An order relation that must be acyclic contains a cycle.

    :attr:`cycle` holds one witness cycle as a list of node names,
    ``[a, b, ..., a]``; it is also :attr:`nodes` unless the check site
    names others.
    """

    def __init__(
        self,
        message: str,
        cycle: list,
        *,
        code: str = "CTX305",
        schedule: Optional[str] = None,
        nodes: Optional[Iterable[str]] = None,
        hint: Optional[str] = None,
    ) -> None:
        super().__init__(
            f"{message}: cycle {' -> '.join(map(str, cycle))}",
            code=code,
            schedule=schedule,
            nodes=map(str, cycle) if nodes is None else nodes,
            hint=hint,
        )
        self.cycle = list(cycle)


class ReductionError(CompositeTxError):
    """The reduction engine was used inconsistently.

    This signals a *usage* problem (e.g. asking for a level-3 front of an
    order-2 system), never an incorrect execution; incorrect executions
    are reported through :class:`repro.core.correctness.CorrectnessReport`.
    """


class StreamError(CompositeTxError):
    """An event stream was malformed or arrived out of protocol.

    Raised by the streaming checker for protocol violations — a commit
    of a root that never declared transactions, events before the
    header, a live/batch verdict disagreement (which would falsify the
    streaming equivalence invariant) — never for *incorrect* composite
    executions, which are reported through the live verdict exactly
    like the batch path reports them through
    :class:`repro.core.correctness.CorrectnessReport`.  ``watch``
    prefixes a violation raised while ingesting a logged event with
    that event's ``FILE:LINE``, as the event-log parser does for a
    malformed line.
    """


class EventLogTruncatedError(StreamError):
    """The tailed event log shrank below the consumed byte offset.

    A log file can only legally *grow*; a size regression means the file
    was truncated or rotated underneath the tailer, and every byte of
    consumed state past the new end is unverifiable.  Carries the
    ``CTX502`` :class:`repro.lint.diagnostics.Diagnostic` plus the
    structural facts (:attr:`path`, :attr:`offset` consumed,
    :attr:`size` observed), so ``watch`` stops with one error line
    instead of silently mis-checking; the remedy is a re-read from
    offset 0.  Also raised by ``watch --from-offset`` when the log is
    already shorter than the offset it is asked to resume past.
    """

    def __init__(
        self,
        message: str,
        *,
        path: str,
        offset: int,
        size: int,
        diagnostic: "object | None" = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.offset = offset
        self.size = size
        self.diagnostic = diagnostic


class SimulationError(CompositeTxError):
    """The discrete-event simulator reached an inconsistent state."""


class FaultError(SimulationError):
    """A fault plan is malformed (invalid probabilities, negative times,
    crash windows naming components the topology does not have).

    Raised while *constructing* or *attaching* fault plans; faults that
    fire during a run are normal simulated behaviour and never raise.
    """


class WorkloadError(CompositeTxError):
    """A workload generator received unsatisfiable parameters."""


class TelemetryError(CompositeTxError):
    """The telemetry layer was misused or fed an unreadable stream.

    Raised for span-stack overflows (a programming error in
    instrumented code) and for telemetry files whose schema version or
    line format this build cannot read.  Never raised by normal
    recording: a full event buffer *drops* (and counts) events instead
    of failing the instrumented run.
    """


class BatchTaskError(CompositeTxError):
    """A batch worker raised; carries which task died.

    ``ProcessPoolExecutor.map`` re-raises worker exceptions with no
    hint of which task produced them — for a (protocol, seed) grid that
    loses exactly the information needed to reproduce the failure.
    :attr:`task` is the failing task object, :attr:`index` its position
    in submission order, and :attr:`worker_traceback` the formatted
    traceback captured inside the worker process (the original
    exception object itself may not survive pickling).

    The work that *did* finish is not thrown away: :attr:`completed`
    maps submission index -> result for every task that succeeded
    before the batch aborted, and :attr:`missing` lists the submission
    indices with no result (the failing task plus any other failed or
    never-delivered tasks), so callers can salvage the partial grid.
    """

    def __init__(
        self,
        message: str,
        *,
        index: int,
        task: object,
        worker_traceback: str = "",
        completed: "dict[int, object] | None" = None,
        missing: "tuple[int, ...] | list[int] | None" = None,
    ) -> None:
        super().__init__(message)
        self.index = index
        self.task = task
        self.worker_traceback = worker_traceback
        self.completed: "dict[int, object]" = dict(completed or {})
        self.missing: "tuple[int, ...]" = tuple(missing or ())


class TaskTimeoutError(CompositeTxError):
    """A supervised batch task exceeded its per-task wall-clock budget.

    Raised *inside* the worker by the supervision alarm (see
    :mod:`repro.analysis.supervise`); the supervisor converts it into a
    retry or a quarantine entry with reason ``"timeout"``.
    """


class ParseError(CompositeTxError):
    """The text format parser rejected its input.

    :attr:`line` is the 1-based line number of the offending line when
    known, otherwise ``None``.  Parse failures detected by the hardened
    document loaders additionally carry :attr:`offset` (the byte offset
    of the defect) and :attr:`diagnostic` (the lint-style
    ``CTX4xx`` :class:`repro.lint.diagnostics.Diagnostic`, so tooling
    can match the stable code instead of the message text).
    """

    def __init__(
        self,
        message: str,
        line: "int | None" = None,
        *,
        offset: "int | None" = None,
        diagnostic: "object | None" = None,
    ) -> None:
        location = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.offset = offset
        self.diagnostic = diagnostic


class TraceError(ModelError, ParseError):
    """A reduction-trace document that the trace loader refuses.

    :func:`repro.io.trace.trace_from_dict` is the one check site of a
    trace document and states each violation as one of these through
    :func:`report_or_raise`.  It is a :class:`ModelError`, so lint's
    collector takes it like any model violation (:attr:`code`,
    :attr:`nodes`, :attr:`hint`), and a :class:`ParseError`, which is
    what the trace loaders raise.
    """
