"""The lint diagnostic vocabulary: stable codes, severities, locations.

Every finding of the static analyzer is a :class:`Diagnostic` with a
stable ``CTX***`` code, so tooling (CI gates, editors, the JSON output)
can match on codes instead of message text.  The code space:

* ``CTX1xx`` — schedule-level defects (Def. 2/3): the seven output-order
  axioms plus conflict/order declaration problems;
* ``CTX2xx`` — system-level defects (Def. 4–9): parenthood, invocation
  graph, order propagation, topology specs;
* ``CTX3xx`` — program/trace/document-level findings: the static safety
  pass, execution mismatches, versioning, malformed input;
* ``CTX4xx`` — document **I/O** defects raised while reading files:
  text that is not JSON at all, truncated documents (the signature of
  an interrupted write), roots of the wrong shape.  These are reported
  through :class:`repro.exceptions.ParseError` by the loaders in
  :mod:`repro.io` (which carry the rendered diagnostic, the line, and
  the byte offset), and are registered here so tooling can match their
  codes exactly like lint findings.
* ``CTX5xx`` — stream **recovery** defects raised by the event-log
  tailer (:mod:`repro.stream.tail`) and ``watch --from-offset``: event
  logs shorter than a consumed or resumed offset
  (:class:`repro.exceptions.EventLogTruncatedError`, which carries the
  rendered diagnostic the same way the ``CTX4xx`` loaders do).
  The other ``CTX5xx`` codes named checker-snapshot defects and the
  stream supervisor's poison-event quarantine; both mechanisms are
  gone and their codes are retired, never to be reused (named in a
  comment in :data:`CODES`).

Severity policy: a defect that makes the model meaningless (an axiom
violation, a cyclic order, a dangling reference) is an **error**; a
finding that the engine tolerates but that deserves attention (a
redundant declaration, a *potential* conflict cycle the reduction may
still accept) is a **warning**.  ``--strict`` promotes warnings to the
error exit code without changing the recorded severity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class Severity(enum.Enum):
    """Lint severity levels (ordered: ERROR > WARNING > NOTE).

    Notes are purely informational: they never affect the exit code,
    not even under ``--strict`` — they exist so machine consumers see
    *why* the analyzer did (or did not) do something, e.g. a declined
    static certification (``CTX306``).
    """

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    def __str__(self) -> str:
        return self.value


#: The stable code registry: code -> (default severity, short title).
#: Codes are append-only; never renumber a released code.
CODES: Dict[str, Tuple[Severity, str]] = {
    # -- CTX1xx: schedules (Def. 2/3) ---------------------------------
    "CTX101": (Severity.ERROR, "axiom 1a: input order t->t' not honoured "
               "by conflicting operations"),
    "CTX102": (Severity.ERROR, "axiom 1b: input order t'->t not honoured "
               "by conflicting operations"),
    "CTX103": (Severity.ERROR, "axiom 1c: conflicting operations of "
               "unordered transactions left unordered"),
    "CTX104": (Severity.ERROR, "axiom 2a: intra-transaction weak order "
               "missing from the weak output"),
    "CTX105": (Severity.ERROR, "axiom 2b: intra-transaction strong order "
               "missing from the strong output"),
    "CTX106": (Severity.ERROR, "axiom 3: strong input order not expanded "
               "to operation pairs"),
    "CTX107": (Severity.ERROR, "axiom 4: strong output pair missing from "
               "the weak output"),
    "CTX110": (Severity.ERROR, "operation declared in conflict with "
               "itself"),
    "CTX111": (Severity.WARNING, "duplicate conflict pair"),
    "CTX112": (Severity.ERROR, "conflict names an unknown operation"),
    "CTX113": (Severity.ERROR, "order names an unknown transaction or "
               "operation"),
    "CTX114": (Severity.ERROR, "weak input order is cyclic"),
    "CTX115": (Severity.ERROR, "weak output order is cyclic"),
    # -- CTX2xx: systems (Def. 4-9) -----------------------------------
    "CTX201": (Severity.ERROR, "two schedules share a name"),
    "CTX202": (Severity.ERROR, "transaction assigned to two schedules"),
    "CTX203": (Severity.ERROR, "node is an operation of two transactions"),
    "CTX204": (Severity.ERROR, "system has no root transaction"),
    "CTX205": (Severity.ERROR, "schedule invokes itself"),
    "CTX206": (Severity.ERROR, "recursion in the invocation graph"),
    "CTX207": (Severity.ERROR, "Def. 4.7: caller weak output order not "
               "propagated to the callee input order"),
    "CTX208": (Severity.ERROR, "Def. 4.7: caller strong output order not "
               "propagated to the callee strong input order"),
    "CTX220": (Severity.ERROR, "topology invokes a schedule at the same "
               "or a higher level"),
    "CTX221": (Severity.ERROR, "topology references an unknown schedule"),
    "CTX222": (Severity.ERROR, "topology declares no root schedules"),
    # -- CTX3xx: programs, traces, documents --------------------------
    "CTX301": (Severity.WARNING, "potential cross-schedule conflict "
               "cycle (not statically Comp-C)"),
    "CTX302": (Severity.ERROR, "execution sequence disagrees with the "
               "declared operations"),
    "CTX303": (Severity.ERROR, "unsupported document version"),
    "CTX304": (Severity.ERROR, "trace front verdict contradicts its "
               "recorded relations"),
    "CTX305": (Severity.ERROR, "malformed document"),
    "CTX306": (Severity.NOTE, "static certification declined (the "
               "observed-order options are outside the prover's "
               "argument)"),
    "CTX310": (Severity.ERROR, "statically refuted: the recorded "
               "execution is rejected by the reduction (replay-"
               "validated witness)"),
    # -- CTX4xx: document I/O (repro.io loaders) -----------------------
    "CTX401": (Severity.ERROR, "document is not valid JSON"),
    "CTX402": (Severity.ERROR, "document truncated: JSON text ends "
               "unexpectedly"),
    "CTX403": (Severity.ERROR, "document root is not a JSON object"),
    # -- CTX5xx: stream recovery (repro.stream.tail) -------------------
    # CTX501 and CTX503 (checker snapshots) and CTX504 (stream
    # supervisor quarantine) are retired; never reuse them
    "CTX502": (Severity.ERROR, "event log shorter than a consumed or "
               "resumed offset (truncation or rotation)"),
}

#: Def.-3 axiom name -> diagnostic code (the ScheduleAxiomError bridge).
AXIOM_CODES: Dict[str, str] = {
    "1a": "CTX101",
    "1b": "CTX102",
    "1c": "CTX103",
    "2a": "CTX104",
    "2b": "CTX105",
    "3": "CTX106",
    "4": "CTX107",
}


@dataclass(frozen=True)
class Location:
    """Where a diagnostic points.

    Every field is optional — a document-level finding may only know the
    file, a schedule-axiom finding knows schedule + operations +
    transactions.  ``nodes`` holds the offending operation/transaction
    pair in a stable order so reports are reproducible.
    """

    file: Optional[str] = None
    schedule: Optional[str] = None
    nodes: Tuple[str, ...] = ()

    def describe(self) -> str:
        parts: List[str] = []
        if self.file:
            parts.append(self.file)
        if self.schedule:
            parts.append(f"schedule {self.schedule}")
        if self.nodes:
            parts.append("(" + ", ".join(self.nodes) + ")")
        return " ".join(parts) if parts else "<model>"

    def to_dict(self) -> Dict[str, object]:
        return {
            "file": self.file,
            "schedule": self.schedule,
            "nodes": list(self.nodes),
        }


@dataclass(frozen=True)
class Diagnostic:
    """One collected lint finding."""

    code: str
    severity: Severity
    location: Location
    message: str
    fix_hint: Optional[str] = None

    @property
    def title(self) -> str:
        return CODES[self.code][1]

    def render(self) -> str:
        hint = f"  [fix: {self.fix_hint}]" if self.fix_hint else ""
        return (
            f"{self.code} {self.severity}: {self.location.describe()}: "
            f"{self.message}{hint}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "location": self.location.to_dict(),
            "message": self.message,
            "fix_hint": self.fix_hint,
        }


class DiagnosticCollector:
    """Accumulates diagnostics instead of raising on the first defect.

    The collector is the device that turns the engine's fail-fast
    exception paths into a complete report: every check reports through
    ``add``/``report`` and keeps going.
    """

    def __init__(self, *, file: Optional[str] = None) -> None:
        self._file = file
        self._diagnostics: List[Diagnostic] = []

    # ------------------------------------------------------------------
    def report(
        self,
        code: str,
        message: str,
        *,
        schedule: Optional[str] = None,
        nodes: Iterable[str] = (),
        fix_hint: Optional[str] = None,
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        """Record a finding under a registered code and return it."""
        if code not in CODES:
            raise KeyError(f"unregistered diagnostic code {code!r}")
        default_severity, _title = CODES[code]
        diagnostic = Diagnostic(
            code=code,
            severity=severity if severity is not None else default_severity,
            location=Location(
                file=self._file, schedule=schedule, nodes=tuple(nodes)
            ),
            message=message,
            fix_hint=fix_hint,
        )
        self._diagnostics.append(diagnostic)
        return diagnostic

    def add(self, diagnostic: Diagnostic) -> None:
        self._diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self._diagnostics.extend(diagnostics)

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._diagnostics)

    def __len__(self) -> int:
        return len(self._diagnostics)

    @property
    def diagnostics(self) -> Tuple[Diagnostic, ...]:
        return tuple(self._diagnostics)

    @property
    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(
            d for d in self._diagnostics if d.severity is Severity.ERROR
        )

    @property
    def warnings(self) -> Tuple[Diagnostic, ...]:
        return tuple(
            d for d in self._diagnostics if d.severity is Severity.WARNING
        )

    @property
    def notes(self) -> Tuple[Diagnostic, ...]:
        return tuple(
            d for d in self._diagnostics if d.severity is Severity.NOTE
        )

    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self._diagnostics)

    def counts(self) -> Dict[str, int]:
        """``code -> occurrences`` in sorted code order (deterministic —
        the chaos-grid determinism contract relies on it)."""
        out: Dict[str, int] = {}
        for diagnostic in self._diagnostics:
            out[diagnostic.code] = out.get(diagnostic.code, 0) + 1
        return {code: out[code] for code in sorted(out)}
