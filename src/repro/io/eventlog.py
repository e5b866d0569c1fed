"""Schema-versioned JSONL event logs for streaming Comp-C checking.

An *event log* is the streaming counterpart of the JSON documents in
:mod:`repro.io.text_format`: one JSON object per line, arriving in
temporal order, describing a composite execution as it unfolds.  The
first line is a header naming the schema version and the *derivation
mode*; the rest are typed events:

``log``
    header — ``{"e": "log", "v": 1, "derive": "declared"}``.
``txn``
    a transaction declaration staged under its root: name, owning
    schedule, operations, and intra-transaction weak/strong orders.
``conflict`` / ``order``
    a ``CON`` pair / an output- or input-order pair of a schedule.
    Declarations *activate* only once every mentioned node's root has
    committed, so a prefix of the log always describes the committed
    part of the execution.
``begin`` / ``commit`` / ``abort``
    root (composite transaction) lifecycle.  ``abort`` discards the
    root's staged declarations; a later ``begin`` restarts it.
``access`` / ``call``
    one operation observed at a schedule — a leaf access or an
    invocation of a lower-level schedule.  Arrival order per schedule
    is the temporal layout (``RecordedExecution.executions``).
``end``
    end of stream.

:func:`events_from_recorded` converts a finished
:class:`~repro.io.recorded.RecordedExecution` into the
equivalent event log; :class:`repro.stream.assembler.StreamAssembler`
folds the log back.  The two are exact inverses: converting and
reassembling reproduces the original system byte-for-byte (same
declaration order, hence the same interned element order in every
:class:`~repro.core.orders.Relation`).

See ``docs/STREAMING.md`` for the schema reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import ModelError, ParseError
from repro.io.recorded import RecordedExecution

EVENTLOG_VERSION = 1

EVENT_KINDS = (
    "log",
    "txn",
    "conflict",
    "order",
    "begin",
    "access",
    "call",
    "commit",
    "abort",
    "end",
)

DERIVE_MODES = ("declared", "temporal")

ORDER_KINDS = ("weak_output", "strong_output", "weak_input", "strong_input")

# Required Event attributes per kind (beyond ``kind`` itself).
_REQUIRED: Dict[str, Tuple[str, ...]] = {
    "log": ("derive",),
    "txn": ("root", "schedule", "txn", "ops"),
    "conflict": ("schedule", "a", "b"),
    "order": ("schedule", "order_kind", "a", "b"),
    "begin": ("root",),
    "access": ("root", "schedule", "txn", "op"),
    "call": ("root", "schedule", "txn", "op"),
    "commit": ("root",),
    "abort": ("root",),
    "end": (),
}

# Attribute name -> JSON key (identity unless listed).
_JSON_KEY = {"order_kind": "kind"}


@dataclass(frozen=True)
class Event:
    """One line of an event log.  Unused fields keep their defaults."""

    kind: str
    derive: Optional[str] = None
    root: Optional[str] = None
    schedule: Optional[str] = None
    txn: Optional[str] = None
    op: Optional[str] = None
    ops: Tuple[str, ...] = ()
    weak: Tuple[Tuple[str, str], ...] = ()
    strong: Tuple[Tuple[str, str], ...] = ()
    a: Optional[str] = None
    b: Optional[str] = None
    order_kind: Optional[str] = None
    item: Optional[str] = None
    mode: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ParseError(f"unknown event kind {self.kind!r}")
        for attr in _REQUIRED[self.kind]:
            value = getattr(self, attr)
            if value is None or (attr == "ops" and value == ()):
                raise ParseError(
                    f"{self.kind!r} event is missing required field "
                    f"{_JSON_KEY.get(attr, attr)!r}"
                )
        if self.kind == "log" and self.derive not in DERIVE_MODES:
            raise ParseError(f"unknown derivation mode {self.derive!r}")
        if self.kind == "order" and self.order_kind not in ORDER_KINDS:
            raise ParseError(f"unknown order kind {self.order_kind!r}")


_EVENT_ATTRS = tuple(f.name for f in fields(Event) if f.name != "kind")
_ATTR_OF_KEY = {_JSON_KEY.get(a, a): a for a in _EVENT_ATTRS}


def event_to_dict(event: Event) -> Dict[str, object]:
    """The JSON object for one event (defaults omitted)."""
    doc: Dict[str, object] = {"e": event.kind}
    if event.kind == "log":
        doc["v"] = EVENTLOG_VERSION
    for attr in _EVENT_ATTRS:
        value = getattr(event, attr)
        if value is None or value == ():
            continue
        key = _JSON_KEY.get(attr, attr)
        if attr in ("weak", "strong"):
            doc[key] = [list(pair) for pair in value]
        elif attr == "ops":
            doc[key] = list(value)
        else:
            doc[key] = value
    return doc


def _context(source: Optional[str], line: Optional[int]) -> str:
    if source is None and line is None:
        return ""
    where = source or "<event log>"
    if line is not None:
        where = f"{where}:{line}"
    return f"{where}: "


def event_from_dict(
    document: object,
    *,
    source: Optional[str] = None,
    line: Optional[int] = None,
) -> Event:
    """Validate one parsed JSON object into an :class:`Event`."""

    def error(message: str) -> ParseError:
        return ParseError(f"{_context(source, line)}{message}")

    if not isinstance(document, dict):
        raise error("event is not a JSON object")
    kind = document.get("e")
    if not isinstance(kind, str) or kind not in EVENT_KINDS:
        raise error(f"unknown event kind {kind!r}")
    kwargs: Dict[str, object] = {}
    for key, value in document.items():
        if key == "e":
            continue
        if key == "v":
            if kind != "log":
                raise error("'v' is only valid on the header")
            if value != EVENTLOG_VERSION:
                raise error(
                    f"unsupported event log version {value!r} "
                    f"(expected {EVENTLOG_VERSION})"
                )
            continue
        attr = _ATTR_OF_KEY.get(key)
        if attr is None:
            raise error(f"unknown event field {key!r}")
        if attr in ("weak", "strong"):
            try:
                value = tuple(
                    (str(pair[0]), str(pair[1])) for pair in value  # type: ignore[index]
                )
            except (TypeError, IndexError, KeyError):
                raise error(f"field {key!r} is not a list of pairs") from None
        elif attr == "ops":
            if not isinstance(value, list) or not all(
                isinstance(o, str) for o in value
            ):
                raise error("field 'ops' is not a list of strings")
            value = tuple(value)
        elif not isinstance(value, str):
            raise error(f"field {key!r} is not a string")
        kwargs[attr] = value
    if kind == "log" and "v" not in document:
        raise error("header is missing the schema version 'v'")
    try:
        return Event(kind=kind, **kwargs)  # type: ignore[arg-type]
    except ParseError as exc:
        raise error(str(exc)) from None


def dumps_event(event: Event) -> str:
    """One canonical JSONL line (no trailing newline)."""
    return json.dumps(
        event_to_dict(event), sort_keys=True, separators=(",", ":")
    )


def parse_event_line(
    text: str,
    *,
    source: Optional[str] = None,
    line: Optional[int] = None,
) -> Event:
    """Parse one JSONL line into an :class:`Event`."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{_context(source, line)}invalid JSON in event log: {exc.msg}"
        ) from None
    return event_from_dict(document, source=source, line=line)


def dumps_event_log(events: List[Event]) -> str:
    """The whole log as JSONL text (one event per line)."""
    return "".join(dumps_event(event) + "\n" for event in events)


def loads_event_log(
    text: str, *, source: Optional[str] = None
) -> List[Event]:
    """Parse a complete event log, validating the header.

    This is the strict batch loader — every line must parse and the
    first event must be a known-version header.  Tailing a *growing*
    log (torn tails, incremental arrival) is
    :class:`repro.stream.tail.EventLogTail`'s job.
    """
    events: List[Event] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        events.append(parse_event_line(stripped, source=source, line=number))
    if not events or events[0].kind != "log":
        raise ParseError(
            f"{_context(source, None)}event log does not start with a "
            "'log' header"
        )
    return events


def save_event_log(events: List[Event], path: Union[str, Path]) -> None:
    """Write a complete log (plain write; logs are append streams)."""
    Path(path).write_text(dumps_event_log(events), encoding="utf-8")


def interleave_by_commit(events: List[Event]) -> List[Event]:
    """Re-lay a converter log out as a *live* trace.

    :func:`events_from_recorded` emits the batch-shaped layout — every
    declaration and arrival first, all commits at the tail — which is
    the degenerate case for an online checker (there is nothing to
    answer until the last handful of events).  A watch stream sees
    roots run and commit interleaved; model that as each root's txn
    declarations, begin, arrivals, and commit in turn.  Declared
    orders are unchanged, so the final system and verdict are too.
    """
    header, end = events[0], events[-1]
    txn_decls: Dict[str, List[Event]] = {}
    arrivals: Dict[str, List[Event]] = {}
    other_decls: List[Event] = []
    for e in events:
        if e.kind == "txn":
            assert e.root is not None
            txn_decls.setdefault(e.root, []).append(e)
        elif e.kind in ("conflict", "order"):
            other_decls.append(e)
        elif e.kind in ("access", "call"):
            assert e.root is not None
            arrivals.setdefault(e.root, []).append(e)
    begins = {e.root: e for e in events if e.kind == "begin"}
    out = [header] + other_decls
    for commit in (e for e in events if e.kind == "commit"):
        assert commit.root is not None
        out += txn_decls.get(commit.root, [])
        out.append(begins[commit.root])
        out += arrivals.get(commit.root, [])
        out.append(commit)
    out.append(end)
    if len(out) != len(events):
        raise ModelError(
            "interleave dropped or duplicated events "
            f"({len(out)} != {len(events)}); the log names roots its "
            "begin/commit events do not cover"
        )
    return out


def load_event_log(path: Union[str, Path]) -> List[Event]:
    return loads_event_log(
        Path(path).read_text(encoding="utf-8"), source=str(path)
    )


# ----------------------------------------------------------------------
# Converter: RecordedExecution -> event log
# ----------------------------------------------------------------------
def events_from_recorded(recorded: RecordedExecution) -> List[Event]:
    """The event log equivalent to a finished recorded execution.

    Declarations are emitted in the exact order
    :meth:`~repro.core.builder.SystemBuilder.from_spec` would replay
    them (per schedule: transactions, conflicts, then the four order
    kinds), so reassembling the log rebuilds a system whose interned
    element orders — and therefore every downstream ``Relation``,
    verdict and telemetry byte — match the original.  Operation
    arrival events mirror ``recorded.executions``; schedules without a
    recorded temporal layout get no arrival events (the declarations
    already carry their committed orders), which keeps the converter
    an exact inverse of assembly.
    """
    system = recorded.system
    leaf_set = set(system.leaves)
    events: List[Event] = [Event(kind="log", derive="declared")]
    for sname, schedule in system.schedules.items():
        for tname, txn in schedule.transactions.items():
            events.append(
                Event(
                    kind="txn",
                    root=system.root_of(tname),
                    schedule=sname,
                    txn=tname,
                    ops=tuple(txn.operations),
                    weak=tuple(txn.weak_order.pairs()),
                    strong=tuple(txn.strong_order.pairs()),
                )
            )
        for pair in sorted(sorted(p) for p in schedule.conflicts):
            events.append(
                Event(kind="conflict", schedule=sname, a=pair[0], b=pair[1])
            )
        for order_kind, relation in (
            ("weak_output", schedule.weak_output),
            ("strong_output", schedule.strong_output),
            ("weak_input", schedule.weak_input),
            ("strong_input", schedule.strong_input),
        ):
            for a, b in relation.pairs():
                events.append(
                    Event(
                        kind="order",
                        schedule=sname,
                        order_kind=order_kind,
                        a=a,
                        b=b,
                    )
                )
    for root in system.roots:
        events.append(Event(kind="begin", root=root))
    for sname, sequence in recorded.executions.items():
        if sname not in system.schedules:
            raise ModelError(
                f"executions name unknown schedule {sname!r}"
            )
        operations = set(system.schedules[sname].operations)
        for op in sequence:
            if op not in operations:
                raise ModelError(
                    f"executions of schedule {sname!r} name unknown "
                    f"operation {op!r}"
                )
            events.append(
                Event(
                    kind="access" if op in leaf_set else "call",
                    root=system.root_of(op),
                    schedule=sname,
                    txn=system.parent(op),
                    op=op,
                )
            )
    for root in system.roots:
        events.append(Event(kind="commit", root=root))
    events.append(Event(kind="end"))
    return events
