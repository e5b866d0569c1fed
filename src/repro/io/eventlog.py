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
from pathlib import Path
from typing import (
    Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Type, Union, cast,
)

from repro.core.builder import _is_name_list, _is_pair
from repro.exceptions import ModelError, ParseError
from repro.io.recorded import RecordedExecution

EVENTLOG_VERSION = 1

DERIVE_MODES = ("declared", "temporal")

ORDER_KINDS = ("weak_output", "strong_output", "weak_input", "strong_input")


class _EventFields(NamedTuple):
    """The typed slots of :class:`Event`, with their defaults."""

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


#: Event slots in order; ``kind`` (JSON key ``e``) is the only one
#: without a default.
_FIELDS = _EventFields._fields
_DEFAULTS: Tuple[object, ...] = tuple(
    _EventFields._field_defaults.get(f) for f in _FIELDS
)

#: slot -> JSON key (identity but for ``kind`` and ``order_kind``)
_KEYS = ("e",) + tuple(
    "kind" if f == "order_kind" else f for f in _FIELDS[1:]
)

#: JSON key -> slot, for every slot but ``kind``
_SLOT_OF_KEY: Dict[str, int] = {
    key: index for index, key in enumerate(_KEYS) if index
}

_OPS, _WEAK, _STRONG = (_FIELDS.index(f) for f in ("ops", "weak", "strong"))

#: JSON key -> slot, for the slots whose value is one name: a string
#: there is stored as it is, without the call to :func:`_slot_value`
_NAME_SLOT_OF_KEY: Dict[str, int] = {
    key: index
    for key, index in _SLOT_OF_KEY.items()
    if index not in (_OPS, _WEAK, _STRONG)
}
_DERIVE, _ORDER_KIND = _FIELDS.index("derive"), _FIELDS.index("order_kind")

#: Required name slots per kind (beyond ``kind`` itself); a ``txn``
#: event also needs a non-empty ``ops``.
_REQUIRED: Dict[str, Tuple[int, ...]] = {
    kind: tuple(_FIELDS.index(attr) for attr in attrs)
    for kind, attrs in (
        ("log", ("derive",)),
        ("txn", ("root", "schedule", "txn")),
        ("conflict", ("schedule", "a", "b")),
        ("order", ("schedule", "order_kind", "a", "b")),
        ("begin", ("root",)),
        ("access", ("root", "schedule", "txn", "op")),
        ("call", ("root", "schedule", "txn", "op")),
        ("commit", ("root",)),
        ("abort", ("root",)),
        ("end", ()),
    )
}

EVENT_KINDS = tuple(_REQUIRED)


def _slot_value(index: int, value: object) -> object:
    """The stored value of slot ``index`` (``kind`` excepted): the one
    rule both :class:`Event` and :func:`event_from_dict` apply.  Names
    are strings, ``ops`` a list of names, ``weak``/``strong`` lists of
    two-name pairs."""
    if index == _OPS:
        if _is_name_list(value):
            return tuple(cast(Sequence[str], value))
        raise ParseError(f"field {_KEYS[index]!r} is not a list of strings")
    if index == _WEAK or index == _STRONG:
        if isinstance(value, (list, tuple)) and all(map(_is_pair, value)):
            return tuple(tuple(pair) for pair in value)
        raise ParseError(f"field {_KEYS[index]!r} is not a list of pairs")
    if isinstance(value, str):
        return value
    raise ParseError(f"field {_KEYS[index]!r} is not a string")


def _record(cls: Type["Event"], values: List[object]) -> "Event":
    """``values`` as an event of ``cls``, once its kind, required
    fields, derivation mode and order kind check out."""
    kind = values[0]
    if not isinstance(kind, str) or kind not in _REQUIRED:
        raise ParseError(f"unknown event kind {kind!r}")
    for index in _REQUIRED[kind]:
        if values[index] is None:
            raise _missing(kind, index)
    if kind == "txn" and not values[_OPS]:
        raise _missing(kind, _OPS)
    if kind == "log" and values[_DERIVE] not in DERIVE_MODES:
        raise ParseError(f"unknown derivation mode {values[_DERIVE]!r}")
    if kind == "order" and values[_ORDER_KIND] not in ORDER_KINDS:
        raise ParseError(f"unknown order kind {values[_ORDER_KIND]!r}")
    return tuple.__new__(cls, values)


def _missing(kind: str, index: int) -> ParseError:
    return ParseError(
        f"{kind!r} event is missing required field {_KEYS[index]!r}"
    )


class Event(_EventFields):
    """One line of an event log: an immutable tuple-backed record that
    compares and hashes by value.  Unused fields keep their defaults
    (``None`` for a name, ``()`` for ``ops``, ``weak`` and ``strong``).

    Every way of making one — the constructor, :meth:`_make`,
    :meth:`_replace`, :func:`event_from_dict` — applies the same slot
    rule and raises :class:`~repro.exceptions.ParseError` on an
    invalid event.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "Event":
        return cls._make(_EventFields(*args, **kwargs))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "Event":
        values: List[Any] = list(_EventFields._make(iterable))
        for index in range(1, len(_FIELDS)):
            value = values[index]
            values[index] = (
                _DEFAULTS[index] if value is None else _slot_value(index, value)
            )
        return _record(cls, values)


def event_to_dict(event: Event) -> Dict[str, object]:
    """The JSON object for one event (defaults omitted)."""
    doc: Dict[str, object] = {"e": event.kind}
    if event.kind == "log":
        doc["v"] = EVENTLOG_VERSION
    for index in range(1, len(_FIELDS)):
        value: Any = event[index]
        if value is None or value == ():
            continue
        if index == _WEAK or index == _STRONG:
            doc[_KEYS[index]] = [list(pair) for pair in value]
        elif index == _OPS:
            doc[_KEYS[index]] = list(value)
        else:
            doc[_KEYS[index]] = value
    return doc


def _context(source: Optional[str], line: Optional[int]) -> str:
    if source is None and line is None:
        return ""
    where = source or "<event log>"
    if line is not None:
        where = f"{where}:{line}"
    return f"{where}: "


def _located(
    error: ParseError, source: Optional[str], line: Optional[int]
) -> ParseError:
    """``error`` prefixed with ``FILE:LINE: `` and carrying ``line``."""
    located = ParseError(f"{_context(source, line)}{error}")
    located.line = line
    return located


def _event_of(document: object) -> Event:
    if not isinstance(document, dict):
        raise ParseError("event is not a JSON object")
    kind = document.get("e")
    if not isinstance(kind, str) or kind not in _REQUIRED:
        raise ParseError(f"unknown event kind {kind!r}")
    values = list(_DEFAULTS)
    values[0] = kind
    name_slot_of = _NAME_SLOT_OF_KEY.get
    slot_of = _SLOT_OF_KEY.get
    for key, value in document.items():
        index = name_slot_of(key)
        if index is not None and value.__class__ is str:
            values[index] = value
            continue
        index = slot_of(key)
        if index is not None:
            values[index] = _slot_value(index, value)
        elif key == "v":
            if kind != "log":
                raise ParseError("'v' is only valid on the header")
            if value.__class__ is not int or value != EVENTLOG_VERSION:
                raise ParseError(
                    f"unsupported event log version {value!r} "
                    f"(expected {EVENTLOG_VERSION})"
                )
        elif key != "e":
            raise ParseError(f"unknown event field {key!r}")
    if kind == "log" and "v" not in document:
        raise ParseError("header is missing the schema version 'v'")
    return _record(Event, values)


def event_from_dict(
    document: object,
    *,
    source: Optional[str] = None,
    line: Optional[int] = None,
) -> Event:
    """Validate one parsed JSON object into an :class:`Event`: one pass
    over its keys fills the slots.  A :class:`ParseError` names
    ``source:line`` and carries ``line``."""
    try:
        return _event_of(document)
    except ParseError as error:
        raise _located(error, source, line) from None


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
        return _event_of(json.loads(text))
    except json.JSONDecodeError as exc:
        error = ParseError(f"invalid JSON in event log: {exc.msg}")
    except RecursionError:
        error = ParseError("invalid JSON in event log: nested too deeply")
    except ParseError as exc:
        error = exc
    raise _located(error, source, line) from None


def utf8_error(
    error: UnicodeDecodeError,
    *,
    source: Optional[str] = None,
    line: Optional[int] = None,
) -> ParseError:
    """The :class:`ParseError` for an event-log line that is not UTF-8."""
    return _located(
        ParseError(f"invalid UTF-8 in event log: {error.reason}"), source, line
    )


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
    for number, raw in enumerate(text.split("\n"), start=1):
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
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise utf8_error(
            err, source=str(path), line=data.count(b"\n", 0, err.start) + 1
        ) from None
    return loads_event_log(text, source=str(path))


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
