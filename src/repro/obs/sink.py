"""JSONL event sink: serialization, stable merge, schema validation.

One telemetry file is a sequence of schema-versioned JSON records, one
per line, in the canonical ``(stream, seq)`` order.  Record shape::

    {"v": 1, "stream": "task0003", "seq": 7, "kind": "exit",
     "name": "reduce.level", "depth": 1, "dur_s": 0.0021,
     "fields": {"level": 2, "nodes": 9}}

``dur_s`` is the only wall-clock (hence non-deterministic) field;
:func:`canonical_dumps` projects it away so two runs of the same seeded
workload — serial or sharded — compare byte-for-byte.  Everything else
(streams, sequence numbers, names, counter values, span fields) is a
deterministic function of the workload.

Crash safety
------------
Two mechanisms keep telemetry readable after a crash or SIGKILL:

* :func:`write_jsonl` is **atomic** — it writes to a sibling temp
  file, ``fsync``\\ s, then ``os.replace``\\ s onto the target, so a
  reader never observes a half-written file (the same
  write-then-fsync-then-rename discipline lint witness documents use);
* :func:`salvage_records` performs **torn-tail recovery** for streams
  that *were* killed mid-append: a final line that is not a complete
  JSON record is truncated away (in memory) and reported as a
  :class:`TornTail` — byte offset of the last valid record boundary,
  bytes lost, and the torn fragment — instead of failing the read.
  Corruption anywhere *before* the final record is still an error:
  only an interrupted append can tear the tail, anything else means
  the file is damaged, not merely truncated.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import TelemetryError
from repro.obs.telemetry import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    TelemetryEvent,
)

#: record keys holding wall-clock measurements (dropped by canonicalize)
WALL_KEYS = ("dur_s",)

#: span fields describing the execution *environment* rather than the
#: computation (worker count, pool chunking, which CLI verb drove the
#: run); also dropped by :func:`canonical_dumps` —
#: ``--workers 1`` and ``--workers 4`` do the same work, and ``watch``
#: over a finished stream does the same work as ``check`` on the same
#: execution, so the canonical stream should say so.
ENV_FIELDS = ("workers", "chunksize", "command")

#: whole streams describing the execution environment, which
#: :func:`canonical_dumps` drops entirely: the streaming checker's
#: ``"watch"`` stream holds per-event ingest spans that describe *when*
#: events arrived, not what the execution is, so dropping it leaves
#: ``watch`` canonical telemetry byte-identical to a batch ``check``.
ENV_STREAMS = ("watch",)

#: exactly the keys every record must carry
RECORD_KEYS = ("v", "stream", "seq", "kind", "name", "depth", "dur_s", "fields")


def to_record(event: TelemetryEvent) -> Dict[str, Any]:
    """The JSON-ready dict of one event."""
    return {
        "v": SCHEMA_VERSION,
        "stream": event.stream,
        "seq": event.seq,
        "kind": event.kind,
        "name": event.name,
        "depth": event.depth,
        "dur_s": event.dur_s,
        "fields": dict(event.fields),
    }


def sort_events(events: Iterable[TelemetryEvent]) -> List[TelemetryEvent]:
    """The canonical merge order: by ``(stream, seq)``."""
    return sorted(events, key=lambda e: e.sort_key)


def merge_streams(
    *streams: Sequence[TelemetryEvent],
) -> List[TelemetryEvent]:
    """Merge per-worker event lists into one canonically ordered list."""
    merged: List[TelemetryEvent] = []
    for stream in streams:
        merged.extend(stream)
    return sort_events(merged)


def dumps_events(events: Iterable[TelemetryEvent]) -> str:
    """Render events as canonical JSONL (sorted, compact, stable keys)."""
    lines = [
        json.dumps(to_record(event), sort_keys=True, separators=(",", ":"))
        for event in sort_events(events)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def canonical_json_dumps(value: Any) -> str:
    """Render an arbitrary JSON-ready value canonically: sorted keys,
    compact separators, UTF-8 kept literal, one trailing newline.

    This is the byte-identity workhorse for *documents* (lint reports,
    refutation witness certificates) the way :func:`canonical_dumps` is
    for telemetry streams: any two processes serializing the same value
    — serial or ``--workers N`` — produce the same bytes.
    """
    return (
        json.dumps(value, sort_keys=True, separators=(",", ":"),
                   ensure_ascii=False)
        + "\n"
    )


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (write, fsync, rename).

    A reader sees either the previous complete file or the new
    complete file, never a torn intermediate — the discipline shared
    by telemetry sinks and lint witness documents.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def write_jsonl(events: Iterable[TelemetryEvent], path: str) -> None:
    """Write the canonical JSONL stream to ``path`` atomically."""
    atomic_write_text(path, dumps_events(events))


@dataclass(frozen=True)
class TornTail:
    """What torn-tail recovery truncated away from a killed stream.

    ``valid_bytes`` is the offset of the last valid record boundary —
    truncating the file to that length yields a fully valid stream;
    ``lost_bytes`` is how much followed it, ``line`` the 1-based line
    number of the torn fragment, and ``fragment`` its first characters
    (for the report).
    """

    path: str
    line: int
    valid_bytes: int
    lost_bytes: int
    fragment: str

    def describe(self) -> str:
        return (
            f"{self.path}: torn final record at line {self.line}: "
            f"{self.lost_bytes} byte(s) after offset {self.valid_bytes} "
            f"do not form a complete record and were ignored "
            f"(fragment: {self.fragment!r})"
        )


def _parse_record(
    path: str, raw: bytes, lineno: int, offset: int, tearable: bool
) -> Tuple[Optional[Dict[str, Any]], Optional[TornTail]]:
    """Parse one line; ``(record, None)``, ``(None, torn)``, or raise."""
    stripped = raw.strip()
    problem: Optional[str] = None
    record: Any = None
    try:
        record = json.loads(stripped.decode("utf-8"))
    except UnicodeDecodeError as err:
        problem = f"undecodable bytes ({err})"
    except json.JSONDecodeError as err:
        problem = f"not valid JSON ({err})"
    if problem is None and not isinstance(record, dict):
        problem = "expected a JSON object"
    if problem is not None:
        if tearable:
            return None, TornTail(
                path=str(path),
                line=lineno,
                valid_bytes=offset,
                lost_bytes=len(raw),
                fragment=stripped[:80].decode("utf-8", "replace"),
            )
        raise TelemetryError(f"{path}:{lineno}: {problem}")
    version = record.get("v")
    if version != SCHEMA_VERSION:
        raise TelemetryError(
            f"{path}:{lineno}: telemetry schema version {version!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    return record, None


def iter_records(
    path: str, *, on_torn: Optional[Callable[[TornTail], None]] = None
) -> Iterator[Dict[str, Any]]:
    """Yield a telemetry file's records one at a time, never crashing
    on a torn tail.

    This is the reader for sinks a *live* process may still be
    appending to (``profile`` over a running simulation, the watch
    service's own sink): records stream out as they are parsed instead
    of slurping the file, and a final line that is not a complete
    record — the writer caught mid-``write`` or killed there — ends the
    iteration cleanly.  When ``on_torn`` is given it receives the
    :class:`TornTail` describing the suppressed tail; without it the
    tail is silently tolerated.  Corruption *before* the final line is
    still a :class:`~repro.exceptions.TelemetryError`: only an
    in-flight append can tear the tail.
    """
    offset = 0
    lineno = 0
    previous: Optional[bytes] = None
    with open(path, "rb") as handle:
        for raw in handle:
            if previous is not None:
                lineno += 1
                if previous.strip():
                    record, _ = _parse_record(
                        path, previous, lineno, offset, tearable=False
                    )
                    assert record is not None
                    yield record
                offset += len(previous)
            previous = raw
    if previous is None:
        return
    lineno += 1
    if previous.strip():
        tearable = not previous.endswith(b"\n")
        record, torn = _parse_record(
            path, previous, lineno, offset, tearable=tearable
        )
        if torn is not None:
            if on_torn is not None:
                on_torn(torn)
            return
        assert record is not None
        yield record


def salvage_records(
    path: str,
) -> Tuple[List[Dict[str, Any]], Optional[TornTail]]:
    """Load a telemetry file, recovering from a torn final record.

    A process killed mid-append (SIGKILL, power loss) leaves a final
    line that is not a complete JSON record and carries no trailing
    newline.  That tail is dropped and described in the returned
    :class:`TornTail`; every intact record before it is returned.
    Corruption anywhere else — a malformed line *followed by* more
    data, or a complete final line that still does not parse — cannot
    be explained by an interrupted append and raises
    :class:`~repro.exceptions.TelemetryError` as before.
    """
    torn_box: List[TornTail] = []
    records = list(iter_records(path, on_torn=torn_box.append))
    return records, (torn_box[0] if torn_box else None)


def read_records(path: str) -> List[Dict[str, Any]]:
    """Load a telemetry file back as raw records (version-checked).

    Strict: a torn final record raises; use :func:`salvage_records`
    to recover everything before the tear instead.
    """
    records, torn = salvage_records(path)
    if torn is not None:
        raise TelemetryError(
            torn.describe() + " (salvage_records recovers the intact prefix)"
        )
    return records


def canonical_dumps(records: Sequence[Dict[str, Any]]) -> str:
    """Render records with wall-clock keys and environment fields
    removed, canonically sorted.

    Two seeded runs of the same workload produce byte-identical
    canonical dumps regardless of worker count — the determinism
    contract the CLI tests pin.  Records of :data:`ENV_STREAMS`
    streams (the streaming checker's) are dropped wholesale: they
    describe event arrival, not the computation.
    """
    cleaned = []
    for record in records:
        if record.get("stream") in ENV_STREAMS:
            continue
        kept = {k: v for k, v in record.items() if k not in WALL_KEYS}
        fields = kept.get("fields")
        if isinstance(fields, dict):
            kept["fields"] = {
                k: v for k, v in fields.items() if k not in ENV_FIELDS
            }
        cleaned.append(kept)
    cleaned.sort(key=lambda r: (str(r.get("stream", "")), int(r.get("seq", 0))))
    lines = [
        json.dumps(record, sort_keys=True, separators=(",", ":"))
        for record in cleaned
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# schema validation (the CI smoke gate and the property tests)
# ----------------------------------------------------------------------
def validate_records(records: Sequence[Dict[str, Any]]) -> List[str]:
    """Check a record list against the schema; return human-readable
    problems (empty list == valid).

    Beyond per-record shape, validates the two stream invariants:
    sequence numbers strictly increase within a stream, and span
    ``enter``/``exit`` events form a balanced, properly-nested bracket
    sequence (skipped for streams that reported dropped events — a
    truncated stream may legitimately lose exits).
    """
    problems: List[str] = []
    last_seq: Dict[str, int] = {}
    stacks: Dict[str, List[str]] = {}
    truncated: Dict[str, bool] = {}
    for i, record in enumerate(records):
        where = f"record {i}"
        missing = [k for k in RECORD_KEYS if k not in record]
        extra = [k for k in record if k not in RECORD_KEYS]
        if missing:
            problems.append(f"{where}: missing keys {missing}")
            continue
        if extra:
            problems.append(f"{where}: unknown keys {extra}")
        if record["v"] != SCHEMA_VERSION:
            problems.append(f"{where}: schema version {record['v']!r}")
        if record["kind"] not in EVENT_KINDS:
            problems.append(f"{where}: unknown kind {record['kind']!r}")
            continue
        if not isinstance(record["stream"], str) or not isinstance(
            record["name"], str
        ):
            problems.append(f"{where}: stream/name must be strings")
            continue
        if not isinstance(record["seq"], int) or not isinstance(
            record["depth"], int
        ):
            problems.append(f"{where}: seq/depth must be integers")
            continue
        if record["dur_s"] is not None and not isinstance(
            record["dur_s"], (int, float)
        ):
            problems.append(f"{where}: dur_s must be a number or null")
        if not isinstance(record["fields"], dict):
            problems.append(f"{where}: fields must be an object")
            continue
        stream = record["stream"]
        seq = record["seq"]
        if stream in last_seq and seq <= last_seq[stream]:
            problems.append(
                f"{where}: seq {seq} not increasing in stream {stream!r}"
            )
        last_seq[stream] = seq
        if record["kind"] == "counter" and "value" not in record["fields"]:
            problems.append(f"{where}: counter without a value field")
        if record["kind"] == "meta" and record["name"] == "telemetry.dropped":
            truncated[stream] = True
        stack = stacks.setdefault(stream, [])
        if record["kind"] == "enter":
            if record["depth"] != len(stack):
                problems.append(
                    f"{where}: enter depth {record['depth']} != stack "
                    f"depth {len(stack)} in stream {stream!r}"
                )
            stack.append(record["name"])
        elif record["kind"] == "exit":
            if not stack:
                if not truncated.get(stream):
                    problems.append(
                        f"{where}: exit {record['name']!r} without a "
                        f"matching enter in stream {stream!r}"
                    )
                continue
            opened = stack.pop()
            if opened != record["name"]:
                problems.append(
                    f"{where}: exit {record['name']!r} does not match "
                    f"open span {opened!r} in stream {stream!r}"
                )
            if record["depth"] != len(stack):
                problems.append(
                    f"{where}: exit depth {record['depth']} != stack "
                    f"depth {len(stack)} in stream {stream!r}"
                )
    for stream, stack in stacks.items():
        if stack and not truncated.get(stream):
            problems.append(
                f"stream {stream!r}: spans never exited: {stack}"
            )
    return problems
