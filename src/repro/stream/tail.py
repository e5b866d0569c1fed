"""Tail a growing JSONL event log with torn-tail tolerance.

The transport half of ``composite-tx watch``: poll a file a concurrent
writer is appending to, hand back every *complete* line as a parsed
:class:`~repro.io.eventlog.Event`, and leave a torn tail (the writer
mid-``write``) in place for the next poll — the same discipline
:func:`repro.obs.sink.salvage_records` applies to telemetry sinks, but
incremental: only bytes past the consumed offset are ever re-read.

Offsets are plain byte offsets into the file.  Each returned event
carries the offset *after* its line, so a consumer can persist the
last offset it acted on and a later ``watch --from-offset`` can
suppress re-announcing transitions it already reported.  Resuming is
always a re-read from offset 0: the checker's state is a pure function
of the log prefix, so nothing but the offset needs to survive a crash.

A well-behaved log only ever *grows*.  If a poll observes the file
smaller than the consumed offset, the log was truncated or rotated
underneath the tailer and every consumed byte past the new end is
unverifiable — ``poll`` raises
:class:`~repro.exceptions.EventLogTruncatedError` (carrying the
``CTX502`` diagnostic) instead of silently reporting "no new events",
which is what a bare ``seek``-past-EOF + ``read`` would do.
``watch --from-offset`` raises the same error up front when the log is
already shorter than the offset it is asked to resume past
(:func:`log_truncated`).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, NamedTuple, Union

from repro.exceptions import EventLogTruncatedError, ParseError
from repro.io.eventlog import Event, parse_event_line, utf8_error
from repro.lint.diagnostics import Diagnostic, Location, Severity

__all__ = ["EventLogTail", "TailedEvent", "log_truncated"]


def log_truncated(path: str, offset: int, size: int) -> EventLogTruncatedError:
    """The ``CTX502`` error for a log of ``size`` bytes that must hold
    at least ``offset`` (consumed by a tailer, or named by a resume)."""
    diagnostic = Diagnostic(
        code="CTX502",
        severity=Severity.ERROR,
        location=Location(file=path),
        message=(
            f"event log is {size} bytes, shorter than the offset "
            f"{offset} already consumed (truncated or rotated)"
        ),
        fix_hint="re-read the log from offset 0",
    )
    return EventLogTruncatedError(
        diagnostic.render(),
        path=path,
        offset=offset,
        size=size,
        diagnostic=diagnostic,
    )


class TailedEvent(NamedTuple):
    """One parsed event plus the byte offset just past its line (a
    tuple-backed record)."""

    event: Event
    offset: int
    line: int


class EventLogTail:
    """Incremental reader over a growing event log file.

    ``poll()`` parses every complete line appended since the last call.
    A final line without a newline is *torn* — the writer is mid-append
    — and is left unconsumed; it will be parsed on a later poll once
    the newline lands.  A complete line that fails to parse raises
    :class:`~repro.exceptions.ParseError` naming its ``FILE:LINE``
    (real corruption, not a torn tail — a tailer never waits out a
    malformed line).  The events before it are delivered first and the
    next poll raises, so a consumer acts on the same events before the
    error however the writer's appends were split across polls.  A
    file smaller than the consumed offset raises
    :class:`~repro.exceptions.EventLogTruncatedError` (see module
    docstring).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = str(path)
        self.offset = 0
        self._line = 0

    @property
    def line(self) -> int:
        """1-based number of the last fully consumed line."""
        return self._line

    def poll(self) -> List[TailedEvent]:
        try:
            with open(self.path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                if size < self.offset:
                    raise log_truncated(self.path, self.offset, size)
                handle.seek(self.offset)
                data = handle.read()
        except FileNotFoundError:
            return []
        # every element but the last is a complete line; the last is
        # the torn tail (empty when the read ends with a newline)
        lines = data.split(b"\n")
        out: List[TailedEvent] = []
        offset = self.offset
        line = self._line
        path = self.path
        for raw in lines[:-1]:
            line += 1
            stripped = raw.strip()
            if stripped:
                try:
                    event = parse_event_line(
                        stripped.decode(), source=path, line=line
                    )
                except UnicodeDecodeError as err:
                    error = utf8_error(err, source=path, line=line)
                except ParseError as err:
                    error = err
                else:
                    offset += len(raw) + 1
                    out.append(TailedEvent(event, offset, line))
                    continue
                if out:
                    # hand back what precedes the defect; the next
                    # poll re-reads the bad line and raises
                    line -= 1
                    break
                raise error
            offset += len(raw) + 1
        self.offset = offset
        self._line = line
        return out
