"""The telemetry context: counters, monotonic span timers, event buffer.

A :class:`Telemetry` object is the single observability handle a run
carries.  It records three kinds of things:

* **spans** — ``with tele.span("reduce.level", level=i):`` emits an
  ``enter`` event immediately and an ``exit`` event (carrying the
  monotonic wall duration) when the block leaves, maintaining a bounded
  span stack so events always nest;
* **counters** — ``tele.count("sim.abort", reason="timeout")``
  accumulates named totals in memory; one ``counter`` event per
  distinct (name, fields) pair is appended at :meth:`collect` time in
  sorted order;
* **meta** — bookkeeping records the sink adds itself (schema version
  markers, dropped-event accounting).

Determinism contract
--------------------
Every event carries a ``(stream, seq)`` pair: ``stream`` names the
producing context (the main process, or one ``taskNNNN`` stream per
batch task) and ``seq`` is a per-stream monotonic sequence number.
Sorting any collection of events by ``(stream, seq)`` therefore yields
one canonical order that does not depend on worker scheduling — a
``--workers N`` run writes a byte-identical stream to the serial run
once wall-clock durations are projected away (see
:func:`repro.obs.sink.canonical_dumps`).  With an injected constant
``clock`` the streams are byte-identical outright, which is how the
determinism tests pin the contract.

The ambient context (:func:`current` / :func:`using`) lets deep library
code emit telemetry without threading a handle through every signature:
instrumented hot paths call ``current()``, which returns the no-op
:data:`NULL_TELEMETRY` unless a caller activated a real object.  The
no-op object makes instrumentation effectively free when telemetry is
off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import TelemetryError

#: bump when the JSONL record shape changes incompatibly
SCHEMA_VERSION = 1

#: allowed values of :attr:`TelemetryEvent.kind`
EVENT_KINDS = ("enter", "exit", "counter", "meta")

FieldItems = Tuple[Tuple[str, Any], ...]


def _clean_fields(fields: Dict[str, Any]) -> FieldItems:
    """Sort fields and coerce non-JSON-scalar values to ``repr``."""
    items: List[Tuple[str, Any]] = []
    for key in sorted(fields):
        value = fields[key]
        if not isinstance(value, (str, int, float, bool)) and value is not None:
            value = repr(value)
        items.append((key, value))
    return tuple(items)


@dataclass(frozen=True)
class TelemetryEvent:
    """One telemetry record (the in-memory twin of a JSONL line)."""

    stream: str
    seq: int
    kind: str  # one of EVENT_KINDS
    name: str
    depth: int  # span-stack depth at emit time
    dur_s: Optional[float]  # wall duration; ``exit`` events only
    fields: FieldItems = ()

    @property
    def sort_key(self) -> Tuple[str, int]:
        return (self.stream, self.seq)


class Span:
    """A live span handed to the ``with`` block.

    ``note(**fields)`` attaches result fields (they land on the ``exit``
    event only); ``seconds`` holds the monotonic duration once the span
    has exited, and :meth:`elapsed` reads the running clock before that.
    """

    __slots__ = ("name", "fields", "notes", "seconds", "_start", "_clock")

    def __init__(
        self, name: str, fields: FieldItems, clock: Callable[[], float]
    ) -> None:
        self.name = name
        self.fields = fields
        self.notes: Dict[str, Any] = {}
        self.seconds: float = 0.0
        self._clock = clock
        self._start = clock()

    def note(self, **fields: Any) -> None:
        self.notes.update(fields)

    def elapsed(self) -> float:
        return self._clock() - self._start


class Telemetry:
    """Named counters, span timers and a bounded in-memory event buffer.

    ``max_events`` bounds the buffer: once full, further span/counter
    events are dropped (counted, and reported in a ``telemetry.dropped``
    meta event at :meth:`collect` time) rather than growing without
    bound inside a long simulation.  ``max_depth`` bounds the span
    stack; exceeding it is a programming error and raises.  ``clock``
    is injectable so tests can pin durations.
    """

    def __init__(
        self,
        stream: str = "main",
        *,
        enabled: bool = True,
        max_events: int = 100_000,
        max_depth: int = 64,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.stream = stream
        self.enabled = enabled
        self.max_events = max_events
        self.max_depth = max_depth
        self._clock = clock
        self._events: List[TelemetryEvent] = []
        self._absorbed: List[TelemetryEvent] = []
        self._counters: Dict[Tuple[str, FieldItems], float] = {}
        self._stack: List[Span] = []
        self._seq = 0
        self._dropped = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _emit(
        self, kind: str, name: str, dur_s: Optional[float], fields: FieldItems
    ) -> None:
        if len(self._events) >= self.max_events:
            self._dropped += 1
            return
        self._events.append(
            TelemetryEvent(
                stream=self.stream,
                seq=self._seq,
                kind=kind,
                name=name,
                depth=len(self._stack),
                dur_s=dur_s,
                fields=fields,
            )
        )
        self._seq += 1

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[Span]:
        """Time a region; events nest with the enclosing ``with`` blocks."""
        span = Span(name, _clean_fields(fields), self._clock)
        if not self.enabled:
            yield span
            span.seconds = span.elapsed()
            return
        if len(self._stack) >= self.max_depth:
            raise TelemetryError(
                f"span stack exceeded max_depth={self.max_depth} "
                f"entering {name!r}"
            )
        self._emit("enter", name, None, span.fields)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.seconds = span.elapsed()
            popped = self._stack.pop()
            if popped is not span:  # pragma: no cover - invariant
                raise TelemetryError("span stack corrupted")
            exit_fields = span.fields
            if span.notes:
                merged = dict(span.fields)
                merged.update(span.notes)
                exit_fields = _clean_fields(merged)
            self._emit("exit", name, span.seconds, exit_fields)

    def count(self, name: str, value: float = 1, **fields: Any) -> None:
        """Add ``value`` to the counter named ``name`` with ``fields``."""
        if not self.enabled:
            return
        key = (name, _clean_fields(fields))
        self._counters[key] = self._counters.get(key, 0) + value

    def absorb(self, events: Sequence[TelemetryEvent]) -> None:
        """Adopt events produced by another stream (a batch worker)."""
        if not self.enabled:
            return
        self._absorbed.extend(events)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        return self._dropped

    def collect(self) -> List[TelemetryEvent]:
        """Snapshot every event recorded so far (idempotent).

        Own span events come first in emit order, then one ``counter``
        event per counter (sorted by name and fields — a deterministic
        flush order), then a ``telemetry.dropped`` meta event when the
        buffer overflowed, then any absorbed foreign-stream events.
        The result is *not* sorted across streams; the sink does that.
        """
        out = list(self._events)
        seq = self._seq
        for (name, fields), value in sorted(self._counters.items()):
            out.append(
                TelemetryEvent(
                    stream=self.stream,
                    seq=seq,
                    kind="counter",
                    name=name,
                    depth=len(self._stack),
                    dur_s=None,
                    fields=fields + (("value", value),),
                )
            )
            seq += 1
        if self._dropped:
            out.append(
                TelemetryEvent(
                    stream=self.stream,
                    seq=seq,
                    kind="meta",
                    name="telemetry.dropped",
                    depth=len(self._stack),
                    dur_s=None,
                    fields=(("dropped", self._dropped),),
                )
            )
        out.extend(self._absorbed)
        return out


#: the shared no-op sink ``current()`` falls back to
NULL_TELEMETRY = Telemetry(stream="null", enabled=False)

_CURRENT: ContextVar[Telemetry] = ContextVar("repro_obs_current")


def current() -> Telemetry:
    """The ambient telemetry of this context (no-op when none active)."""
    return _CURRENT.get(NULL_TELEMETRY)


@contextmanager
def using(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Make ``telemetry`` the ambient sink for the ``with`` block."""
    token = _CURRENT.set(telemetry)
    try:
        yield telemetry
    finally:
        _CURRENT.reset(token)
