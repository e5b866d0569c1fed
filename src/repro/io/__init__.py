"""Persistence: JSON text format for composite executions, reduction
traces, and streaming event logs."""

from repro.io.eventlog import (
    EVENTLOG_VERSION,
    Event,
    dumps_event,
    dumps_event_log,
    event_from_dict,
    event_to_dict,
    events_from_recorded,
    load_event_log,
    loads_event_log,
    parse_event_line,
    save_event_log,
)
from repro.io.recorded import RecordedExecution
from repro.io.text_format import dumps, load, loads, save, system_to_spec
from repro.io.trace import (
    ReductionTrace,
    dumps_trace,
    load_trace,
    loads_trace,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)

__all__ = [
    "dumps",
    "load",
    "loads",
    "save",
    "system_to_spec",
    "RecordedExecution",
    "EVENTLOG_VERSION",
    "Event",
    "dumps_event",
    "dumps_event_log",
    "event_from_dict",
    "event_to_dict",
    "events_from_recorded",
    "load_event_log",
    "loads_event_log",
    "parse_event_line",
    "save_event_log",
    "ReductionTrace",
    "dumps_trace",
    "load_trace",
    "loads_trace",
    "save_trace",
    "trace_from_dict",
    "trace_to_dict",
]
