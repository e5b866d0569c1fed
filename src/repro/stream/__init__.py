"""Online (streaming) Comp-C checking.

This package turns the batch Def.-16 reduction into a service that
watches an execution *as it happens*:

- :mod:`repro.stream.assembler` folds the typed event log of
  :mod:`repro.io.eventlog` into the committed composite system after
  every commit — incrementally, through a persistent builder that
  pays per commit for the declarations the commit activated;
- :mod:`repro.stream.checker` maintains the level-0 observed order
  incrementally across commits and re-runs the reduction with the
  maintained front injected, emitting a live verdict that flips to
  REJECTED the moment a cycle closes;
- :mod:`repro.stream.tail` tails a growing JSONL event log with
  torn-tail tolerance (the ``composite-tx watch`` transport).

The checker's state at any byte offset is a pure function of the log
prefix, so recovery is always a re-read: a killed watch, or one that
stopped at a malformed line or a protocol violation (its error names
the ``FILE:LINE``), is resumed by re-watching the log — repaired, if
need be — with ``--from-offset`` set to the last offset it announced.
A failure on the same bytes fails again on every re-read, so there is
no in-process restart to attempt.

See ``docs/STREAMING.md`` for semantics, the equivalence argument,
and the recovery contract.
"""

from repro.stream.assembler import CommitDelta, StreamAssembler
from repro.stream.checker import (
    IncrementalChecker,
    StreamResult,
    StreamVerdict,
    WATCH_STREAM,
)
from repro.stream.tail import EventLogTail, TailedEvent

__all__ = [
    "CommitDelta",
    "EventLogTail",
    "IncrementalChecker",
    "StreamAssembler",
    "StreamResult",
    "StreamVerdict",
    "TailedEvent",
    "WATCH_STREAM",
]
