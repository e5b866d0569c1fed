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
  torn-tail tolerance (the ``composite-tx watch`` transport);
- :mod:`repro.stream.supervisor` runs the watch loop under the batch
  layer's supervision contract: seeded-backoff restarts that re-read
  the log from offset 0, and poison-event quarantine.

The checker's state at any byte offset is a pure function of the log
prefix, so recovery is always a re-read: a killed watch is resumed by
re-watching the log with ``--from-offset`` set to the last offset it
announced.

See ``docs/STREAMING.md`` for semantics, the equivalence argument,
and the recovery contract; ``docs/RESILIENCE.md`` for how
supervision composes with the rest of the resilience toolkit.
"""

from repro.stream.assembler import CommitDelta, StreamAssembler
from repro.stream.checker import (
    IncrementalChecker,
    StreamResult,
    StreamVerdict,
    WATCH_STREAM,
)
from repro.stream.supervisor import (
    PoisonEvent,
    StreamSupervisor,
    SupervisedWatch,
)
from repro.stream.tail import EventLogTail, TailedEvent

__all__ = [
    "CommitDelta",
    "EventLogTail",
    "IncrementalChecker",
    "PoisonEvent",
    "StreamAssembler",
    "StreamResult",
    "StreamSupervisor",
    "StreamVerdict",
    "SupervisedWatch",
    "TailedEvent",
    "WATCH_STREAM",
]
