"""Log-chaos harness: torture the watch loop, demand byte identity.

``composite-tx chaos-stream`` drives a supervised watch
(:mod:`repro.stream.supervisor`) over an event log while a misbehaving
"writer" injects the faults a real log pipeline produces, then
**hard-asserts** that the certified final verdict, witness narrative,
and canonical telemetry are byte-identical to a plain batch
``composite-tx check`` of the same execution.  Scenarios:

``kill``
    the watcher dies mid-follow (its checker abandoned), the writer
    keeps appending, and the supervised restart re-reads the log from
    offset 0.
``torn``
    a batch lands in two ``write`` calls, splitting a record down the
    middle; the tailer waits the torn tail out.
``corrupt``
    appended bytes are garbage; every restart dies on the same line
    (``ParseError``), the poison offset is quarantined (``CTX504``),
    the writer repairs the bytes, and a fresh supervised run re-reads
    the repaired log.
``duplicate``
    an append batch is written twice; the duplicated commit is a
    deterministic protocol violation, quarantined and repaired the
    same way.
``reorder``
    two declarations land transposed — *valid* protocol, wrong bytes.
    The watcher consumes the diverged prefix and dies; the writer
    rewrites the correct order, and the restart re-reads the log as it
    now is, so nothing of the diverged prefix survives.
``rotate``
    the log is copytruncate-rotated mid-follow and loses its tail: the
    tailer catches the size regression (``CTX502``) and the restart
    re-reads from offset 0 while the writer backfills.

Faults are injected from the supervisor's single-threaded ``on_idle``
hook with an injected no-op ``sleep``, so every interleaving is
deterministic; failed attempts record only watch-stream telemetry
(dropped from canonical dumps) and never reach ``finalize``, which is
why even a run with crashes, quarantines, and full re-reads ends with
the exact bytes of an undisturbed batch check.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.reduction import ReductionResult, reduce_to_roots
from repro.exceptions import StreamError
from repro.io.eventlog import Event, dumps_event, events_from_recorded
from repro.io.recorded import RecordedExecution
from repro.obs.sink import canonical_dumps, sort_events, to_record
from repro.obs.telemetry import Telemetry, TelemetryEvent, current, using
from repro.stream.checker import StreamResult
from repro.stream.supervisor import StreamSupervisor
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import stack_topology

__all__ = ["SCENARIOS", "ScenarioOutcome", "run_chaos_suite"]

SCENARIOS = ("kill", "torn", "corrupt", "duplicate", "reorder", "rotate")

#: (result, collected watch-stream telemetry, attempts, quarantines)
_ScenarioRun = Tuple[StreamResult, List[TelemetryEvent], int, int]


@dataclass
class ScenarioOutcome:
    """What one chaos scenario did and proved."""

    name: str
    attempts: int
    quarantines: int
    codes: List[str]
    status: str

    def describe(self) -> str:
        codes = ",".join(self.codes) or "-"
        return (
            f"{self.name:<10} {self.status:<8} "
            f"attempts={self.attempts} quarantines={self.quarantines} "
            f"codes={codes}"
        )


class _WatcherKilled(StreamError):
    """The in-process stand-in for SIGKILL: aborts one watch attempt,
    abandoning its checker (the subprocess variant lives in the tests
    and the CI smoke)."""


@dataclass
class _Feed:
    """The chaotic writer: appends one batch per idle callback.

    ``marks[i]`` is the file size immediately before batch ``i`` was
    appended — the repair crews truncate back to a mark, never to a
    guessed offset.  ``taint`` maps a batch index to a transform
    applied to the bytes as written (the batch list itself keeps the
    correct bytes, so repairs can re-write them verbatim).
    """

    path: str
    batches: List[bytes]
    index: int = 0
    marks: Dict[int, int] = field(default_factory=dict)
    taint: Dict[int, Callable[[bytes], bytes]] = field(default_factory=dict)

    def __call__(self) -> None:
        step = self.index
        if step >= len(self.batches):
            return
        data = self.batches[step]
        transform = self.taint.get(step)
        if transform is not None:
            data = transform(data)
        self.marks[step] = self.size()
        with open(self.path, "ab") as handle:
            handle.write(data)
        self.index = step + 1

    def size(self) -> int:
        try:
            return os.path.getsize(self.path)
        except FileNotFoundError:
            return 0


def _batches(events: List[Event], batch_lines: int) -> List[bytes]:
    """Chunk the log's lines into append batches, forcing a batch
    boundary at the first commit so fault injection can target the
    batch that *starts* with a commit deterministically."""
    lines = [(dumps_event(e) + "\n").encode("utf-8") for e in events]
    first_commit = next(
        (i for i, e in enumerate(events) if e.kind == "commit"), len(lines)
    )
    cuts = sorted(
        {0, first_commit, len(lines)}
        | set(range(0, len(lines), batch_lines))
    )
    return [b"".join(lines[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b]


def _first_commit_batch(batches: List[bytes]) -> int:
    for i, batch in enumerate(batches):
        head = batch.split(b"\n", 1)[0]
        if b'"e":"commit"' in head:
            return i
    raise StreamError("chaos workload produced no commit batch")


def _records(telemetry: Telemetry) -> List[Dict[str, object]]:
    return [to_record(e) for e in sort_events(telemetry.collect())]


def _supervisor(log: str, feed: Callable[[], None]) -> StreamSupervisor:
    return StreamSupervisor(
        log,
        follow=True,
        interval=0.0,
        quarantine_after=2,
        max_restarts=50,
        backoff_base=0.0,
        seed=7,
        sleep=lambda _s: None,
        on_idle=feed,
    )


def _drive(
    log: str,
    feed: Callable[[], None],
    repairs: List[Callable[[], None]],
) -> _ScenarioRun:
    """Run supervised watches until one certifies, applying the next
    repair after each quarantine."""
    attempts = 0
    quarantines = 0
    telemetry: List[TelemetryEvent] = []
    for round_index in range(len(repairs) + 1):
        supervisor = _supervisor(log, feed)
        outcome = supervisor.run()
        attempts += outcome.attempts
        telemetry.extend(supervisor.telemetry.collect())
        if outcome.result is not None:
            return outcome.result, telemetry, attempts, quarantines
        assert outcome.poison is not None
        quarantines += 1
        if round_index >= len(repairs):
            raise StreamError(
                "chaos scenario quarantined with no repair left: "
                + outcome.poison.describe()
            )
        repairs[round_index]()
    raise AssertionError("unreachable")


def _reference(recorded: RecordedExecution) -> Tuple[ReductionResult, str]:
    telemetry = Telemetry(stream="main")
    with using(telemetry):
        with telemetry.span("cli.command", command="check"):
            result = reduce_to_roots(recorded.system)
    return result, canonical_dumps(_records(telemetry))


def _certified(
    scenario: Callable[[], _ScenarioRun],
) -> Tuple[StreamResult, str, List[TelemetryEvent], int, int]:
    """Run a scenario the way ``cmd_watch`` runs: per-event work on
    the watch stream, certification under the ambient main stream,
    watch records absorbed at the end."""
    telemetry = Telemetry(stream="main")
    with using(telemetry):
        with telemetry.span("cli.command", command="watch"):
            result, watch_events, attempts, quarantines = scenario()
            current().absorb(watch_events)
    return (
        result,
        canonical_dumps(_records(telemetry)),
        watch_events,
        attempts,
        quarantines,
    )


def _codes(watch_events: List[TelemetryEvent]) -> List[str]:
    """The CTX codes the supervised watches failed or quarantined with,
    from the watch-stream telemetry."""
    codes = set()
    for event in watch_events:
        if event.kind != "meta":
            continue
        if event.name == "stream.supervisor.failure":
            code = dict(event.fields).get("code")
            if code is not None:
                codes.add(str(code))
        elif event.name == "stream.quarantine":
            codes.add("CTX504")
    return sorted(codes)


# ----------------------------------------------------------------------
# the scenarios
# ----------------------------------------------------------------------
def _scenario(
    name: str, events: List[Event], batch_lines: int, workdir: str
) -> _ScenarioRun:
    log = os.path.join(workdir, f"{name}.jsonl")
    batches = _batches(events, batch_lines)
    target = _first_commit_batch(batches)
    half = max(1, len(batches) // 2)

    if name == "kill":
        feed = _Feed(log, batches)
        state = {"killed": False}

        def _killing_feed() -> None:
            if feed.index == half and not state["killed"]:
                state["killed"] = True
                raise _WatcherKilled(f"watcher killed after {half} batches")
            feed()

        return _drive(log, _killing_feed, repairs=[])

    if name == "torn":
        feed = _Feed(log, batches)
        split_at = min(target + 1, len(batches) - 1)
        whole = batches[split_at]
        head, rest = whole[: len(whole) // 2], whole[len(whole) // 2 :]
        state = {"phase": 0}

        def _torn_feed() -> None:
            if feed.index == split_at:
                if state["phase"] == 0:
                    # first half of a record lands; the newline is
                    # still in flight
                    with open(log, "ab") as handle:
                        handle.write(head)
                    state["phase"] = 1
                    return
                with open(log, "ab") as handle:
                    handle.write(rest)
                feed.index = split_at + 1
                return
            feed()

        return _drive(log, _torn_feed, repairs=[])

    if name == "corrupt":
        feed = _Feed(log, batches)
        junk = b"%<not a json line>%"
        feed.taint[target] = lambda data: junk + data[len(junk):]

        def _repair_corrupt() -> None:
            with open(log, "r+b") as handle:
                handle.truncate(feed.marks[target])
                handle.seek(0, os.SEEK_END)
                handle.write(batches[target])

        return _drive(log, feed, repairs=[_repair_corrupt])

    if name == "duplicate":
        feed = _Feed(log, batches)
        feed.taint[target] = lambda data: data + data

        def _repair_duplicate() -> None:
            with open(log, "r+b") as handle:
                handle.truncate(
                    feed.marks[target] + len(batches[target])
                )

        return _drive(log, feed, repairs=[_repair_duplicate])

    if name == "reorder":
        # two adjacent declaration lines transposed in the first
        # batch: protocol-valid, byte-diverged.  The watcher consumes
        # the lie, then dies while the writer rewrites the prefix.
        swapped = list(batches)
        lines = swapped[0].split(b"\n")
        if len(lines) < 4:
            raise StreamError(
                "chaos workload too small to transpose declarations"
            )
        lines[1], lines[2] = lines[2], lines[1]
        swapped[0] = b"\n".join(lines)
        feed = _Feed(log, swapped)

        def _reordering_feed() -> None:
            if feed.index == half and feed.batches is swapped:
                # the writer notices and rewrites the whole prefix
                # correctly; the restart re-reads it as it now is
                with open(log, "wb") as handle:
                    handle.write(b"".join(batches[:half]))
                feed.batches = batches
                raise _WatcherKilled(
                    f"watcher killed after {half} diverged batches"
                )
            feed()

        return _drive(log, _reordering_feed, repairs=[])

    if name == "rotate":
        feed = _Feed(log, batches)
        rotate_at = min(target + 1, len(batches) - 1)
        keep = max(1, rotate_at // 2)
        state = {"rotated": False}

        def _rotating_feed() -> None:
            if feed.index == rotate_at and not state["rotated"]:
                # copytruncate rotation that loses the tail: the file
                # restarts with only a prefix of its history
                with open(log, "wb") as handle:
                    handle.write(b"".join(batches[:keep]))
                feed.index = keep
                state["rotated"] = True
                return
            feed()

        return _drive(log, _rotating_feed, repairs=[])

    raise StreamError(f"unknown chaos scenario {name!r}")


# ----------------------------------------------------------------------
def run_chaos_suite(
    *,
    seed: int = 3,
    roots: int = 4,
    batch_lines: int = 40,
    scenarios: Optional[List[str]] = None,
) -> List[ScenarioOutcome]:
    """Run the scenario suite, hard-asserting byte identity.

    Raises :class:`~repro.exceptions.StreamError` the moment any
    scenario's certified verdict, witness narrative, or canonical
    telemetry differs by one byte from the batch reference.
    """
    spec = stack_topology(3)
    config = WorkloadConfig(
        seed=seed, roots=roots, conflict_probability=0.2
    )
    recorded = generate(spec, config)
    events = events_from_recorded(recorded)
    reference, reference_canonical = _reference(recorded)
    reference_narrative = reference.narrative()

    chosen = list(scenarios) if scenarios else list(SCENARIOS)
    outcomes: List[ScenarioOutcome] = []
    for name in chosen:
        if name not in SCENARIOS:
            raise StreamError(
                f"unknown chaos scenario {name!r}; "
                f"choose from {', '.join(SCENARIOS)}"
            )
        with tempfile.TemporaryDirectory(prefix="chaos-stream-") as workdir:
            result, canonical, watch_events, attempts, quarantines = (
                _certified(
                    lambda: _scenario(name, events, batch_lines, workdir)
                )
            )
        assert result.reduction is not None
        if result.reduction.narrative() != reference_narrative:
            raise StreamError(
                f"chaos scenario {name!r}: witness narrative diverged "
                "from the batch check"
            )
        if (result.reduction.failure is not None) != (
            reference.failure is not None
        ):
            raise StreamError(
                f"chaos scenario {name!r}: verdict diverged from the "
                "batch check"
            )
        if canonical != reference_canonical:
            raise StreamError(
                f"chaos scenario {name!r}: canonical telemetry diverged "
                "from the batch check"
            )
        outcomes.append(
            ScenarioOutcome(
                name=name,
                attempts=attempts,
                quarantines=quarantines,
                codes=_codes(watch_events),
                status=(
                    "REJECTED"
                    if result.reduction.failure is not None
                    else "ACCEPTED"
                ),
            )
        )
    return outcomes
