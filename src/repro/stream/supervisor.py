"""Self-healing watch loop: restart by re-reading, quarantine poison.

:class:`StreamSupervisor` runs the ``composite-tx watch`` loop under
the same supervision contract the batch layer gives grid tasks
(:mod:`repro.analysis.supervise`): an attempt that dies — a malformed
line, a protocol violation, a log truncated underneath the tailer, a
hang caught by the :func:`~repro.analysis.supervise.time_limit` alarm
— is restarted after a seeded deterministic backoff
(:func:`repro.simulator.retry.make_retry_policy`; the default is the
chaos layer's seeded full-jitter exponential) with a fresh checker
that re-reads the log from offset 0.  The checker's state at any
offset is a pure function of the log prefix (the Def. 16 reduction
over the roots committed so far), so a re-read recovers it exactly —
there is no saved state to verify or to distrust, and a log rotated or
rewritten underneath the watch is simply read as it now is.

Failures are attributed to the byte offset just past the line being
consumed when the attempt died.  Deterministic failures therefore
land on the *same* offset every restart, and after ``quarantine_after``
failures there the supervisor stops retrying and reports a
:class:`PoisonEvent` (``CTX504``) naming the offset, the line, and the
final error — the streaming analogue of the batch supervisor's
:class:`~repro.analysis.supervise.QuarantinedTask`.  A global
``max_restarts`` cap bounds pathological non-repeating failures; past
it the last error propagates.

Every failure emits a ``stream.supervisor.failure`` meta record (the
attributed offset, the error type, and its CTX code when it carries a
diagnostic) and every restart a ``stream.recover`` meta record (the
attempt, and ``reread``: the offset the failed attempt died at, which
the restart reads up to again) on the ``"watch"`` telemetry stream —
dropped from canonical dumps, surfaced by ``composite-tx profile`` as
the stream-recovery section — so "how much replay did crashes cost" is
a measured quantity.

The loop itself is injectable (``sleep``, ``on_idle``) and
single-threaded, which is what lets the chaos harness
(``composite-tx chaos-stream``) interleave log faults with polls
deterministically.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from repro.analysis.supervise import time_limit
from repro.exceptions import CompositeTxError
from repro.lint.diagnostics import Diagnostic, Location, Severity
from repro.obs.telemetry import Telemetry
from repro.simulator.retry import RetryPolicy, make_retry_policy
from repro.stream.checker import (
    WATCH_STREAM,
    IncrementalChecker,
    StreamResult,
)
from repro.stream.tail import EventLogTail

__all__ = ["PoisonEvent", "StreamSupervisor", "SupervisedWatch"]


@dataclass(frozen=True)
class PoisonEvent:
    """The offset the watcher kept dying at, and what killed it.

    ``offset`` is the consumed-byte offset the failures were attributed
    to (just past the poison line), ``line`` the 1-based log line of
    the next unconsumed event at that point, ``failures`` how many
    attempts died there, and ``error`` the final error text.  Carries
    the ``CTX504`` diagnostic for stable matching.
    """

    offset: int
    line: int
    failures: int
    error: str
    diagnostic: Diagnostic

    def describe(self) -> str:
        return (
            f"poison event quarantined at offset {self.offset} "
            f"(log line {self.line}): {self.failures} failed attempts; "
            f"last error: {self.error}"
        )


@dataclass
class SupervisedWatch:
    """What a supervised watch run produced.

    Exactly one of ``result`` (the certified
    :class:`~repro.stream.checker.StreamResult`) and ``poison`` is
    set.  ``restarts`` counts restarts actually paid (attempts - 1).
    """

    result: Optional[StreamResult]
    poison: Optional[PoisonEvent]
    attempts: int

    @property
    def restarts(self) -> int:
        return self.attempts - 1

    @property
    def quarantined(self) -> bool:
        return self.poison is not None


class StreamSupervisor:
    """Run the watch loop with restart-by-re-read supervision (see
    module docstring)."""

    def __init__(
        self,
        log_path: Union[str, "os.PathLike[str]"],
        *,
        follow: bool = True,
        interval: float = 0.05,
        quarantine_after: int = 3,
        max_restarts: int = 10,
        policy: Union[str, RetryPolicy] = "exponential",
        backoff_base: float = 0.01,
        seed: int = 0,
        attempt_timeout: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
        on_idle: Optional[Callable[[], None]] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        self.log_path = str(log_path)
        self.follow = follow
        self.interval = interval
        self.quarantine_after = quarantine_after
        self.max_restarts = max_restarts
        self.policy = make_retry_policy(policy, base=backoff_base, seed=seed)
        self._rng = random.Random(seed)
        self.attempt_timeout = attempt_timeout
        self.sleep = sleep
        self.on_idle = on_idle
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(stream=WATCH_STREAM)
        )
        #: failure counts keyed by attributed offset
        self._failures: Dict[int, int] = {}
        #: the last attempt's checker (the certified one on success)
        self.checker: Optional[IncrementalChecker] = None

    # ------------------------------------------------------------------
    def _watch(
        self,
        checker: IncrementalChecker,
        tail: EventLogTail,
        position: Dict[str, int],
    ) -> StreamResult:
        """One watch attempt: poll, ingest, finalize."""
        while True:
            events = tail.poll()
            for tailed in events:
                position["offset"] = tailed.offset
                position["line"] = tailed.line
                checker.ingest(tailed.event)
            if checker.ended:
                break
            if not events:
                if not self.follow:
                    break
                if self.on_idle is not None:
                    self.on_idle()
                self.sleep(self.interval)
        return checker.finalize()

    # ------------------------------------------------------------------
    def run(self) -> SupervisedWatch:
        """Watch to completion, restarting through failures.

        Returns the certified result, or the quarantined poison event
        after ``quarantine_after`` failures at one offset.  Raises the
        last attempt's error once ``max_restarts`` restarts are
        exhausted (failures that keep *moving* are environmental, not
        poison — supervision hands them back).
        """
        attempt = 0
        while True:
            attempt += 1
            checker = IncrementalChecker(telemetry=self.telemetry)
            tail = EventLogTail(self.log_path)
            self.checker = checker
            position = {"offset": 0, "line": 0}
            try:
                with time_limit(self.attempt_timeout):
                    result = self._watch(checker, tail, position)
            except CompositeTxError as err:
                offset = int(
                    getattr(err, "offset", None) or position["offset"]
                )
                count = self._failures.get(offset, 0) + 1
                self._failures[offset] = count
                diagnostic = getattr(err, "diagnostic", None)
                self.telemetry.meta(
                    "stream.supervisor.failure",
                    attempt=attempt,
                    offset=offset,
                    failures=count,
                    error=type(err).__name__,
                    code=getattr(diagnostic, "code", None),
                )
                if count >= self.quarantine_after:
                    line = int(
                        getattr(err, "line", None)
                        or position["line"] + 1
                    )
                    poison = PoisonEvent(
                        offset=offset,
                        line=line,
                        failures=count,
                        error=str(err),
                        diagnostic=Diagnostic(
                            code="CTX504",
                            severity=Severity.ERROR,
                            location=Location(file=self.log_path),
                            message=(
                                f"{count} attempts died at offset "
                                f"{offset} (log line {line}): {err}"
                            ),
                            fix_hint=(
                                "repair or excise the poison line, "
                                "then watch the log again"
                            ),
                        ),
                    )
                    self.telemetry.meta(
                        "stream.quarantine",
                        offset=offset,
                        line=line,
                        failures=count,
                    )
                    return SupervisedWatch(
                        result=None, poison=poison, attempts=attempt
                    )
                if attempt > self.max_restarts:
                    raise
                self.telemetry.count("stream.supervisor.restart")
                self.telemetry.meta(
                    "stream.recover",
                    attempt=attempt + 1,
                    reread=offset,
                )
                self.sleep(self.policy.delay(attempt, self._rng))
            else:
                return SupervisedWatch(
                    result=result, poison=None, attempts=attempt
                )
