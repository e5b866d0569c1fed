"""The online Comp-C checker: live verdicts over an event stream.

:class:`IncrementalChecker` ingests :mod:`repro.io.eventlog` events one
at a time and keeps a *live verdict*: ACCEPTED-so-far, flipping to
REJECTED — with the same :class:`~repro.core.front.ReductionFailure`
witness the batch engine produces — the moment a committed prefix
closes a cycle.

A commit costs the commit, not the log.  Declarations only ever
activate (see :mod:`repro.stream.assembler`), and every front order is
monotone in them: seeds (Def. 10.1), the Def.-10.2/10.3 pull-up and
closure only add pairs, and Def. 16 step 6 only adds input pairs.  So
the checker extends the previous commit's state instead of rebuilding
it, layer by layer:

* assembly goes through the assembler's persistent
  :class:`~repro.core.builder.SystemBuilder`
  (:meth:`~repro.stream.assembler.StreamAssembler.build_incremental`),
  which feeds it only the declarations the commit activated; the
  builder keeps every :class:`~repro.core.schedule.Schedule` they did
  not touch and grows the others and the system from the last build;
* level 0: the closed leaf observed order is maintained with
  :meth:`~repro.core.orders.Relation.add_closed` over the seed pairs
  of the schedules the builder grew or constructed anew and injected
  via ``run(level0=...)``, whose level-0 consistency check finds any
  cycle it closes;
* levels ``i >= 1``: ``run(level0=..., base=previous)`` extends the
  previous commit's closed fronts (Defs. 10, 13, 16)::

      observed(k+1) = closure(observed(k) ∪ pull(gained) ∪ seeds)
      input(k+1)    = closure(input(k) ∪ new input pairs)

  where *gained* are the row bits the level below gained since commit
  ``k``.  Isolation (Def. 16 step 1) and CC (Def. 13) are still decided
  on the whole front.

The extension holds only while every old pair keeps its Def.-10 fate,
so a commit runs the plain step (no base) when it is the first; when a
schedule changes level or a root stops being one (nodes would group
elsewhere); when it activates a conflict between two operations
committed before it (a Def.-10.2 gate opens on old pairs); when the
assembler rebuilt its builder; and on temporal-derive logs (arrivals
splice into earlier sequences).

The checker's state after any prefix is a pure function of that
prefix, so it carries no resume state of its own: a restarted watch
re-reads the log from offset 0 and reaches the uninterrupted run's
verdict, witness, and canonical telemetry byte for byte.

Rejection is *sticky*: closed relations only grow, so once a committed
prefix closes a cycle every extension keeps it, and later commits are
counted (``stream.skip_after_reject``) but not re-checked.

:meth:`IncrementalChecker.finalize` is the certify-on-close step: it
re-runs the plain batch :func:`~repro.core.reduction.reduce_to_roots`
over the assembled final system under the *ambient* telemetry and
hard-asserts that the live status agrees — which makes a finished
stream's verdict and canonical telemetry byte-identical to the batch
path, the equivalence the streaming tests pin.  The per-event work is
recorded on the checker's own ``"watch"`` stream, which
:func:`~repro.obs.sink.canonical_dumps` drops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.core.front import Front, ReductionFailure
from repro.core.observed import ObservedOrderOptions, schedule_seed_pairs
from repro.core.orders import Relation
from repro.core.reduction import (
    ReductionEngine,
    ReductionResult,
    reduce_to_roots,
)
from repro.core.system import CompositeSystem
from repro.exceptions import StreamError
from repro.io.eventlog import Event
from repro.io.recorded import RecordedExecution
from repro.obs.telemetry import Span, Telemetry
from repro.stream.assembler import StreamAssembler

__all__ = [
    "IncrementalChecker",
    "StreamResult",
    "StreamVerdict",
    "WATCH_STREAM",
]

#: Telemetry stream for per-event/per-commit streaming work.  Listed in
#: :data:`repro.obs.sink.ENV_STREAMS`, so canonical dumps drop it — the
#: main stream stays byte-identical to a batch ``check``.
WATCH_STREAM = "watch"

ACCEPTED = "ACCEPTED"
REJECTED = "REJECTED"


@dataclass(frozen=True)
class StreamVerdict:
    """The live verdict after some prefix of the stream.

    ``status`` is ACCEPTED while every committed prefix reduces to the
    roots, REJECTED from the first commit whose reduction fails on.
    ``failure`` carries the live witness; because the maintained
    observed order interns elements in *commit* order (the batch path
    interns in declaration order), its cycle may name the same cycle
    starting from a different element than the batch witness — the
    certified batch witness is :attr:`StreamResult.reduction`'s.
    """

    status: str
    events: int
    commits: int
    failure: Optional[ReductionFailure] = None
    rejected_at_event: Optional[int] = None
    rejected_at_commit: Optional[int] = None

    @property
    def rejected(self) -> bool:
        return self.status == REJECTED

    def describe(self) -> str:
        head = (
            f"{self.status} after {self.events} events "
            f"({self.commits} commits)"
        )
        if self.failure is None:
            return head
        return (
            f"{head}; rejected at event {self.rejected_at_event} "
            f"(commit {self.rejected_at_commit}): "
            f"{self.failure.describe()}"
        )


@dataclass
class StreamResult:
    """What :meth:`IncrementalChecker.finalize` certifies.

    ``reduction`` is the plain batch result over the assembled final
    system — the canonical verdict, witness and serial order;
    ``verdict`` is the live stream verdict whose status is hard-asserted
    to agree.  ``recorded`` is the reassembled execution (``None`` when
    the stream committed nothing).
    """

    verdict: StreamVerdict
    reduction: Optional[ReductionResult]
    recorded: Optional[RecordedExecution]


class IncrementalChecker:
    """Ingest events, keep a live verdict (see module docstring)."""

    def __init__(
        self,
        options: ObservedOrderOptions = ObservedOrderOptions(),
        *,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.options = options
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(stream=WATCH_STREAM)
        )
        self.assembler = StreamAssembler()
        #: the maintained, transitively closed level-0 observed order
        self._observed0 = Relation()
        self._known_leaves: Set[str] = set()
        self._seeded: Set[Tuple[str, str]] = set()
        self._events = 0
        self._failure: Optional[ReductionFailure] = None
        self._rejected_at_event: Optional[int] = None
        self._rejected_at_commit: Optional[int] = None
        #: the most recent live reduction result (one per commit)
        self.last_result: Optional[ReductionResult] = None
        # Per-event bookkeeping is plain dict increments; the counters
        # flush to telemetry in one batch (identical totals — counters
        # aggregate by name and fields) so the amortized per-event cost
        # stays O(1) dictionary work.
        self._kind_counts: Dict[str, int] = {}
        self._skips = 0
        self._verdict_cache: Optional[StreamVerdict] = None

    # ------------------------------------------------------------------
    @property
    def ended(self) -> bool:
        return self.assembler.ended

    def verdict(self) -> StreamVerdict:
        return StreamVerdict(
            status=ACCEPTED if self._failure is None else REJECTED,
            events=self._events,
            commits=len(self.assembler.committed_roots),
            failure=self._failure,
            rejected_at_event=self._rejected_at_event,
            rejected_at_commit=self._rejected_at_commit,
        )

    # ------------------------------------------------------------------
    def ingest(self, event: Event) -> StreamVerdict:
        """Consume one event; returns the (possibly flipped) verdict.

        The returned verdict's *status* is always current (it can only
        change at a commit, which rebuilds it); its event/commit counts
        are as of the most recent commit — call :meth:`verdict` for
        exact counts.  Non-commit events cost O(1) dictionary work.
        """
        self._events += 1
        self._kind_counts[event.kind] = (
            self._kind_counts.get(event.kind, 0) + 1
        )
        delta = self.assembler.apply(event)
        if delta is not None:
            if self._failure is not None:
                # Sticky rejection: closed relations only grow, so the
                # witnessed cycle survives every later commit.
                self._skips += 1
            else:
                with self.telemetry.span(
                    "stream.ingest", root=delta.root, commit=delta.ordinal
                ) as span:
                    self._recheck(span)
        cache = self._verdict_cache
        if delta is not None or cache is None:
            cache = self.verdict()
            self._verdict_cache = cache
        return cache

    def ingest_all(self, events: List[Event]) -> StreamVerdict:
        for event in events:
            self.ingest(event)
        return self.verdict()

    # ------------------------------------------------------------------
    def _recheck(self, span: Span) -> None:
        assembler = self.assembler
        rebuilds = assembler.rebuilds
        recorded = assembler.build_incremental()
        assert recorded is not None  # a commit just landed
        system = recorded.system
        previous = self.last_result
        base = previous
        if (
            previous is None
            or assembler.rebuilds != rebuilds
            or assembler.late_conflict
            or assembler.derive == "temporal"
            or not _grew_from(previous.system, system)
        ):
            base = None
        new_leaves = [
            leaf for leaf in system.leaves if leaf not in self._known_leaves
        ]
        self._known_leaves.update(new_leaves)
        # Only a schedule the builder grew or constructed anew can
        # contribute a seed pair the maintained order lacks.
        kept: Mapping[str, object] = (
            {} if previous is None else previous.system.schedules
        )
        seed_delta: List[Tuple[str, str]] = []
        for sname, schedule in system.schedules.items():
            if kept.get(sname) is schedule:
                continue
            members = [op for op in schedule.operations if system.is_leaf(op)]
            for pair in schedule_seed_pairs(
                system, sname, members, self.options
            ):
                if pair not in self._seeded:
                    self._seeded.add(pair)
                    seed_delta.append(pair)
        touched = self._observed0.add_closed(seed_delta, elements=new_leaves)
        front0 = Front.level0(
            tuple(self._observed0.elements), self._observed0.copy()
        )
        engine = ReductionEngine(
            system, self.options, telemetry=self.telemetry
        )
        result = engine.run(level0=front0, base=base)
        self.last_result = result
        span.note(
            new_leaves=len(new_leaves),
            seed_delta=len(seed_delta),
            closure_rows=touched,
            extended=base is not None,
        )
        if result.failure is not None:
            self._failure = result.failure
            self._rejected_at_event = self._events
            self._rejected_at_commit = len(self.assembler.committed_roots)

    # ------------------------------------------------------------------
    def _flush_counters(self) -> None:
        """Push the batched per-event counters into the telemetry
        stream (``stream.event`` per kind, ``stream.skip_after_reject``)
        — totals identical to counting one by one, paid once."""
        for kind, count in self._kind_counts.items():
            self.telemetry.count("stream.event", count, kind=kind)
        self._kind_counts.clear()
        if self._skips:
            self.telemetry.count("stream.skip_after_reject", self._skips)
            self._skips = 0

    # ------------------------------------------------------------------
    def finalize(self) -> StreamResult:
        """Certify the finished stream against the batch path.

        Runs the plain batch reduction over the assembled final system
        under the *ambient* telemetry — a caller that wraps this in the
        same spans ``check`` uses gets canonical telemetry
        byte-identical to a batch run — and hard-asserts the live
        status agrees (live REJECTED stays rejected by monotonicity;
        live ACCEPTED covered the full committed system at its last
        commit).  A disagreement falsifies the streaming invariant and
        raises :class:`~repro.exceptions.StreamError`.
        """
        self._flush_counters()
        recorded = self.assembler.build()
        live = self.verdict()
        if recorded is None:
            return StreamResult(verdict=live, reduction=None, recorded=None)
        reduction = reduce_to_roots(recorded.system, self.options)
        if (reduction.failure is not None) != live.rejected:
            raise StreamError(
                "streaming/batch verdict disagreement: live verdict is "
                f"{live.status} but the batch reduction "
                f"{'rejected' if reduction.failure else 'accepted'} the "
                "assembled system"
            )
        return StreamResult(
            verdict=live, reduction=reduction, recorded=recorded
        )


def _grew_from(previous: CompositeSystem, system: CompositeSystem) -> bool:
    """Whether every schedule of ``previous`` keeps its level in
    ``system`` and every root stays a root: then no node of a front of
    ``previous`` is grouped at another level or into another parent, so
    each front of ``system`` extends the one of ``previous``."""
    levels = system.levels
    return all(
        levels.get(sname) == level for sname, level in previous.levels.items()
    ) and set(system.roots).issuperset(previous.roots)
