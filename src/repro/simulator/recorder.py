"""Recording simulated executions as composite systems.

The recorder is the bridge from the simulator back to the theory: it
logs every granted access and every delegated call of every transaction
attempt, keeps only the *committed* attempt of each root, and assembles
the result into the formal objects of Def. 3–4 so the Comp-C checker
(and every other criterion) can judge the protocols' output.

Conflicts are the read/write kind: two committed accesses of one
component conflict when they touch the same item and at least one
writes.  Transactions declare their program order as a weak
intra-transaction order (the program is a sequential data flow).

Assembly tries full Def.-3/Def.-4 validation first; a protocol that does
not respect propagated input orders (plain SGT or TO, by design) can
produce executions that are not valid *schedules* in the paper's sense —
those are flagged (``axiom_violation``) and assembled without validation
so the checker can still classify them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.builder import SystemBuilder
from repro.exceptions import ModelError, ScheduleAxiomError
from repro.io.recorded import RecordedExecution

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.io.eventlog import Event


@dataclass
class _OpRecord:
    component: str
    txn: str
    op: str
    time: float
    seq: int  # global tie-breaker: recording order
    item: Optional[str] = None  # None for call-ops
    mode: Optional[str] = None

    @property
    def sort_key(self) -> Tuple[float, int]:
        """The one temporal order of the recorder.

        Simulated clocks tie constantly (a scheduler granting a batch
        of accesses in one tick stamps them all with the same time), so
        every sort over records MUST fall back to ``seq`` — the global
        recording order — or assembly and recorded→event-log conversion
        would depend on list-sort incidentals and vary across runs.
        Keeping the key here, rather than inline at the sort sites, is
        what the tie-heavy regression test pins against.
        """
        return (self.time, self.seq)


@dataclass
class AssembledRun:
    """The finalized recording."""

    recorded: RecordedExecution
    axiom_violation: Optional[str]  # message, or None when fully valid
    committed_roots: Tuple[str, ...]


class ExecutionRecorder:
    """Collects per-attempt operation logs and assembles the survivors."""

    def __init__(self) -> None:
        self._ops: Dict[str, List[_OpRecord]] = {}  # root -> current attempt
        # txn -> list of (step, segment id)
        self._txn_steps: Dict[str, Dict[str, List[Tuple[str, int]]]] = {}
        self._txn_component: Dict[str, Dict[str, str]] = {}
        self._committed: Dict[str, List[_OpRecord]] = {}
        self._seq = 0
        self._committed_txns: Dict[str, Dict[str, List[Tuple[str, int]]]] = {}
        self._committed_comp: Dict[str, Dict[str, str]] = {}
        #: wasted-work accounting: attempts thrown away by aborts (any
        #: reason — protocol races, timeouts, injected faults) and the
        #: operations they had already performed.  Only *committed*
        #: attempts enter the assembled execution, so these counters are
        #: the recorder-side proof that aborted work leaves no trace.
        self.discarded_attempts = 0
        self.discarded_operations = 0

    # ------------------------------------------------------------------
    # per-attempt logging
    # ------------------------------------------------------------------
    def begin_attempt(self, root: str) -> None:
        """Reset the log for a new attempt of ``root``."""
        self._ops[root] = []
        self._txn_steps[root] = {}
        self._txn_component[root] = {}

    def begin_transaction(self, root: str, txn: str, component: str) -> None:
        self._txn_steps[root].setdefault(txn, [])
        self._txn_component[root][txn] = component

    def record_access(
        self,
        root: str,
        component: str,
        txn: str,
        op: str,
        item: str,
        mode: str,
        time: float,
        segment: Optional[int] = None,
    ) -> None:
        self._seq += 1
        self._ops[root].append(
            _OpRecord(component, txn, op, time, self._seq, item=item, mode=mode)
        )
        steps = self._txn_steps[root][txn]
        steps.append((op, len(steps) if segment is None else segment))

    def record_call(
        self,
        root: str,
        component: str,
        txn: str,
        child: str,
        time: float,
        segment: Optional[int] = None,
    ) -> None:
        self._seq += 1
        self._ops[root].append(_OpRecord(component, txn, child, time, self._seq))
        steps = self._txn_steps[root][txn]
        steps.append((child, len(steps) if segment is None else segment))

    def commit_root(self, root: str) -> None:
        self._committed[root] = self._ops.pop(root)
        self._committed_txns[root] = self._txn_steps.pop(root)
        self._committed_comp[root] = self._txn_component.pop(root)

    def discard_attempt(self, root: str) -> None:
        ops = self._ops.pop(root, None)
        if ops is not None:
            self.discarded_attempts += 1
            self.discarded_operations += len(ops)
        self._txn_steps.pop(root, None)
        self._txn_component.pop(root, None)

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def assemble(self) -> AssembledRun:
        """Build the committed execution as a composite system."""
        if not self._committed:
            raise ModelError("no committed transactions to assemble")

        # Chronological per-component sequences over committed attempts.
        per_component: Dict[str, List[_OpRecord]] = {}
        for root, records in self._committed.items():
            for record in records:
                per_component.setdefault(record.component, []).append(record)
        for records in per_component.values():
            records.sort(key=lambda r: r.sort_key)

        def build(validate: bool) -> RecordedExecution:
            builder = SystemBuilder()
            for root, txns in self._committed_txns.items():
                components = self._committed_comp[root]
                for txn, tagged_steps in txns.items():
                    steps = [op for op, _seg in tagged_steps]
                    # Program order is a *partial* order: steps of one
                    # segment (a parallel call run) are mutually
                    # unordered; consecutive segments are fully ordered.
                    # Group by segment id, preserving order of appearance:
                    weak = []
                    grouped: List[Tuple[int, List[str]]] = []
                    for op, seg in tagged_steps:
                        if grouped and grouped[-1][0] == seg:
                            grouped[-1][1].append(op)
                        else:
                            grouped.append((seg, [op]))
                    for (s_a, ops_a), (s_b, ops_b) in zip(
                        grouped, grouped[1:]
                    ):
                        for a in ops_a:
                            for b in ops_b:
                                weak.append((a, b))
                    builder.transaction(
                        txn, components[txn], steps, weak_order=weak
                    )
            executions: Dict[str, List[str]] = {}
            for component, records in per_component.items():
                sequence = [record.op for record in records]
                executions[component] = sequence
                accesses = [r for r in records if r.item is not None]
                for i, a in enumerate(accesses):
                    for b in accesses[i + 1:]:
                        if (
                            a.item == b.item
                            and a.txn != b.txn
                            and "w" in (a.mode, b.mode)
                        ):
                            builder.conflict(component, a.op, b.op)
                builder.executed(component, sequence)
            system = builder.build(validate=validate)
            return RecordedExecution(system=system, executions=executions)

        try:
            return AssembledRun(
                recorded=build(validate=True),
                axiom_violation=None,
                committed_roots=tuple(self._committed),
            )
        except (ScheduleAxiomError, ModelError) as err:
            recorded = build(validate=False)
            return AssembledRun(
                recorded=recorded,
                axiom_violation=str(err),
                committed_roots=tuple(self._committed),
            )

    @property
    def committed_count(self) -> int:
        return len(self._committed)

    # ------------------------------------------------------------------
    # streaming export
    # ------------------------------------------------------------------
    def committed_events(self) -> List["Event"]:
        """The committed execution as a streaming event log.

        Assembles (so the per-component sequences get their one
        deterministic ``sort_key`` ordering) and converts through
        :func:`repro.io.eventlog.events_from_recorded` — the same log a
        live simulation would emit, ready for ``composite-tx watch`` or
        :class:`repro.stream.IncrementalChecker`.
        """
        from repro.io.eventlog import events_from_recorded

        return events_from_recorded(self.assemble().recorded)
