"""Fluent construction API for composite systems.

:class:`SystemBuilder` assembles schedules, transactions, conflicts and
orders incrementally and performs the bookkeeping Def. 4 requires but
that is tedious to write by hand:

* intra-transaction orders are folded into the owning schedule's output
  orders (axiom 2 of Def. 3 demands them there anyway);
* output orders of a caller schedule are propagated as input orders of
  the callee when both operations are transactions of the same callee
  (Def. 4.7) — so a model stays well-formed without the user repeating
  every order twice;
* strong input orders are expanded into the strong output pairs axiom 3
  demands when the recorded execution satisfies them.

Example
-------
>>> b = SystemBuilder()
>>> _ = b.transaction("T1", "Top", ["t11", "t12"])
>>> _ = b.transaction("t11", "Bottom", ["a"], )
>>> _ = b.transaction("t12", "Bottom", ["b"])
>>> _ = b.conflict("Bottom", "a", "b")
>>> _ = b.executed("Bottom", ["a", "b"])
>>> _ = b.executed("Top", ["t11", "t12"])
>>> system = b.build()
>>> system.order
2
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.orders import Relation
from repro.core.schedule import Schedule
from repro.core.system import CompositeSystem
from repro.core.transaction import Transaction
from repro.exceptions import ModelError


def _execution_pairs(
    sequence: Sequence[str],
    mode: str,
    conflicts: Iterable[Tuple[str, str]],
) -> List[Tuple[str, str]]:
    """Weak-output pairs committed by a recorded execution sequence."""
    if mode == "temporal":
        return list(zip(sequence, sequence[1:]))
    position = {op: i for i, op in enumerate(sequence)}
    pairs: List[Tuple[str, str]] = []
    for a, b in conflicts:
        if a in position and b in position:
            if position[a] < position[b]:
                pairs.append((a, b))
            else:
                pairs.append((b, a))
    return pairs


@dataclass
class _ScheduleDraft:
    name: str
    transactions: "Dict[str, Transaction]" = field(default_factory=dict)
    conflicts: List[Tuple[str, str]] = field(default_factory=list)
    weak_input: List[Tuple[str, str]] = field(default_factory=list)
    strong_input: List[Tuple[str, str]] = field(default_factory=list)
    weak_output: List[Tuple[str, str]] = field(default_factory=list)
    strong_output: List[Tuple[str, str]] = field(default_factory=list)
    execution: Optional[List[str]] = None
    execution_mode: str = "conflicts"


class SystemBuilder:
    """Incremental builder for :class:`repro.core.system.CompositeSystem`."""

    def __init__(self) -> None:
        self._drafts: Dict[str, _ScheduleDraft] = {}
        self._txn_schedule: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------
    def schedule(self, name: str) -> "SystemBuilder":
        """Declare a schedule (idempotent; usually implicit)."""
        if name not in self._drafts:
            self._drafts[name] = _ScheduleDraft(name)
        return self

    def transaction(
        self,
        name: str,
        schedule: str,
        operations: Sequence[str],
        *,
        weak_order: Iterable[Tuple[str, str]] = (),
        strong_order: Iterable[Tuple[str, str]] = (),
        sequential: bool = False,
    ) -> "SystemBuilder":
        """Declare transaction ``name`` of ``schedule`` with the given
        operations and intra-transaction orders (Def. 2)."""
        self.schedule(schedule)
        if name in self._txn_schedule:
            raise ModelError(
                f"transaction {name!r} already declared on schedule "
                f"{self._txn_schedule[name]!r}"
            )
        txn = Transaction(
            name,
            operations,
            weak_order=weak_order,
            strong_order=strong_order,
            sequential=sequential,
        )
        self._drafts[schedule].transactions[name] = txn
        self._txn_schedule[name] = schedule
        return self

    def conflict(self, schedule: str, a: str, b: str) -> "SystemBuilder":
        """Declare ``CON_schedule(a, b)`` (symmetric)."""
        self.schedule(schedule)
        self._drafts[schedule].conflicts.append((a, b))
        return self

    def conflicts(
        self, schedule: str, pairs: Iterable[Tuple[str, str]]
    ) -> "SystemBuilder":
        for a, b in pairs:
            self.conflict(schedule, a, b)
        return self

    # ------------------------------------------------------------------
    # orders
    # ------------------------------------------------------------------
    def executed(
        self, schedule: str, sequence: Sequence[str], *, mode: str = "conflicts"
    ) -> "SystemBuilder":
        """Record the schedule's behaviour as a total temporal sequence of
        its operations (the usual shape of an observed history).

        ``mode`` controls which temporal pairs become *weak output order*
        commitments:

        ``"conflicts"`` (default)
            only pairs the schedule must order — conflicting operations —
            are committed.  This matches the paper's reading of Def. 3
            ("weak orders are only propagated when operations conflict,
            otherwise the weak order disappears") and keeps the recorded
            history maximally permissive.
        ``"temporal"``
            the whole sequence becomes the weak output order (the
            conservative reading; used by the A1 ablation benchmark).
        """
        if mode not in ("conflicts", "temporal"):
            raise ModelError(f"unknown execution mode {mode!r}")
        self.schedule(schedule)
        self._drafts[schedule].execution = list(sequence)
        self._drafts[schedule].execution_mode = mode
        return self

    def weak_output(self, schedule: str, a: str, b: str) -> "SystemBuilder":
        self.schedule(schedule)
        self._drafts[schedule].weak_output.append((a, b))
        return self

    def strong_output(self, schedule: str, a: str, b: str) -> "SystemBuilder":
        self.schedule(schedule)
        self._drafts[schedule].strong_output.append((a, b))
        return self

    def weak_input(self, schedule: str, t1: str, t2: str) -> "SystemBuilder":
        """Require ``t1 → t2`` at ``schedule`` (restricted parallelism)."""
        self.schedule(schedule)
        self._drafts[schedule].weak_input.append((t1, t2))
        return self

    def strong_input(self, schedule: str, t1: str, t2: str) -> "SystemBuilder":
        """Require ``t1 ↠ t2`` at ``schedule`` (strict sequencing)."""
        self.schedule(schedule)
        self._drafts[schedule].strong_input.append((t1, t2))
        return self

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def build(
        self, *, validate: bool = True, propagate_orders: bool = True
    ) -> CompositeSystem:
        """Assemble and validate the composite system.

        ``propagate_orders`` applies Def. 4.7 automatically: every output
        order between two operations that are transactions of the same
        callee schedule is added to that callee's input orders.
        """
        if not self._drafts:
            raise ModelError("no schedules declared")
        resolved: Dict[str, Dict[str, List[Tuple[str, str]]]] = {}
        for name, draft in self._drafts.items():
            weak_out = list(draft.weak_output)
            strong_out = list(draft.strong_output)
            if draft.execution is not None:
                weak_out.extend(
                    _execution_pairs(
                        draft.execution, draft.execution_mode, draft.conflicts
                    )
                )
            # Axiom 2: intra-transaction orders must surface in outputs.
            for txn in draft.transactions.values():
                weak_out.extend(txn.weak_order.pairs())
                strong_out.extend(txn.strong_order.pairs())
            # Axiom 3: strong inputs sequence whole transactions.
            for t1, t2 in draft.strong_input:
                ops1 = draft.transactions[t1].operations
                ops2 = draft.transactions[t2].operations
                for a in ops1:
                    for b in ops2:
                        strong_out.append((a, b))
            resolved[name] = {
                "weak_output": weak_out,
                "strong_output": strong_out,
                "weak_input": list(draft.weak_input),
                "strong_input": list(draft.strong_input),
            }

        if propagate_orders:
            self._propagate(resolved)

        schedules = []
        for name, draft in self._drafts.items():
            orders = resolved[name]
            schedules.append(
                Schedule(
                    name,
                    list(draft.transactions.values()),
                    conflicts=draft.conflicts,
                    weak_input=orders["weak_input"],
                    strong_input=orders["strong_input"],
                    weak_output=orders["weak_output"],
                    strong_output=orders["strong_output"],
                    validate=validate,
                )
            )
        return CompositeSystem(schedules, validate=validate)

    def _propagate(
        self, resolved: Dict[str, Dict[str, List[Tuple[str, str]]]]
    ) -> None:
        """Def. 4.7: caller output orders become callee input orders.

        Validation checks the *transitively closed* output relations, so
        propagation works on closures too (a pair derived through a
        chain of conflicts still binds the callee).  The weak side
        closes strong ∪ weak, as :class:`Schedule` does, so a chain
        mixing strong and weak steps binds the callee's weak input.  A
        propagated strong input can force new strong outputs via axiom
        3, which may propagate further down, so this iterates to a fixed
        point — re-closing only the schedules whose staged outputs
        changed in the previous pass.
        """
        txn_schedule = self._txn_schedule
        # Set shadows of the staged lists, built on first use: the
        # membership test per closed pair was a list scan.
        shadows: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}

        def stage(name: str, kind: str, pair: Tuple[str, str]) -> bool:
            seen = shadows.get((name, kind))
            if seen is None:
                seen = shadows[(name, kind)] = set(resolved[name][kind])
            if pair in seen:
                return False
            seen.add(pair)
            resolved[name][kind].append(pair)
            return True

        def expand_strong_inputs(name: str) -> bool:
            # Axiom 3 over the closed strong input order.
            pairs = resolved[name]["strong_input"]
            if not pairs:
                return False
            transactions = self._drafts[name].transactions
            added = False
            for t1, t2 in Relation(pairs).transitive_closure().pairs():
                for a in transactions[t1].operations:
                    for b in transactions[t2].operations:
                        added |= stage(name, "strong_output", (a, b))
            return added

        changed_outputs: List[str] = list(self._drafts)
        changed_strong_inputs: Set[str] = set(changed_outputs)
        while changed_outputs:
            for name in changed_outputs:
                orders = resolved[name]
                strong = Relation(orders["strong_output"])
                weak = strong.copy()
                weak.add_all(orders["weak_output"])
                # One mask per callee over weak's carrier; strong's
                # carrier is a prefix of it, so the masks and unpack
                # below serve both closures.
                masks: Dict[str, int] = {}
                for i, e in enumerate(weak.elements):
                    callee = txn_schedule.get(e)
                    if callee is not None and callee != name:
                        masks[callee] = masks.get(callee, 0) | (1 << i)
                if not masks:
                    continue
                for closed, kind_in in (
                    (weak.transitive_closure(), "weak_input"),
                    (strong.transitive_closure(), "strong_input"),
                ):
                    for callee, mask in masks.items():
                        for a in weak.unpack(mask):
                            row = closed.row_bits(a) & mask
                            for b in weak.unpack(row):
                                if (
                                    stage(callee, kind_in, (a, b))
                                    and kind_in == "strong_input"
                                ):
                                    changed_strong_inputs.add(callee)
            changed_outputs = [
                name
                for name in self._drafts
                if name in changed_strong_inputs and expand_strong_inputs(name)
            ]
            changed_strong_inputs = set()

    # ------------------------------------------------------------------
    # declarative construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: Mapping) -> "SystemBuilder":
        """Build from a nested-dict specification (the shape used by the
        text format in :mod:`repro.io.text_format` and by tests).

        ::

            {"schedules": {
                "S1": {
                    "transactions": {"T1": ["a", "b"],
                                     "T2": {"ops": ["c"], "sequential": True}},
                    "conflicts": [["a", "c"]],
                    "executed": ["a", "c", "b"],
                    "weak_input": [["T1", "T2"]],
                },
            }}
        """
        builder = cls()
        schedules = spec.get("schedules", {})
        for sname, body in schedules.items():
            builder.schedule(sname)
            for tname, tdef in body.get("transactions", {}).items():
                if isinstance(tdef, Mapping):
                    builder.transaction(
                        tname,
                        sname,
                        tdef.get("ops", []),
                        weak_order=[tuple(p) for p in tdef.get("weak", [])],
                        strong_order=[tuple(p) for p in tdef.get("strong", [])],
                        sequential=bool(tdef.get("sequential", False)),
                    )
                else:
                    builder.transaction(tname, sname, list(tdef))
            for a, b in body.get("conflicts", []):
                builder.conflict(sname, a, b)
            if "executed" in body:
                builder.executed(
                    sname,
                    list(body["executed"]),
                    mode=body.get("executed_mode", "conflicts"),
                )
            for a, b in body.get("weak_output", []):
                builder.weak_output(sname, a, b)
            for a, b in body.get("strong_output", []):
                builder.strong_output(sname, a, b)
            for a, b in body.get("weak_input", []):
                builder.weak_input(sname, a, b)
            for a, b in body.get("strong_input", []):
                builder.strong_input(sname, a, b)
        return builder


def build_system(spec: Mapping, **kwargs) -> CompositeSystem:
    """One-shot: :meth:`SystemBuilder.from_spec` followed by ``build``."""
    return SystemBuilder.from_spec(spec).build(**kwargs)
