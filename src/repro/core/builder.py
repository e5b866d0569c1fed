"""Fluent construction API for composite systems.

:class:`SystemBuilder` assembles schedules, transactions, conflicts and
orders incrementally and performs the bookkeeping Def. 4 requires but
that is tedious to write by hand:

* intra-transaction orders are folded into the owning schedule's output
  orders (axiom 2 of Def. 3 demands them there anyway);
* strong input orders are expanded into the strong output pairs axiom 3
  demands when the recorded execution satisfies them;
* output orders of a caller schedule are propagated as input orders of
  the callee when both operations are transactions of the same callee
  (Def. 4.7) — so a model stays well-formed without the user repeating
  every order twice.

:meth:`SystemBuilder.build` does all three in one pass over the
schedules, callers before callees (declaration order breaking ties).
Def. 4.6 makes the invocation graph acyclic, so when a schedule is
reached every caller has already been built and its input orders are
final: the pass expands axiom 3 from them, constructs the
:class:`Schedule` (which closes each order once), and reads the
callee-bound pairs straight from that schedule's closed output rows.

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

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.orders import Relation
from repro.core.schedule import (
    Schedule,
    executed_sequence_error,
    execution_mode_error,
    execution_pairs,
    listing_mismatch,
)
from repro.core.system import CompositeSystem, assigned_twice
from repro.core.transaction import Transaction
from repro.exceptions import ModelError, Report, report_or_raise


def _placed(report: Report, schedule: str) -> Report:
    """``report``, placing on ``schedule`` each violation that names no
    schedule of its own (a transaction's)."""

    def placed(error: ModelError) -> None:
        if error.schedule is None:
            error.schedule = schedule
        report(error)

    return placed


@dataclass
class _ScheduleDraft:
    name: str
    transactions: List[Transaction] = field(default_factory=list)
    conflicts: List[Tuple[str, str]] = field(default_factory=list)
    weak_input: List[Tuple[str, str]] = field(default_factory=list)
    strong_input: List[Tuple[str, str]] = field(default_factory=list)
    weak_output: List[Tuple[str, str]] = field(default_factory=list)
    strong_output: List[Tuple[str, str]] = field(default_factory=list)
    execution: Optional[List[str]] = None
    execution_mode: str = "conflicts"


@dataclass
class _Built:
    """One schedule of the last build, kept for the next: the staged
    input pairs it was constructed from, the Def.-4.7 pairs it passed
    on to each callee, and whether its axioms were checked."""

    schedule: Schedule
    weak_input: List[Tuple[str, str]]
    strong_input: List[Tuple[str, str]]
    passed_on: Dict[str, Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]]
    validated: bool = False


class SystemBuilder:
    """Incremental builder for :class:`repro.core.system.CompositeSystem`.

    Without ``report`` the first ill-formed declaration raises
    :class:`ModelError`.  With it (lint's path) the builder, and the
    transactions, schedules and system it constructs, report every
    violation to it and carry on with the usable rest; such a build
    describes a system only when nothing was reported.
    """

    def __init__(self, *, report: Optional[Report] = None) -> None:
        self._drafts: Dict[str, _ScheduleDraft] = {}
        self._txn_schedule: Dict[str, str] = {}
        self._report = report
        #: the schedules of the last build, and the drafts changed since
        self._last: Dict[str, _Built] = {}
        self._last_propagate = True
        self._changed: Set[str] = set()
        #: transactions declared since the last build
        self._declared: Set[str] = set()

    def _refuse(self, error: ModelError) -> None:
        report_or_raise(self._report, error)

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------
    @property
    def schedule_names(self) -> Tuple[str, ...]:
        """The schedules declared so far, in declaration order."""
        return tuple(self._drafts)

    def schedule(self, name: str) -> "SystemBuilder":
        """Declare a schedule (idempotent; usually implicit)."""
        self._draft(name, changed=False)
        return self

    def _draft(self, name: str, *, changed: bool = True) -> _ScheduleDraft:
        """The draft of schedule ``name``, declared on first use and,
        when ``changed``, marked for reconstruction by the next build."""
        draft = self._drafts.get(name)
        if draft is None:
            draft = self._drafts[name] = _ScheduleDraft(name)
            changed = True
        if changed:
            self._changed.add(name)
        return draft

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
        draft = self._draft(schedule)
        first = self._txn_schedule.get(name, schedule)
        if first != schedule and self._report is None:
            # fail fast; a collecting build leaves it to CompositeSystem
            raise assigned_twice(name, first, schedule)
        txn = Transaction(
            name,
            operations,
            weak_order=weak_order,
            strong_order=strong_order,
            sequential=sequential,
            report=None if self._report is None else _placed(self._report, schedule),
        )
        self._txn_schedule.setdefault(name, schedule)
        self._declared.add(name)
        draft.transactions.append(txn)
        return self

    def conflict(self, schedule: str, a: str, b: str) -> "SystemBuilder":
        """Declare ``CON_schedule(a, b)`` (symmetric)."""
        self._draft(schedule).conflicts.append((a, b))
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
        error = execution_mode_error(schedule, mode)
        if error is not None:
            self._refuse(error)
            return self
        draft = self._draft(schedule)
        draft.execution = list(sequence)
        draft.execution_mode = mode
        return self

    def weak_output(self, schedule: str, a: str, b: str) -> "SystemBuilder":
        self._draft(schedule).weak_output.append((a, b))
        return self

    def strong_output(self, schedule: str, a: str, b: str) -> "SystemBuilder":
        self._draft(schedule).strong_output.append((a, b))
        return self

    def weak_input(self, schedule: str, t1: str, t2: str) -> "SystemBuilder":
        """Require ``t1 → t2`` at ``schedule`` (restricted parallelism)."""
        self._draft(schedule).weak_input.append((t1, t2))
        return self

    def strong_input(self, schedule: str, t1: str, t2: str) -> "SystemBuilder":
        """Require ``t1 ↠ t2`` at ``schedule`` (strict sequencing)."""
        self._draft(schedule).strong_input.append((t1, t2))
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

        With propagation, schedules are constructed callers first, so a
        schedule's input orders are final when it is reached and its
        callee-bound pairs are read straight from its closed output
        orders; without, in declaration order.  The system lists them
        in declaration order either way.  A recorded ``executed``
        sequence must list each operation of its schedule once
        (CTX302).  ``validate`` checks the Def.-3 axioms (in
        construction order) and Def. 4.7 once the whole system is
        built.

        A builder that builds again (the streaming assembler's, which
        declares more between builds) keeps the previous build's
        :class:`Schedule` for every schedule whose declarations and
        staged input pairs did not change since, with its checked
        axioms; only the :class:`CompositeSystem` is assembled anew.
        A collecting builder constructs everything every time, so each
        build reports every violation.
        """
        weak_in = {n: list(d.weak_input) for n, d in self._drafts.items()}
        strong_in = {n: list(d.strong_input) for n, d in self._drafts.items()}
        reusable = (
            self._last
            if self._report is None and propagate_orders == self._last_propagate
            else {}
        )
        built: Dict[str, _Built] = {}
        for name in self._callers_first() if propagate_orders else self._drafts:
            entry = reusable.get(name)
            if (
                entry is None
                or name in self._changed
                or entry.weak_input != weak_in[name]
                or entry.strong_input != strong_in[name]
            ):
                entry = self._construct(name, weak_in[name], strong_in[name])
                if propagate_orders:
                    entry.passed_on = self._passed_on(name, entry.schedule)
            elif not self._declared.isdisjoint(entry.schedule.operations):
                # an operation became a transaction: a new callee
                entry.passed_on = self._passed_on(name, entry.schedule)
            built[name] = entry
            for callee, (weak, strong) in entry.passed_on.items():
                weak_in[callee].extend(weak)
                strong_in[callee].extend(strong)
        self._last = built
        self._last_propagate = propagate_orders
        self._changed.clear()
        self._declared.clear()
        system = CompositeSystem(
            [built[name].schedule for name in self._drafts],
            validate=False,
            report=self._report,
        )
        # Validation follows the whole structure, as lint's does, so a
        # structural defect anywhere is raised before any axiom.
        # A kept schedule passed both checks in an earlier build, so
        # only the ones constructed since, and their callers, are
        # checked again.
        if validate:
            unchecked = [entry for entry in built.values() if not entry.validated]
            for entry in unchecked:
                entry.schedule.validate_axioms()
            fresh = {entry.schedule.name for entry in unchecked}
            callers = (
                [
                    name
                    for name, entry in built.items()
                    if name in fresh or not fresh.isdisjoint(entry.passed_on)
                ]
                if propagate_orders
                else None
            )
            for violation in system.iter_order_propagation_violations(callers):
                raise violation
            for entry in unchecked:
                entry.validated = True
        return system

    def _construct(
        self,
        name: str,
        weak_in: List[Tuple[str, str]],
        strong_in: List[Tuple[str, str]],
    ) -> _Built:
        """Construct schedule ``name`` from its draft and its staged
        input pairs."""
        draft = self._drafts[name]
        weak_out = list(draft.weak_output)
        strong_out = list(draft.strong_output)
        if draft.execution is not None:
            error = executed_sequence_error(
                name, draft.execution, self._operations(name)
            )
            if error is not None:
                self._refuse(error)
            else:
                weak_out.extend(
                    execution_pairs(
                        draft.execution, draft.execution_mode, draft.conflicts
                    )
                )
        # Axiom 2: intra-transaction orders must surface in outputs.
        for txn in draft.transactions:
            if txn.ordered:
                weak_out.extend(txn.weak_order.pairs())
                strong_out.extend(txn.strong_order.pairs())
        # Axiom 3: closed strong inputs sequence whole transactions.
        # An unknown name is left for Schedule to report.
        ops_of = {t.name: t.operations for t in draft.transactions} if strong_in else {}
        if strong_in and all(t in ops_of for p in strong_in for t in p):
            for t1, t2 in Relation(strong_in).transitive_closure().pairs():
                for a in ops_of[t1]:
                    strong_out.extend((a, b) for b in ops_of[t2])
        schedule = Schedule(
            name,
            draft.transactions,
            conflicts=draft.conflicts,
            weak_input=weak_in,
            strong_input=strong_in,
            weak_output=weak_out,
            strong_output=strong_out,
            validate=False,
            report=self._report,
        )
        return _Built(schedule, weak_in, strong_in, {})

    def _passed_on(
        self, name: str, schedule: Schedule
    ) -> Dict[str, Tuple[List[Tuple[str, str]], List[Tuple[str, str]]]]:
        """Def. 4.7: the (weak, strong) output pairs of ``schedule``
        between two transactions of one callee, per callee.  One mask
        per callee over the output carrier (bit i is operations[i])
        selects its transactions."""
        txn_schedule = self._txn_schedule
        masks: Dict[str, int] = {}
        for i, op in enumerate(schedule.operations):
            callee = txn_schedule.get(op)
            if callee is not None and callee != name:
                masks[callee] = masks.get(callee, 0) | (1 << i)
        weak, strong = schedule.weak_output, schedule.strong_output
        return {
            callee: (
                [(a, b) for a in weak.unpack(mask) for b in weak.unpack(weak.row_bits(a) & mask)],
                [
                    (a, b)
                    for a in strong.unpack(mask)
                    for b in strong.unpack(strong.row_bits(a) & mask)
                ],
            )
            for callee, mask in masks.items()
        }

    def _callers_first(self) -> List[str]:
        """Schedule names with every caller before its callees,
        declaration order breaking ties.  Schedules on or below an
        invocation cycle (which :class:`CompositeSystem` rejects,
        Def. 4.6) follow in declaration order."""
        names = list(self._drafts)
        rank = {name: i for i, name in enumerate(names)}
        callees: Dict[str, Set[str]] = {}
        callers = dict.fromkeys(names, 0)
        for name, draft in self._drafts.items():
            callees[name] = {
                self._txn_schedule[op]
                for txn in draft.transactions
                for op in txn.operations
                if op in self._txn_schedule
            } - {name}
            for callee in callees[name]:
                callers[callee] += 1
        ready = [name for name in names if not callers[name]]
        order: List[str] = []
        while ready:
            name = min(ready, key=rank.__getitem__)
            ready.remove(name)
            order.append(name)
            for callee in callees[name]:
                callers[callee] -= 1
                if not callers[callee]:
                    ready.append(callee)
        order.extend(name for name in names if callers[name])
        return order

    # ------------------------------------------------------------------
    # declarative construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls, spec: Mapping, *, report: Optional[Report] = None
    ) -> "SystemBuilder":
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

        Every list is a JSON list (or a tuple), every operation and both
        ends of every pair a string, ``sequential`` a boolean, and an
        ``executed`` sequence, or a lane of the text format's top-level
        ``executions`` section, lists each operation of its schedule
        once.  A malformed shape raises :class:`ModelError`; given
        ``report``, each is reported and the offending item left out.
        """
        builder = cls(report=report)
        refuse = builder._refuse
        schedules = spec.get("schedules")
        if not (schedules and isinstance(schedules, Mapping)):
            refuse(
                ModelError(
                    "document has no 'schedules' section",
                    hint="a system document maps schedule names to bodies",
                )
            )
            return builder
        for sname, body in schedules.items():
            if not isinstance(body, Mapping):
                refuse(
                    ModelError(
                        f"schedule {sname!r} body is not a mapping",
                        schedule=sname,
                    )
                )
                continue
            transactions = body.get("transactions", {})
            if not isinstance(transactions, Mapping):
                refuse(
                    ModelError(
                        f"'transactions' of schedule {sname!r} is not a "
                        "mapping",
                        schedule=sname,
                    )
                )
                continue
            draft = builder._draft(sname)
            for tname, tdef in transactions.items():
                builder._spec_transaction(sname, tname, tdef)
            draft.conflicts.extend(
                builder._spec_pairs(sname, "conflicts", body.get("conflicts"))
            )
            executed = body.get("executed")  # None records no sequence
            if executed is not None and builder._spec_names(
                sname, "'executed' of schedule", executed
            ):
                error = executed_sequence_error(
                    sname, executed, builder._operations(sname)
                )
                if error is not None:
                    refuse(error)
                else:
                    builder.executed(
                        sname,
                        executed,
                        mode=body.get("executed_mode", "conflicts"),
                    )
            for key in ("weak_output", "strong_output", "weak_input", "strong_input"):
                getattr(draft, key).extend(
                    builder._spec_pairs(sname, key, body.get(key))
                )
        builder._spec_executions(spec.get("executions"))
        return builder

    def _operations(self, schedule: str) -> List[str]:
        """The operations of the transactions declared on ``schedule``."""
        return [
            op
            for txn in self._drafts[schedule].transactions
            for op in txn.operations
        ]

    def _spec_transaction(self, sname: str, tname: str, tdef: Any) -> None:
        """Declare transaction ``tname`` of a spec: an operation list,
        or a mapping of ``ops``, ``weak`` and ``strong`` pairs and a
        boolean ``sequential``.  When collecting, a definition without
        a usable operation list declares the name with no operations."""
        is_mapping = isinstance(tdef, Mapping)
        fields = tdef if is_mapping else {}
        ops = fields.get("ops", ()) if is_mapping else tdef
        if not _is_name_list(ops):
            self._refuse(
                ModelError(
                    f"'ops' of transaction {tname!r} of schedule {sname!r} "
                    "is not a list of operations"
                    if is_mapping
                    else f"transaction {tname!r} of schedule {sname!r} is "
                    "neither an operation list nor a mapping",
                    schedule=sname,
                    nodes=(tname,),
                )
            )
            self.transaction(tname, sname, ())
            return
        weak = self._spec_pairs(sname, f"{tname}.weak", fields.get("weak"))
        strong = self._spec_pairs(sname, f"{tname}.strong", fields.get("strong"))
        sequential = fields.get("sequential", False)
        if not isinstance(sequential, bool):
            self._refuse(
                ModelError(
                    f"'sequential' of transaction {tname!r} of schedule "
                    f"{sname!r} is not a boolean",
                    schedule=sname,
                    nodes=(tname,),
                    hint="write true or false",
                )
            )
            sequential = False
        self.transaction(
            tname,
            sname,
            ops,
            weak_order=weak,
            strong_order=strong,
            sequential=sequential,
        )

    def _spec_pairs(
        self, sname: str, key: str, value: object
    ) -> List[Tuple[str, str]]:
        """The pairs listed under ``key`` of schedule ``sname``, each
        entry shape-checked once: one that is not a pair of names, or a
        value that is not a list, is a violation (an absent, ``None``,
        value lists none)."""
        if value is None:
            return []
        if not isinstance(value, _LISTS):
            self._refuse(
                ModelError(
                    f"{key!r} of schedule {sname!r} is not a list of pairs",
                    schedule=sname,
                )
            )
            return []
        pairs: List[Tuple[str, str]] = []
        for entry in value:
            if _is_pair(entry):
                pairs.append((entry[0], entry[1]))
            else:
                self._refuse(
                    ModelError(
                        f"{key!r} of schedule {sname!r} contains the "
                        f"malformed entry {entry!r} (expected a pair)",
                        schedule=sname,
                    )
                )
        return pairs

    def _spec_names(self, sname: str, what: str, value: object) -> bool:
        """Whether ``value`` is a list of operation names; when it is
        not, that is a violation, worded by ``what``."""
        if _is_name_list(value):
            return True
        self._refuse(
            ModelError(
                f"{what} {sname!r} is not a list of operations", schedule=sname
            )
        )
        return False

    def _spec_executions(self, value: object) -> None:
        """The text format's top-level ``executions`` section: a mapping
        of schedule name to one lane that lists each operation of that
        schedule once (lint code CTX302 when it does not)."""
        if value is None:
            return
        if not isinstance(value, Mapping):
            self._refuse(
                ModelError("'executions' is not a mapping of schedule -> sequence")
            )
            return
        for sname, lane in value.items():
            if not self._spec_names(sname, "'executions' of schedule", lane):
                continue
            if sname not in self._drafts:
                self._refuse(
                    ModelError(
                        f"'executions' names unknown schedule {sname!r}",
                        schedule=sname,
                    )
                )
                continue
            mismatch = listing_mismatch(self._operations(sname), lane)
            if mismatch is not None:
                missing, extra = mismatch
                self._refuse(
                    ModelError(
                        f"top-level execution of {sname!r} does not match "
                        f"its declared operations (missing={missing}, "
                        f"extra={extra})",
                        code="CTX302",
                        schedule=sname,
                        nodes=missing + extra,
                        hint="the lane must list every operation exactly once",
                    )
                )


#: What a list in a spec may be: a JSON list, or a tuple when the spec
#: is built in code.  A string would otherwise iterate (or unpack) into
#: its characters.
_LISTS = (list, tuple)


#: The one name rule: an operation or transaction a spec lists is named
#: by a string (a list would be unhashable, and a number would be a
#: node other than its digits).
_NAME = str


def _is_name_list(value: object) -> bool:
    """A list of operation names."""
    if not isinstance(value, _LISTS):
        return False
    for op in value:
        if not isinstance(op, _NAME):
            return False
    return True


def _is_pair(entry: object) -> bool:
    """A spec pair is a two-element list of names."""
    if isinstance(entry, _LISTS) and len(entry) == 2:
        a, b = entry
        return isinstance(a, _NAME) and isinstance(b, _NAME)
    return False


def build_system(spec: Mapping, **kwargs) -> CompositeSystem:
    """One-shot: :meth:`SystemBuilder.from_spec` followed by ``build``."""
    return SystemBuilder.from_spec(spec).build(**kwargs)
