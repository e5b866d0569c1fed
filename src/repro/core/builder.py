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
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.orders import Relation, closed_union
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


#: a declared pair (of transactions or of operations)
Pair = Tuple[str, str]


@dataclass
class _Built:
    """One schedule of the last build, kept for the next: how many of
    each of its draft's declarations (transactions, conflicts, weak and
    strong inputs, weak and strong outputs) it holds, the Def.-4.7 pairs
    it passes on to each callee, and whether its axioms were checked."""

    schedule: Schedule
    taken: Tuple[int, int, int, int, int, int]
    passed_on: Dict[str, Tuple[List[Pair], List[Pair]]]
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
        #: the last build: its schedules and system, and the drafts
        #: changed since
        self._last: Dict[str, _Built] = {}
        self._last_propagate = True
        self._system: Optional[CompositeSystem] = None
        self._changed: Set[str] = set()
        #: (schedule, transaction) declared since the last build
        self._declared: List[Tuple[str, Transaction]] = []
        #: invocation edges, caller schedule -> callee schedules, and
        #: the callers-first order they give (``None``: to be redone)
        self._callees: Dict[str, Set[str]] = {}
        self._order: Optional[List[str]] = None

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
        self._declared.append((schedule, txn))
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
        # A sequence recorded again may order less than the last one,
        # so the next build grows nothing from the last.
        self._last = {}
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
        construction order) once the whole system is built, and, without
        propagation, Def. 4.7.  With it, Def. 4.7 holds by construction:
        every caller is built before its callees (an invocation cycle,
        the one way a callee could come first, is refused by
        :class:`CompositeSystem`), and each callee's inputs receive
        every pair its callers' final outputs order between two of its
        transactions.

        A builder that builds again (the streaming assembler's, which
        declares more between builds) grows the last build instead of
        reconstructing it.  A schedule whose declarations and received
        input pairs did not change is kept; one that gained some is
        grown from the last one (:meth:`Schedule.extended`) and passes on
        only the Def.-4.7 pairs it gained; the :class:`CompositeSystem`
        is grown from the last one (:meth:`CompositeSystem.extended`).
        The axioms are checked again only on the schedules grown or
        constructed since they last were.  A grown
        schedule that breaks well-formedness (a cyclic order) and a
        recorded ``executed`` sequence fall back to constructing the
        schedule from its whole draft, so violations are raised as a
        first build raises them.  A collecting builder constructs
        everything every time, so each build reports every violation.
        """
        invoking = self._track_invocations()
        previous = (
            self._last
            if self._report is None and propagate_orders == self._last_propagate
            else {}
        )
        built: Dict[str, _Built] = {}
        #: per callee, the Def.-4.7 pairs its callers gained in this build
        gained: Dict[str, Tuple[List[Pair], List[Pair]]] = {}
        for name in self._callers_first() if propagate_orders else self._drafts:
            last = previous.get(name)
            pushed = gained.pop(name, None)
            if last is None or pushed is not None or name in self._changed:
                entry = self._construct(name, last, pushed, built)
            else:
                entry = last
            if propagate_orders and (entry is not last or name in invoking):
                passed_on = self._passed_on(
                    name, entry.schedule, last, name in invoking, gained
                )
                if entry is last:
                    entry = replace(entry, passed_on=passed_on)
                else:
                    entry.passed_on = passed_on
            built[name] = entry
        schedules = [built[name].schedule for name in self._drafts]
        system = (
            CompositeSystem(schedules, validate=False, report=self._report)
            if self._system is None or self._report is not None
            else self._system.extended(schedules)
        )
        self._last = built
        self._last_propagate = propagate_orders
        self._system = system
        self._changed.clear()
        self._declared.clear()
        # Validation follows the whole structure, as lint's does, so a
        # structural defect anywhere is raised before any axiom.
        # A kept schedule passed them in an earlier build.
        if validate:
            unchecked = [entry for entry in built.values() if not entry.validated]
            for entry in unchecked:
                entry.schedule.validate_axioms()
            if not propagate_orders:
                for violation in system.iter_order_propagation_violations():
                    raise violation
            for entry in unchecked:
                entry.validated = True
        return system

    def _construct(
        self,
        name: str,
        last: Optional[_Built],
        pushed: Optional[Tuple[List[Pair], List[Pair]]],
        built: Mapping[str, _Built],
    ) -> _Built:
        """Schedule ``name`` grown from ``last``, its schedule of the
        last build, by what its draft declared and its callers passed
        on since (``pushed``); or, without ``last``, with a recorded
        sequence, or when growing breaks well-formedness, constructed
        from its whole draft and every pair its callers pass on."""
        draft = self._drafts[name]
        if draft.execution is not None:
            last = None
        txns, conflicts, wi, si, wo, so = (0,) * 6 if last is None else last.taken
        weak_in = draft.weak_input[wi:]
        strong_in = draft.strong_input[si:]
        if last is not None:
            if pushed is not None:
                weak_in += pushed[0]
                strong_in += pushed[1]
        else:
            for caller in built.values():
                passed = caller.passed_on.get(name)
                if passed is not None:
                    weak_in.extend(passed[0])
                    strong_in.extend(passed[1])
        weak_out = draft.weak_output[wo:]
        strong_out = draft.strong_output[so:]
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
        transactions = draft.transactions[txns:]
        # Axiom 2: intra-transaction orders must surface in outputs.
        for txn in transactions:
            if txn.ordered:
                weak_out.extend(txn.weak_order.pairs())
                strong_out.extend(txn.strong_order.pairs())
        # Axiom 3: closed strong inputs sequence whole transactions; the
        # pairs the closure gains are expanded.  An unknown name is left
        # for Schedule to report.
        ops_of = {t.name: t.operations for t in draft.transactions} if strong_in else {}
        if strong_in and all(t in ops_of for p in strong_in for t in p):
            base = Relation() if last is None else last.schedule.strong_input
            closed = closed_union(base.copy(), strong_in)
            for t1, t2 in closed.added_since(base).pairs():
                for a in ops_of[t1]:
                    strong_out.extend((a, b) for b in ops_of[t2])
        taken = (
            len(draft.transactions),
            len(draft.conflicts),
            len(draft.weak_input),
            len(draft.strong_input),
            len(draft.weak_output),
            len(draft.strong_output),
        )
        if last is None:
            schedule = Schedule(
                name,
                transactions,
                conflicts=draft.conflicts,
                weak_input=weak_in,
                strong_input=strong_in,
                weak_output=weak_out,
                strong_output=strong_out,
                validate=False,
                report=self._report,
            )
            return _Built(schedule, taken, {})
        grown = last.schedule.extended(
            transactions,
            conflicts=draft.conflicts[conflicts:],
            weak_input=weak_in,
            strong_input=strong_in,
            weak_output=weak_out,
            strong_output=strong_out,
        )
        if grown is None:
            return self._construct(name, None, None, built)
        return _Built(grown, taken, {})

    def _passed_on(
        self,
        name: str,
        schedule: Schedule,
        last: Optional[_Built],
        invoking: bool,
        gained: Dict[str, Tuple[List[Pair], List[Pair]]],
    ) -> Dict[str, Tuple[List[Pair], List[Pair]]]:
        """Def. 4.7: the (weak, strong) output pairs of ``schedule``
        between two transactions of one callee, per callee; the ones
        ``last`` did not pass on are added to the callee's ``gained``.
        One mask per callee over the output carrier (bit i is
        operations[i]) selects its transactions.  A schedule grown from
        ``last`` reads only the row bits its outputs gained, unless one
        of its operations became a transaction since (``invoking``),
        which puts old pairs under a callee's mask."""
        weak, strong = schedule.weak_output, schedule.strong_output
        since = None if last is None or invoking else last.schedule
        if (
            last is not None
            and since is not None
            and len(weak) == len(since.weak_output)
            and len(strong) == len(since.strong_output)
        ):
            return last.passed_on  # outputs only grow: nothing gained
        txn_schedule = self._txn_schedule
        masks: Dict[str, int] = {}
        for i, op in enumerate(schedule._owner_of):
            callee = txn_schedule.get(op)
            if callee is not None and callee != name:
                masks[callee] = masks.get(callee, 0) | (1 << i)
        weak_since = None if since is None else since.weak_output
        strong_since = None if since is None else since.strong_output
        passed: Dict[str, Tuple[List[Pair], List[Pair]]] = {}
        for callee, mask in masks.items():
            new = (
                weak.pairs_within(mask, weak_since),
                strong.pairs_within(mask, strong_since),
            )
            before = last.passed_on.get(callee) if last is not None else None
            if before is None:
                passed[callee] = new
            elif since is not None:
                passed[callee] = (before[0] + new[0], before[1] + new[1])
            else:
                passed[callee] = new
                weak_before, strong_before = set(before[0]), set(before[1])
                new = (
                    [p for p in new[0] if p not in weak_before],
                    [p for p in new[1] if p not in strong_before],
                )
            if new[0] or new[1]:
                into = gained.setdefault(callee, ([], []))
                into[0].extend(new[0])
                into[1].extend(new[1])
        return passed

    def _track_invocations(self) -> Set[str]:
        """Add the invocation edges (caller schedule -> callee schedule)
        the transactions declared since the last build bring, dropping
        the callers-first order when one is new; returns the schedules
        one of whose operations of the last build is one of them."""
        callees = self._callees
        txn_schedule = self._txn_schedule
        operations: Mapping[str, Optional[str]] = (
            {} if self._system is None else self._system._op_schedule
        )
        invoking: Set[str] = set()
        for sname, txn in self._declared:
            targets = callees.setdefault(sname, set())
            for op in txn.operations:
                callee = txn_schedule.get(op)
                if callee is not None and callee not in targets and callee != sname:
                    targets.add(callee)
                    self._order = None
            caller = operations.get(txn.name)
            if caller is not None:
                invoking.add(caller)
                targets = callees.setdefault(caller, set())
                if sname not in targets and sname != caller:
                    targets.add(sname)
                    self._order = None
        return invoking

    def _callers_first(self) -> List[str]:
        """Schedule names with every caller before its callees,
        declaration order breaking ties, redone only when a schedule or
        an invocation edge appeared.  Schedules on or below an
        invocation cycle (which :class:`CompositeSystem` rejects,
        Def. 4.6) follow in declaration order."""
        if self._order is not None and len(self._order) == len(self._drafts):
            return self._order
        names = list(self._drafts)
        rank = {name: i for i, name in enumerate(names)}
        callers = dict.fromkeys(names, 0)
        for targets in self._callees.values():
            for callee in targets:
                callers[callee] += 1
        ready = [name for name in names if not callers[name]]
        order: List[str] = []
        while ready:
            name = min(ready, key=rank.__getitem__)
            ready.remove(name)
            order.append(name)
            for callee in self._callees.get(name, ()):
                callers[callee] -= 1
                if not callers[callee]:
                    ready.append(callee)
        order.extend(name for name in names if callers[name])
        self._order = order
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
