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
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple

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

        With propagation, schedules are constructed callers first, so a
        schedule's input orders are final when it is reached and its
        callee-bound pairs are read straight from its closed output
        orders; without, in declaration order.  The system lists them
        in declaration order either way.
        """
        if not self._drafts:
            raise ModelError("no schedules declared")
        txn_schedule = self._txn_schedule
        weak_in = {n: list(d.weak_input) for n, d in self._drafts.items()}
        strong_in = {n: list(d.strong_input) for n, d in self._drafts.items()}
        built: Dict[str, Schedule] = {}
        for name in self._callers_first() if propagate_orders else self._drafts:
            draft = self._drafts[name]
            transactions = draft.transactions
            weak_out = list(draft.weak_output)
            strong_out = list(draft.strong_output)
            if draft.execution is not None:
                weak_out.extend(
                    _execution_pairs(
                        draft.execution, draft.execution_mode, draft.conflicts
                    )
                )
            # Axiom 2: intra-transaction orders must surface in outputs.
            for txn in transactions.values():
                if txn.ordered:
                    weak_out.extend(txn.weak_order.pairs())
                    strong_out.extend(txn.strong_order.pairs())
            # Axiom 3: closed strong inputs sequence whole transactions.
            # An unknown name is left for Schedule to report.
            strong = strong_in[name]
            if strong and all(t in transactions for p in strong for t in p):
                for t1, t2 in Relation(strong).transitive_closure().pairs():
                    for a in transactions[t1].operations:
                        strong_out.extend(
                            (a, b) for b in transactions[t2].operations
                        )
            schedule = built[name] = Schedule(
                name,
                list(transactions.values()),
                conflicts=draft.conflicts,
                weak_input=weak_in[name],
                strong_input=strong,
                weak_output=weak_out,
                strong_output=strong_out,
                validate=validate,
            )
            if not propagate_orders:
                continue
            # Def. 4.7: one mask per callee over the output carrier
            # (bit i is operations[i]) selects its transactions.
            masks: Dict[str, int] = {}
            for i, op in enumerate(schedule.operations):
                callee = txn_schedule.get(op)
                if callee is not None and callee != name:
                    masks[callee] = masks.get(callee, 0) | (1 << i)
            for closed, staged in (
                (schedule.weak_output, weak_in),
                (schedule.strong_output, strong_in),
            ):
                for callee, mask in masks.items():
                    for a in closed.unpack(mask):
                        staged[callee].extend(
                            (a, b)
                            for b in closed.unpack(closed.row_bits(a) & mask)
                        )
        return CompositeSystem(
            [built[name] for name in self._drafts], validate=validate
        )

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
                for txn in draft.transactions.values()
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

        A malformed shape raises :class:`ModelError` with the message
        of its rule below (lint's CTX305 wording).
        """
        builder = cls()
        schedules = spec.get("schedules")
        _require(schedules_shape_error(schedules))
        for sname, body in schedules.items():
            _require(body_shape_error(sname, body))
            builder.schedule(sname)
            transactions = body.get("transactions", {})
            _require(transactions_shape_error(sname, transactions))
            for tname, tdef in transactions.items():
                _require(transaction_shape_error(sname, tname, tdef))
                if isinstance(tdef, Mapping):
                    builder.transaction(
                        tname,
                        sname,
                        tdef.get("ops", ()),
                        weak_order=_spec_pairs(
                            sname, f"{tname}.weak", tdef.get("weak")
                        ),
                        strong_order=_spec_pairs(
                            sname, f"{tname}.strong", tdef.get("strong")
                        ),
                        sequential=bool(tdef.get("sequential", False)),
                    )
                else:
                    builder.transaction(tname, sname, tdef)
            draft = builder._drafts[sname]
            draft.conflicts.extend(
                _spec_pairs(sname, "conflicts", body.get("conflicts"))
            )
            executed = body.get("executed")
            _require(executed_shape_error(sname, executed))
            if executed is not None:
                ops = [
                    op for t in draft.transactions.values() for op in t.operations
                ]
                mismatch = executed_sequence_error(sname, executed, ops)
                if mismatch is not None:
                    raise ModelError(mismatch[0])
                builder.executed(
                    sname,
                    executed,
                    mode=body.get("executed_mode", "conflicts"),
                )
            for key in ("weak_output", "strong_output", "weak_input", "strong_input"):
                getattr(draft, key).extend(_spec_pairs(sname, key, body.get(key)))
        return builder


# ----------------------------------------------------------------------
# spec shapes: each rule and its wording live here once.  Lint reports
# every message as CTX305 (a lane of the wrong operations as CTX302);
# from_spec raises the first as ModelError, and io.text_format.loads
# its executions messages as ParseError.
# ----------------------------------------------------------------------
def _require(error: Optional[str]) -> None:
    if error is not None:
        raise ModelError(error)


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


def schedules_shape_error(value: object) -> Optional[str]:
    """Why a spec's ``schedules`` section is unusable: absent, empty or
    not a mapping of schedule names to bodies.  ``None`` when usable."""
    if value and isinstance(value, Mapping):
        return None
    return "document has no 'schedules' section"


def body_shape_error(sname: str, body: object) -> Optional[str]:
    """Why the body of schedule ``sname`` is malformed, or ``None``."""
    if isinstance(body, Mapping):
        return None
    return f"schedule {sname!r} body is not a mapping"


def transactions_shape_error(sname: str, value: object) -> Optional[str]:
    """Why the ``transactions`` of schedule ``sname`` are malformed, or
    ``None``."""
    if isinstance(value, Mapping):
        return None
    return f"'transactions' of schedule {sname!r} is not a mapping"


def transaction_shape_error(
    sname: str, tname: str, tdef: object
) -> Optional[str]:
    """Why the definition of transaction ``tname`` is malformed: it
    must be an operation list, or a mapping whose ``ops`` (when given)
    is one; every operation is a ``_NAME``.  ``None`` when well
    formed."""
    if isinstance(tdef, Mapping):
        if _is_name_list(tdef.get("ops", ())):
            return None
        return (
            f"'ops' of transaction {tname!r} of schedule {sname!r} is not "
            "a list of operations"
        )
    if _is_name_list(tdef):
        return None
    return (
        f"transaction {tname!r} of schedule {sname!r} is neither an "
        "operation list nor a mapping"
    )


def executed_shape_error(sname: str, value: object) -> Optional[str]:
    """Why the ``executed`` sequence of schedule ``sname`` is
    malformed, or ``None`` (an absent, ``None``, value records none)."""
    if value is None or _is_name_list(value):
        return None
    return f"'executed' of schedule {sname!r} is not a list of operations"


def _listing_mismatch(
    declared: Collection[str], sequence: Sequence[str]
) -> Optional[Tuple[List[str], List[str]]]:
    """``(missing, extra)``, each sorted, when ``sequence`` does not
    list each of the ``declared`` operations exactly once; ``None``
    when it does."""
    declared = set(declared)
    listed = set(sequence)
    if listed == declared and len(sequence) == len(declared):
        return None
    return sorted(declared - listed), sorted(listed - declared)


def executed_sequence_error(
    sname: str, sequence: Sequence[str], operations: Collection[str]
) -> Optional[Tuple[str, Tuple[str, ...]]]:
    """Why the well-shaped ``executed`` sequence of schedule ``sname``
    does not fit its declared ``operations``: ``(message, nodes)`` when
    it does not list each of them exactly once (``nodes`` the missing
    and the extra ones), else ``None``.  Lint reports it as CTX302;
    :meth:`SystemBuilder.from_spec` raises the message."""
    mismatch = _listing_mismatch(operations, sequence)
    if mismatch is None:
        return None
    missing, extra = mismatch
    return (
        f"execution sequence of {sname!r} does not match the declared "
        f"operations (missing={missing}, extra={extra})",
        tuple(missing + extra),
    )


def executions_shape_errors(value: object) -> List[str]:
    """Why a document's top-level ``executions`` section is malformed:
    one message when it is not a mapping, else one per schedule whose
    sequence is not a list of operation names.  Empty when well formed
    or absent; :func:`execution_lane_errors` then checks the lanes
    against the system."""
    if value is None:
        return []
    if not isinstance(value, Mapping):
        return ["'executions' is not a mapping of schedule -> sequence"]
    return [
        f"'executions' of schedule {sname!r} is not a list of operations"
        for sname, sequence in value.items()
        if not _is_name_list(sequence)
    ]


def execution_lane_errors(
    value: Mapping, operations_of: Mapping[str, Collection[str]]
) -> List[Tuple[str, str, Tuple[str, ...]]]:
    """Why the lanes of a well-shaped ``executions`` section do not fit
    a system whose schedules have the operations ``operations_of``: one
    ``(schedule, message, nodes)`` per lane that names an unknown
    schedule (``nodes`` empty), or that does not list each operation
    of its schedule exactly once (``nodes`` the missing and the extra
    ones).  Empty when every lane fits.

    Lint reports the first kind as CTX305 and the second as CTX302;
    :func:`repro.io.text_format.loads` raises the first message."""
    errors: List[Tuple[str, str, Tuple[str, ...]]] = []
    for sname, sequence in value.items():
        sname = str(sname)
        if sname not in operations_of:
            errors.append(
                (sname, f"'executions' names unknown schedule {sname!r}", ())
            )
            continue
        mismatch = _listing_mismatch(operations_of[sname], sequence)
        if mismatch is not None:
            missing, extra = mismatch
            errors.append(
                (
                    sname,
                    f"top-level execution of {sname!r} does not match its "
                    f"declared operations (missing={missing}, extra={extra})",
                    tuple(missing + extra),
                )
            )
    return errors


def _is_pair(entry: object) -> bool:
    """A spec pair is a two-element list of names."""
    if isinstance(entry, _LISTS) and len(entry) == 2:
        a, b = entry
        return isinstance(a, _NAME) and isinstance(b, _NAME)
    return False


def pair_shape_errors(sname: str, key: str, value: object) -> List[str]:
    """Why the value under ``key`` of schedule ``sname`` in a spec is
    not a list of pairs: one message per malformed entry, or one for a
    value that is not a list at all.  Empty when it is well formed
    (an absent, ``None``, value lists no pairs).

    Every entry must pass :func:`_is_pair`.  Lint reports each message
    as CTX305; :meth:`SystemBuilder.from_spec` raises the
    first.
    """
    if value is None:
        return []
    if not isinstance(value, _LISTS):
        return [f"{key!r} of schedule {sname!r} is not a list of pairs"]
    return [
        malformed_pair_message(sname, key, entry)
        for entry in value
        if not _is_pair(entry)
    ]


def malformed_pair_message(sname: str, key: str, entry: object) -> str:
    """The wording for one ``entry`` under ``key`` of schedule
    ``sname`` that fails :func:`_is_pair`."""
    return (
        f"{key!r} of schedule {sname!r} contains the malformed "
        f"entry {entry!r} (expected a pair)"
    )


def _spec_pairs(sname: str, key: str, value: object) -> List[Tuple[str, str]]:
    """The pairs listed under ``key`` of schedule ``sname`` in a spec,
    converted and shape-checked in one pass; a malformed value raises
    :class:`ModelError` with the first :func:`pair_shape_errors`
    message."""
    if value is None:
        return []
    pairs: List[Tuple[str, str]] = []
    if isinstance(value, _LISTS):
        for entry in value:
            if not _is_pair(entry):
                break
            pairs.append((entry[0], entry[1]))
        else:
            return pairs
    raise ModelError(pair_shape_errors(sname, key, value)[0])


def build_system(spec: Mapping, **kwargs) -> CompositeSystem:
    """One-shot: :meth:`SystemBuilder.from_spec` followed by ``build``."""
    return SystemBuilder.from_spec(spec).build(**kwargs)
