"""The well-formedness pass: every Def. 2/3/4 constraint as diagnostics.

The engine enforces the model definitions fail-fast — a malformed model
surfaces as the *first* :class:`~repro.exceptions.ModelError` raised
mid-construction.  This pass re-checks the same constraints as
*collected* diagnostics so one run reports every defect:

1. a **raw pass** over the document dictionary mirrors every
   unconditional construction check (dangling references, duplicate
   declarations, cyclic orders) — these must be caught *before*
   construction, because constructors raise on them regardless of
   ``validate=False``;
2. when the raw pass finds no errors, the system is **constructed**
   with ``validate=False`` (axioms and Def. 4.7 deferred) and the
   engine's own check generators —
   :meth:`~repro.core.schedule.Schedule.iter_axiom_violations` and
   :meth:`~repro.core.system.CompositeSystem.iter_order_propagation_violations`
   — are drained into diagnostics.  Because these are the *same*
   generators the constructors raise from, linter and engine can never
   disagree about what constitutes a violation.

Documents are linted **as written**: construction here does *not* apply
the builder's automatic Def.-4.7 order propagation, so a document whose
explicit relations violate Def. 4.7 gets a ``CTX207``/``CTX208``
diagnostic (with a fix hint pointing at the propagation) even though
:func:`repro.io.load` would silently repair it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.builder import (
    SystemBuilder,
    _execution_pairs,
    _is_pair,
    body_shape_error,
    executed_sequence_error,
    executed_shape_error,
    execution_lane_errors,
    executions_shape_errors,
    malformed_pair_message,
    pair_shape_errors,
    schedules_shape_error,
    transaction_shape_error,
    transactions_shape_error,
)
from repro.core.front import Front
from repro.core.orders import Relation
from repro.core.schedule import Schedule, _normalize_conflicts
from repro.core.system import CompositeSystem
from repro.exceptions import CompositeTxError, ScheduleAxiomError
from repro.io.text_format import FORMAT_VERSION
from repro.io.trace import TRACE_VERSION
from repro.lint.diagnostics import AXIOM_CODES, Diagnostic, DiagnosticCollector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.topologies import TopologySpec

_AXIOM_HINTS: Dict[str, str] = {
    "1a": "order the conflicting operations to match the weak input order",
    "1b": "order the conflicting operations to match the weak input order",
    "1c": "add a weak output pair between the conflicting operations",
    "2a": "surface the intra-transaction weak order in the weak output",
    "2b": "surface the intra-transaction strong order in the strong output",
    "3": "expand the strong input order into strong output operation pairs",
    "4": "every strong output pair must also be a weak output pair",
}


def axiom_diagnostic(
    collector: DiagnosticCollector, violation: ScheduleAxiomError
) -> Diagnostic:
    """Record one Def.-3 axiom violation under its stable code, reusing
    the exception's structured payload as the diagnostic location."""
    return collector.report(
        AXIOM_CODES[violation.axiom],
        str(violation),
        schedule=violation.schedule,
        nodes=violation.operations + violation.transactions,
        fix_hint=_AXIOM_HINTS[violation.axiom],
    )


def lint_schedule_axioms(
    collector: DiagnosticCollector, schedule: Schedule
) -> None:
    """Drain every axiom violation of one schedule into the collector."""
    for violation in schedule.iter_axiom_violations():
        axiom_diagnostic(collector, violation)


# ----------------------------------------------------------------------
# API path: lint already-constructed Schedule objects
# ----------------------------------------------------------------------
def lint_schedules(
    collector: DiagnosticCollector, schedules: Sequence[Schedule]
) -> Optional[CompositeSystem]:
    """Lint a set of constructed schedules as one composite system.

    Collects every system-level (CTX2xx) and axiom (CTX10x) defect;
    when the structural checks pass, the :class:`CompositeSystem` is
    assembled (``validate=False``) and returned so further passes (the
    static safety prover) can run on it.  Returns ``None`` when the
    system could not be assembled.
    """
    before = len(collector.errors)
    by_name: Dict[str, Schedule] = {}
    for schedule in schedules:
        if schedule.name in by_name:
            collector.report(
                "CTX201",
                f"two schedules named {schedule.name!r}",
                schedule=schedule.name,
                fix_hint="rename one of the schedules",
            )
            continue
        by_name[schedule.name] = schedule

    txn_schedule: Dict[str, str] = {}
    op_owner: Dict[str, Tuple[str, str]] = {}
    for sname, schedule in by_name.items():
        for tname, txn in schedule.transactions.items():
            if tname in txn_schedule and txn_schedule[tname] != sname:
                collector.report(
                    "CTX202",
                    f"transaction {tname!r} assigned to both "
                    f"{txn_schedule[tname]!r} and {sname!r}",
                    schedule=sname,
                    nodes=(tname,),
                    fix_hint="give each schedule its own transactions",
                )
            else:
                txn_schedule[tname] = sname
            for op in txn.operations:
                owner = op_owner.get(op)
                if owner is not None and owner != (sname, tname):
                    collector.report(
                        "CTX203",
                        f"node {op!r} is an operation of both "
                        f"{owner[1]!r} and {tname!r}",
                        schedule=sname,
                        nodes=(op,),
                        fix_hint="operation names must be globally unique",
                    )
                else:
                    op_owner[op] = (sname, tname)

    if txn_schedule and not any(
        tname not in op_owner for tname in txn_schedule
    ):
        collector.report(
            "CTX204",
            "every transaction is invoked by another one — the system "
            "has no root",
            fix_hint="at least one transaction must be nobody's operation",
        )

    _lint_invocation_graph(
        collector,
        {
            sname: list(schedule.operations)
            for sname, schedule in by_name.items()
        },
        txn_schedule,
    )

    for schedule in by_name.values():
        lint_schedule_axioms(collector, schedule)

    if len(collector.errors) > before:
        return None
    try:
        system = CompositeSystem(list(by_name.values()), validate=False)
    except CompositeTxError as err:
        collector.report("CTX305", f"system construction failed: {err}")
        return None
    lint_order_propagation(collector, system)
    return system


def lint_order_propagation(
    collector: DiagnosticCollector, system: CompositeSystem
) -> None:
    """Def. 4.7 as diagnostics, via the engine's own generator."""
    for violation in system.iter_order_propagation_violations():
        collector.report(
            "CTX207" if violation.kind == "weak" else "CTX208",
            str(violation),
            schedule=violation.caller,
            nodes=violation.pair,
            fix_hint=(
                f"add the pair to the {violation.kind} input order of "
                f"{violation.callee!r} (SystemBuilder propagates it "
                "automatically)"
            ),
        )


def _lint_invocation_graph(
    collector: DiagnosticCollector,
    operations_of: Mapping[str, Sequence[str]],
    txn_schedule: Mapping[str, str],
) -> None:
    """CTX205/CTX206: self-invocation and invocation-graph recursion."""
    graph = Relation(elements=operations_of)
    for sname, ops in operations_of.items():
        for op in ops:
            target = txn_schedule.get(op)
            if target is None:
                continue
            if target == sname:
                collector.report(
                    "CTX205",
                    f"schedule {sname!r} invokes itself through {op!r}",
                    schedule=sname,
                    nodes=(op,),
                    fix_hint="a transaction cannot run on the schedule "
                    "that invokes it",
                )
            else:
                graph.add(sname, target)
    cycle = graph.find_cycle()
    if cycle is not None:
        collector.report(
            "CTX206",
            "recursion in the invocation graph: "
            + " -> ".join(str(n) for n in cycle),
            nodes=tuple(str(n) for n in cycle),
            fix_hint="invocations must form a DAG (Def. 4.6)",
        )


# ----------------------------------------------------------------------
# document path: lint a raw system/execution document
# ----------------------------------------------------------------------
def lint_system_document(
    collector: DiagnosticCollector, document: Mapping
) -> Optional[CompositeSystem]:
    """Lint one execution/system document (the text-format spec shape).

    Runs the raw pass, then — when the raw pass is error-free — builds
    the system (axioms deferred) and drains the engine's axiom and
    order-propagation generators.  Returns the constructed system for
    the safety pass, or ``None`` when construction was impossible.
    """
    before = len(collector.errors)
    version = document.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        collector.report(
            "CTX303",
            f"unsupported format version {version!r} "
            f"(this library writes version {FORMAT_VERSION})",
            fix_hint="re-save the document with the current library",
        )
    schedules = document.get("schedules")
    error = schedules_shape_error(schedules)
    if error is not None:
        collector.report(
            "CTX305",
            error,
            fix_hint="a system document maps schedule names to bodies",
        )
        return None

    ops_of_schedule: Dict[str, List[str]] = {}
    txns_of_schedule: Dict[str, List[str]] = {}
    for sname, body in schedules.items():
        error = body_shape_error(sname, body)
        if error is not None:
            collector.report("CTX305", error, schedule=str(sname))
            continue
        ops, txns = _lint_raw_schedule(collector, str(sname), body)
        ops_of_schedule[str(sname)] = ops
        txns_of_schedule[str(sname)] = txns

    txn_schedule = _lint_cross_schedule(
        collector, ops_of_schedule, txns_of_schedule
    )
    _lint_invocation_graph(collector, ops_of_schedule, txn_schedule)
    _lint_executions_section(collector, document, ops_of_schedule)

    if len(collector.errors) > before:
        return None  # construction would raise on the defects just found
    try:
        system = (
            SystemBuilder.from_spec(document)
            .build(validate=False, propagate_orders=False)
        )
    except CompositeTxError as err:
        collector.report(
            "CTX305", f"system construction failed unexpectedly: {err}"
        )
        return None
    for schedule in system.schedules.values():
        lint_schedule_axioms(collector, schedule)
    lint_order_propagation(collector, system)
    return system


def _pairs(value: object) -> List[Tuple[str, str]]:
    """Coerce a trace front's JSON pair list, dropping malformed
    entries."""
    out: List[Tuple[str, str]] = []
    if isinstance(value, (list, tuple)):
        for entry in value:
            if isinstance(entry, (list, tuple)) and len(entry) == 2:
                out.append((str(entry[0]), str(entry[1])))
    return out


def _checked_pairs(
    collector: DiagnosticCollector,
    sname: str,
    key: str,
    value: object,
) -> List[Tuple[str, str]]:
    """The pairs listed under ``key`` of schedule ``sname``, in one
    pass: an entry that fails the builder's pair rule, or a value that
    is not a list, is reported as CTX305 in the builder's wording and
    contributes no pair."""
    pairs: List[Tuple[str, str]] = []
    if isinstance(value, (list, tuple)):
        for entry in value:
            if _is_pair(entry):
                pairs.append((entry[0], entry[1]))
            else:
                collector.report(
                    "CTX305",
                    malformed_pair_message(sname, key, entry),
                    schedule=sname,
                )
    elif value is not None:  # not a list: one message
        collector.report(
            "CTX305", pair_shape_errors(sname, key, value)[0], schedule=sname
        )
    return pairs


def _lint_raw_schedule(
    collector: DiagnosticCollector, sname: str, body: Mapping
) -> Tuple[List[str], List[str]]:
    """The raw pass over one schedule body.

    Mirrors every unconditional check of ``Transaction.__init__`` /
    ``Schedule.__init__`` / the builder so that a raw-clean schedule is
    guaranteed to construct.  Returns ``(operations, transactions)``
    for the cross-schedule checks.
    """
    ops: List[str] = []
    txn_names: List[str] = []
    op_owner: Dict[str, str] = {}
    intra_weak: List[Tuple[str, str]] = []
    intra_strong: List[Tuple[str, str]] = []

    transactions = body.get("transactions", {})
    error = transactions_shape_error(sname, transactions)
    if error is not None:
        collector.report("CTX305", error, schedule=sname)
        transactions = {}
    for tname, tdef in transactions.items():
        tname = str(tname)
        txn_names.append(tname)
        error = transaction_shape_error(sname, tname, tdef)
        if error is not None:
            collector.report("CTX305", error, schedule=sname, nodes=(tname,))
            continue
        if isinstance(tdef, Mapping):
            t_ops = list(tdef.get("ops", []))
            weak = _checked_pairs(
                collector, sname, f"{tname}.weak", tdef.get("weak")
            )
            strong = _checked_pairs(
                collector, sname, f"{tname}.strong", tdef.get("strong")
            )
            if tdef.get("sequential"):
                strong = strong + list(zip(t_ops, t_ops[1:]))
        else:
            t_ops = list(tdef)
            weak, strong = [], []
        seen: Set[str] = set()
        for op in t_ops:
            if op in seen:
                collector.report(
                    "CTX203",
                    f"transaction {tname!r} lists operation {op!r} twice",
                    schedule=sname,
                    nodes=(op, tname),
                    fix_hint="list each operation once",
                )
                continue
            seen.add(op)
            if op == tname:
                collector.report(
                    "CTX203",
                    f"transaction {tname!r} cannot contain itself",
                    schedule=sname,
                    nodes=(tname,),
                )
                continue
            owner = op_owner.get(op)
            if owner is not None:
                collector.report(
                    "CTX203",
                    f"operation {op!r} belongs to both {owner!r} and "
                    f"{tname!r} of schedule {sname!r}",
                    schedule=sname,
                    nodes=(op,),
                    fix_hint="operation names must be globally unique",
                )
                continue
            op_owner[op] = tname
            ops.append(op)
        member_ok = True
        for a, b in weak + strong:
            for op in (a, b):
                if op not in seen:
                    member_ok = False
                    collector.report(
                        "CTX113",
                        f"intra-transaction order of {tname!r} mentions "
                        f"{op!r}, which is not one of its operations",
                        schedule=sname,
                        nodes=(op, tname),
                        fix_hint="order only declared operations",
                    )
        if member_ok and (strong or weak):
            intra = Relation(strong + weak)
            cycle = intra.find_cycle()
            if cycle is not None:
                collector.report(
                    "CTX115",
                    f"intra-transaction order of {tname!r} is cyclic: "
                    + " -> ".join(str(n) for n in cycle),
                    schedule=sname,
                    nodes=tuple(str(n) for n in cycle),
                    fix_hint="intra-transaction orders must be acyclic",
                )
            else:
                intra_weak.extend(strong + weak)
                intra_strong.extend(strong)

    known_ops = set(ops)
    known_txns = set(txn_names)

    # conflicts: all self-conflicts and duplicates in one pass
    raw_conflicts = _checked_pairs(
        collector, sname, "conflicts", body.get("conflicts")
    )

    def _conflict_issue(kind: str, pair: Tuple[str, str]) -> None:
        if kind == "self-conflict":
            collector.report(
                "CTX110",
                f"operation {pair[0]!r} of schedule {sname!r} cannot "
                "conflict with itself",
                schedule=sname,
                nodes=(pair[0],),
                fix_hint="conflicts relate two distinct operations",
            )
        else:
            collector.report(
                "CTX111",
                f"conflict pair ({pair[0]!r}, {pair[1]!r}) declared "
                f"twice on schedule {sname!r}",
                schedule=sname,
                nodes=pair,
                fix_hint="drop the duplicate declaration",
            )

    usable_conflicts = _normalize_conflicts(raw_conflicts, _conflict_issue)
    for pair in sorted(usable_conflicts, key=sorted):
        for op in sorted(pair):
            if op not in known_ops:
                collector.report(
                    "CTX112",
                    f"conflict on {op!r}, which is not an operation of "
                    f"schedule {sname!r}",
                    schedule=sname,
                    nodes=(op,),
                    fix_hint="conflicts may only name declared operations",
                )

    # input and output orders, each list read once
    orders: Dict[str, List[Tuple[str, str]]] = {}

    # input orders over transactions
    input_ok = True
    for key in ("weak_input", "strong_input"):
        orders[key] = _checked_pairs(collector, sname, key, body.get(key))
        for a, b in orders[key]:
            for t in (a, b):
                if t not in known_txns:
                    input_ok = False
                    collector.report(
                        "CTX113",
                        f"{key} of schedule {sname!r} mentions {t!r}, "
                        "which is not one of its transactions",
                        schedule=sname,
                        nodes=(t,),
                        fix_hint="input orders relate the schedule's own "
                        "transactions",
                    )
    if input_ok:
        weak_in = Relation(orders["strong_input"] + orders["weak_input"])
        cycle = weak_in.find_cycle()
        if cycle is not None:
            collector.report(
                "CTX114",
                f"weak input order of schedule {sname!r} is cyclic: "
                + " -> ".join(str(n) for n in cycle),
                schedule=sname,
                nodes=tuple(str(n) for n in cycle),
                fix_hint="input orders must be strict partial orders",
            )

    # output orders over operations
    output_ok = True
    for key in ("weak_output", "strong_output"):
        orders[key] = _checked_pairs(collector, sname, key, body.get(key))
        for a, b in orders[key]:
            for op in (a, b):
                if op not in known_ops:
                    output_ok = False
                    collector.report(
                        "CTX113",
                        f"{key} of schedule {sname!r} mentions {op!r}, "
                        "which is not one of its operations",
                        schedule=sname,
                        nodes=(op,),
                        fix_hint="output orders relate the schedule's own "
                        "operations",
                    )

    # recorded execution sequence
    executed = body.get("executed")
    execution_pairs: List[Tuple[str, str]] = []
    error = executed_shape_error(sname, executed)
    if error is not None:
        collector.report("CTX305", error, schedule=sname)
        output_ok = False
    elif executed is not None:
        mode = body.get("executed_mode", "conflicts")
        if mode not in ("conflicts", "temporal"):
            collector.report(
                "CTX305",
                f"unknown execution mode {mode!r} on schedule {sname!r}",
                schedule=sname,
                fix_hint="use 'conflicts' or 'temporal'",
            )
            mode = "conflicts"
        sequence = list(executed)
        mismatch = executed_sequence_error(sname, sequence, known_ops)
        if mismatch is not None:
            message, nodes = mismatch
            collector.report(
                "CTX302",
                message,
                schedule=sname,
                nodes=nodes,
                fix_hint="the sequence must list every declared operation "
                "exactly once",
            )
            output_ok = False
        else:
            usable = [tuple(sorted(p)) for p in usable_conflicts]
            execution_pairs = _execution_pairs(
                sequence, mode, [(a, b) for a, b in usable]
            )

    if output_ok:
        # Everything the builder folds into the weak output: explicit
        # pairs, intra-transaction orders, execution-derived pairs, and
        # the axiom-3 expansion of strong inputs.
        weak_out = Relation(
            orders["strong_output"]
            + orders["weak_output"]
            + intra_weak
            + execution_pairs
        )
        if input_ok:
            strong_in = Relation(orders["strong_input"]).transitive_closure()
            txn_ops: Dict[str, List[str]] = {}
            for op, owner in op_owner.items():
                txn_ops.setdefault(owner, []).append(op)
            for t1, t2 in strong_in.pairs():
                for a in txn_ops.get(str(t1), []):
                    for b in txn_ops.get(str(t2), []):
                        weak_out.add(a, b)
        cycle = weak_out.find_cycle()
        if cycle is not None:
            collector.report(
                "CTX115",
                f"weak output order of schedule {sname!r} is cyclic: "
                + " -> ".join(str(n) for n in cycle),
                schedule=sname,
                nodes=tuple(str(n) for n in cycle),
                fix_hint="output orders must be strict partial orders",
            )
    return ops, txn_names


def _lint_cross_schedule(
    collector: DiagnosticCollector,
    ops_of_schedule: Mapping[str, Sequence[str]],
    txns_of_schedule: Mapping[str, Sequence[str]],
) -> Dict[str, str]:
    """Def. 4.1 / Def. 5 / Def. 4.5 across schedules.  Returns the
    ``transaction -> schedule`` map for the invocation-graph check."""
    txn_schedule: Dict[str, str] = {}
    for sname, txns in txns_of_schedule.items():
        for tname in txns:
            if tname in txn_schedule:
                collector.report(
                    "CTX202",
                    f"transaction {tname!r} assigned to two schedules "
                    f"({txn_schedule[tname]!r} and {sname!r})",
                    schedule=sname,
                    nodes=(tname,),
                    fix_hint="a transaction belongs to exactly one "
                    "schedule (Def. 4.1)",
                )
            else:
                txn_schedule[tname] = sname
    op_owner: Dict[str, str] = {}
    for sname, ops in ops_of_schedule.items():
        for op in ops:
            if op in op_owner and op_owner[op] != sname:
                collector.report(
                    "CTX203",
                    f"node {op!r} is an operation of transactions in "
                    f"both {op_owner[op]!r} and {sname!r}",
                    schedule=sname,
                    nodes=(op,),
                    fix_hint="operation names must be globally unique "
                    "(Def. 5)",
                )
            else:
                op_owner[op] = sname
    all_ops = set(op_owner)
    if txn_schedule and all(t in all_ops for t in txn_schedule):
        collector.report(
            "CTX204",
            "every transaction is invoked by another one — the system "
            "has no root transaction",
            fix_hint="at least one transaction must be nobody's operation "
            "(Def. 4.5)",
        )
    return txn_schedule


def _lint_executions_section(
    collector: DiagnosticCollector,
    document: Mapping,
    ops_of_schedule: Mapping[str, Sequence[str]],
) -> None:
    """The optional top-level ``executions`` section (temporal layouts)."""
    executions = document.get("executions")
    errors = executions_shape_errors(executions)
    for error in errors:
        collector.report("CTX305", error)
    if executions is None or errors:
        return
    for sname, message, nodes in execution_lane_errors(
        executions, ops_of_schedule
    ):
        if sname not in ops_of_schedule:
            collector.report("CTX305", message, schedule=sname)
            continue
        collector.report(
            "CTX302",
            message,
            schedule=sname,
            nodes=nodes,
            fix_hint="the lane must list every operation exactly once",
        )


# ----------------------------------------------------------------------
# trace documents
# ----------------------------------------------------------------------
def lint_trace_document(
    collector: DiagnosticCollector, document: Mapping
) -> None:
    """Lint a reduction-trace document (``check --trace`` output)."""
    version = document.get("version")
    # Version 1 stays lintable: the loader still reads it (the v2 skip
    # field is inferred), so the linter accepts the same range.
    if version not in (1, TRACE_VERSION):
        collector.report(
            "CTX303",
            f"unsupported trace version {version!r} "
            f"(this library reads versions 1..{TRACE_VERSION})",
            fix_hint="regenerate the trace with the current library",
        )
        return
    succeeded = document.get("succeeded")
    if not isinstance(succeeded, bool):
        collector.report(
            "CTX305", "trace has no boolean 'succeeded' verdict"
        )
        return
    if succeeded and document.get("failure") is not None:
        collector.report(
            "CTX304",
            "trace claims success but records a failure certificate",
            fix_hint="a successful reduction has no failure section",
        )
    if not succeeded and document.get("failure") is None:
        collector.report(
            "CTX304",
            "trace claims rejection but records no failure certificate",
        )
    for entry in document.get("fronts", []):
        try:
            nodes = tuple(str(n) for n in entry["nodes"])
            front = Front(
                level=int(entry["level"]),
                nodes=nodes,
                observed=Relation(_pairs(entry["observed"]), elements=nodes),
                input_weak=Relation(
                    _pairs(entry["input_weak"]), elements=nodes
                ),
                input_strong=Relation(
                    _pairs(entry["input_strong"]), elements=nodes
                ),
            )
        except (KeyError, TypeError, ValueError) as err:
            collector.report(
                "CTX305", f"malformed trace front: {err!r}"
            )
            continue
        recorded = entry.get("conflict_consistent")
        actual = front.is_conflict_consistent()
        if recorded is not None and bool(recorded) != actual:
            collector.report(
                "CTX304",
                f"level-{front.level} front records "
                f"conflict_consistent={bool(recorded)} but its relations "
                f"say {actual}",
                nodes=(f"level-{front.level}",),
                fix_hint="the trace was edited or truncated; regenerate it",
            )
        if succeeded and not actual:
            collector.report(
                "CTX304",
                f"trace claims success but its level-{front.level} front "
                "is not conflict consistent",
                nodes=(f"level-{front.level}",),
            )


# ----------------------------------------------------------------------
# topology documents
# ----------------------------------------------------------------------
def lint_topology_document(
    collector: DiagnosticCollector, document: Mapping
) -> Optional[TopologySpec]:
    """Lint a topology-spec document (``levels``/``invokes``/roots).

    Returns the parsed :class:`TopologySpec` when structurally sound so
    the safety pass can analyze it, otherwise ``None``.
    """
    from repro.workloads.topologies import TopologySpec

    before = len(collector.errors)
    levels = document.get("levels")
    if not isinstance(levels, Mapping) or not levels:
        collector.report(
            "CTX305",
            "topology has no 'levels' mapping",
            fix_hint="map every schedule name to its level (Def. 9)",
        )
        return None
    parsed_levels: Dict[str, int] = {}
    for name, level in levels.items():
        try:
            parsed_levels[str(name)] = int(level)
        except (TypeError, ValueError):
            collector.report(
                "CTX305",
                f"level of schedule {name!r} is not an integer: {level!r}",
                schedule=str(name),
            )
    invokes_raw = document.get("invokes", {})
    if not isinstance(invokes_raw, Mapping):
        collector.report("CTX305", "'invokes' is not a mapping")
        invokes_raw = {}
    invokes: Dict[str, List[str]] = {}
    for caller, targets in invokes_raw.items():
        caller = str(caller)
        if caller not in parsed_levels:
            collector.report(
                "CTX221",
                f"'invokes' names unknown schedule {caller!r}",
                schedule=caller,
                fix_hint="declare the schedule in 'levels' first",
            )
            continue
        invokes[caller] = []
        for target in targets if isinstance(targets, (list, tuple)) else []:
            target = str(target)
            if target not in parsed_levels:
                collector.report(
                    "CTX221",
                    f"{caller!r} invokes unknown schedule {target!r}",
                    schedule=caller,
                    nodes=(target,),
                    fix_hint="declare the schedule in 'levels' first",
                )
                continue
            invokes[caller].append(target)
            if parsed_levels[target] >= parsed_levels[caller]:
                collector.report(
                    "CTX220",
                    f"{caller!r} (level {parsed_levels[caller]}) cannot "
                    f"invoke {target!r} (level {parsed_levels[target]})",
                    schedule=caller,
                    nodes=(target,),
                    fix_hint="invocations go strictly downward in level "
                    "(Def. 9)",
                )
    roots_raw = document.get("root_schedules", [])
    roots: List[str] = []
    for root in roots_raw if isinstance(roots_raw, (list, tuple)) else []:
        root = str(root)
        if root not in parsed_levels:
            collector.report(
                "CTX221",
                f"root schedule {root!r} is not declared in 'levels'",
                schedule=root,
            )
        else:
            roots.append(root)
    if not roots:
        collector.report(
            "CTX222",
            "topology declares no (known) root schedules",
            fix_hint="list at least one schedule in 'root_schedules'",
        )
    if len(collector.errors) > before:
        return None
    for name in parsed_levels:
        invokes.setdefault(name, [])
    return TopologySpec(
        name=str(document.get("name", "topology")),
        levels=parsed_levels,
        invokes=invokes,
        root_schedules=roots,
    )
