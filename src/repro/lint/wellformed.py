"""The well-formedness pass: every Def. 2-9 violation as a diagnostic.

The engine checks the model definitions in one place: each rule has
one check site in :mod:`repro.core` (the shape rules of
:meth:`~repro.core.builder.SystemBuilder.from_spec` and the
constructors of :class:`~repro.core.transaction.Transaction`,
:class:`~repro.core.schedule.Schedule` and
:class:`~repro.core.system.CompositeSystem`), which states its
violation as a structured :class:`~repro.exceptions.ModelError`: the
CTX code, the schedule, the nodes, the message and a fix hint.
``check`` constructs without a collector, so the first violation
raises.  This pass constructs *with* one (:func:`collect`), so each
site reports its violation and carries on with the usable data, and
one run reports every defect; a message is never written here.

1. the document is **built** through
   :meth:`~repro.core.builder.SystemBuilder.from_spec` and ``build``
   with ``validate=False`` (axioms and Def. 4.7 deferred);
2. only when that build reported no error are the engine's own check
   generators drained:
   :meth:`~repro.core.schedule.Schedule.iter_axiom_violations` and
   :meth:`~repro.core.system.CompositeSystem.iter_order_propagation_violations`
   (the ones ``validate_axioms`` and Def.-4.7 validation raise the first
   of).  A build that reported an error is thrown away.

Since both commands run the same checks, ``check`` fails on a document
exactly when this pass reports an error from the build or the axioms,
with the message of one of them.  Documents are linted **as written**:
construction here does *not* apply the builder's automatic Def.-4.7
order propagation, so a document whose explicit relations violate
Def. 4.7 gets a ``CTX207``/``CTX208`` diagnostic (with a fix hint
pointing at the propagation) even though :func:`repro.io.load` would
silently repair it.  The repair can close a cycle, though, which
``check`` then reports: for such a document the build runs once more
with propagation, as ``check``'s does, and reports the cyclic orders
it finds (CTX114, or CTX115 through Def.-3 axiom 3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

from repro.core.builder import SystemBuilder
from repro.core.schedule import Schedule
from repro.core.system import CompositeSystem
from repro.exceptions import CompositeTxError, ModelError, Report
from repro.io.text_format import format_version_error
from repro.io.trace import trace_from_dict
from repro.lint.diagnostics import Diagnostic, DiagnosticCollector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.topologies import TopologySpec


def model_diagnostic(
    collector: DiagnosticCollector, error: ModelError
) -> Diagnostic:
    """Record one violation under its code, with the exception's
    structured payload as the diagnostic location and fix hint."""
    return collector.report(
        error.code,
        str(error),
        schedule=error.schedule,
        nodes=error.nodes,
        fix_hint=error.hint,
    )


def collect(collector: DiagnosticCollector) -> Report:
    """The collector as the ``report`` of a collecting construction."""

    def report(error: ModelError) -> None:
        model_diagnostic(collector, error)

    return report


def lint_schedule_axioms(
    collector: DiagnosticCollector, schedule: Schedule
) -> None:
    """Drain every axiom violation of one schedule into the collector."""
    for violation in schedule.iter_axiom_violations():
        model_diagnostic(collector, violation)


def lint_order_propagation(
    collector: DiagnosticCollector, system: CompositeSystem
) -> None:
    """Def. 4.7 as diagnostics, via the engine's own generator."""
    for violation in system.iter_order_propagation_violations():
        model_diagnostic(collector, violation)


def _lint_built(
    collector: DiagnosticCollector, system: CompositeSystem, before: int
) -> Optional[CompositeSystem]:
    """The axiom and Def.-4.7 passes over a system whose collecting
    construction reported no error beyond the first ``before``; ``None``
    when it did (such a build is thrown away)."""
    if len(collector.errors) > before:
        return None
    for schedule in system.schedules.values():
        lint_schedule_axioms(collector, schedule)
    lint_order_propagation(collector, system)
    return system


# ----------------------------------------------------------------------
# API path: lint already-constructed Schedule objects
# ----------------------------------------------------------------------
def lint_schedules(
    collector: DiagnosticCollector, schedules: Sequence[Schedule]
) -> Optional[CompositeSystem]:
    """Lint a set of constructed schedules as one composite system.

    Assembles the :class:`CompositeSystem` (``validate=False``) with
    the collector, so every system-level (CTX2xx) defect is reported;
    when there is none, the axiom (CTX10x) and Def.-4.7 passes run and
    the system is returned so further passes (the static safety prover)
    can run on it.  Returns ``None`` when the system is ill-formed.
    """
    before = len(collector.errors)
    system = CompositeSystem(
        schedules, validate=False, report=collect(collector)
    )
    return _lint_built(collector, system, before)


# ----------------------------------------------------------------------
# document path: lint a raw system/execution document
# ----------------------------------------------------------------------
def lint_system_document(
    collector: DiagnosticCollector, document: Mapping
) -> Optional[CompositeSystem]:
    """Lint one execution/system document (the text-format spec shape).

    Builds the system with the collector (axioms deferred, no Def.-4.7
    propagation) and, when that reported no error, drains the engine's
    axiom and order-propagation generators.  Returns the constructed
    system for the safety pass, or ``None`` when it is ill-formed.
    """
    before = len(collector.errors)
    version_error = format_version_error(document)
    if version_error is not None:
        model_diagnostic(collector, version_error)
    builder = SystemBuilder.from_spec(document, report=collect(collector))
    if not builder.schedule_names:
        return None  # nothing to build; from_spec has reported why
    try:
        system = builder.build(validate=False, propagate_orders=False)
    except CompositeTxError as err:
        collector.report(
            "CTX305", f"system construction failed unexpectedly: {err}"
        )
        return None
    built = _lint_built(collector, system, before)
    if built is not None and not _PROPAGATION.isdisjoint(collector.counts()):
        _lint_propagated_cycles(collector, document)
    return built


#: Def. 4.7 violations: what ``check``'s propagation repairs
_PROPAGATION = frozenset({"CTX207", "CTX208"})


def _lint_propagated_cycles(
    collector: DiagnosticCollector, document: Mapping
) -> None:
    """The cyclic orders that Def.-4.7 propagation closes in a document
    whose as-written construction reported no error: propagation only
    adds input pairs, and through Def.-3 axiom 3 strong output pairs,
    so every cycle this build finds is one that ``check`` reports."""

    def report(error: ModelError) -> None:
        if error.code in ("CTX114", "CTX115"):
            model_diagnostic(collector, error)

    SystemBuilder.from_spec(document, report=report).build(validate=False)


# ----------------------------------------------------------------------
# trace documents
# ----------------------------------------------------------------------
def lint_trace_document(
    collector: DiagnosticCollector, document: Mapping[str, Any]
) -> None:
    """Lint a reduction-trace document (``check --trace`` output):
    every violation of the loader's own check site,
    :func:`~repro.io.trace.trace_from_dict`."""
    trace_from_dict(document, report=collect(collector))


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
