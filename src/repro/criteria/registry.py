"""Uniform interface over every correctness criterion.

The analysis package and the benchmark harness need to run "every
criterion that applies" over a recorded execution and tabulate verdicts.
:class:`RecordedExecution` (defined in :mod:`repro.io.recorded`,
re-exported here) bundles a composite system with the temporal
execution sequences the order-sensitive criteria (OPSR, seriality) need;
:func:`classify` returns a name → verdict mapping, skipping criteria
whose structural preconditions (stack/fork/join) fail.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.core.correctness import is_composite_correct
from repro.core.system import CompositeSystem
from repro.criteria.fork import is_fcc, is_fork
from repro.criteria.join import is_jcc, is_join
from repro.criteria.llsr import is_llsr
from repro.criteria.opsr import is_opsr
from repro.criteria.stack import is_scc, is_stack
from repro.io.recorded import RecordedExecution  # re-exported


#: Criterion names in permissiveness order (narrowest first) as used by
#: the H1 hierarchy benchmark.
CRITERIA_ORDER = ("serial", "llsr", "opsr", "scc", "fcc", "jcc", "comp_c")


def classify(recorded: RecordedExecution) -> Mapping[str, Optional[bool]]:
    """Verdict of every criterion on a recorded execution.

    Returns a mapping from criterion name to ``True``/``False``;
    criteria whose structural precondition does not hold map to
    ``None`` (not applicable).
    """
    system = recorded.system
    stacky = is_stack(system)
    forky = is_fork(system)
    joiny = is_join(system)
    verdicts: Dict[str, Optional[bool]] = {
        "serial": recorded.is_serial_layout() if recorded.executions else None,
        "llsr": is_llsr(system) if stacky else None,
        "opsr": is_opsr(system, recorded.executions)
        if recorded.executions
        else None,
        "scc": is_scc(system) if stacky else None,
        "fcc": is_fcc(system) if forky else None,
        "jcc": is_jcc(system) if joiny else None,
        "comp_c": is_composite_correct(system),
    }
    return verdicts


def applicable_criteria(system: CompositeSystem) -> Sequence[str]:
    """The criterion names defined for this configuration.

    Returned in :data:`CRITERIA_ORDER`.  ``serial``, ``opsr`` and
    ``comp_c`` apply to every configuration (the first two merely need
    recorded executions to yield a verdict — see :func:`classify`);
    ``llsr``/``scc``, ``fcc`` and ``jcc`` are gated on the stack, fork
    and join structural preconditions.
    """
    names = {"serial", "opsr", "comp_c"}
    if is_stack(system):
        names.update(("llsr", "scc"))
    if is_fork(system):
        names.add("fcc")
    if is_join(system):
        names.add("jcc")
    return tuple(name for name in CRITERIA_ORDER if name in names)
