"""Static analysis for composite systems (the ``composite-tx lint``
subsystem).

Four passes over the model vocabulary of the paper:

* :mod:`repro.lint.wellformed` — every document shape rule and Def. 2-9
  constraint as *collected* diagnostics, reported by the same check
  sites that raise them for ``check``;
* :mod:`repro.lint.safety` — a two-sided, verdict-tiered static Comp-C
  analysis: a forest certifier (tier 1), an orientation certifier over
  the mixed forced/free multigraph (tier 2,
  :mod:`repro.lint.orientation`), and a witness-producing refuter whose
  ``CERTIFIED_UNSAFE`` verdicts are validated by replaying the recorded
  execution through the real Def.-16 engine;
* :mod:`repro.lint.witness` — replayable refutation certificates
  (``--witness-out``), schema-versioned canonical JSON;
* :mod:`repro.lint.report` — the document/file surface with text and
  JSON rendering and the exit-code contract.

Every finding carries a stable ``CTX***`` code registered in
:mod:`repro.lint.diagnostics`.
"""

from repro.lint.diagnostics import (
    AXIOM_CODES,
    CODES,
    Diagnostic,
    DiagnosticCollector,
    Location,
    Severity,
)
from repro.lint.report import (
    FileReport,
    LintResult,
    lint_document,
    lint_file,
    lint_paths,
    lint_system,
    render_json,
    render_text,
)
from repro.lint.safety import (
    LevelWitness,
    RefutationWitness,
    SafetyEdge,
    SafetyVerdict,
    StaticSafetyReport,
    analyze_system_safety,
    analyze_topology_safety,
    prove_static_safety,
)
from repro.lint.wellformed import (
    lint_order_propagation,
    lint_schedule_axioms,
    lint_schedules,
    lint_system_document,
    lint_topology_document,
    lint_trace_document,
    model_diagnostic,
)
from repro.lint.witness import (
    WITNESS_VERSION,
    ReplayOutcome,
    build_witness_document,
    replay_witness_document,
    replay_witness_file,
    write_witness_file,
)

__all__ = [
    "AXIOM_CODES",
    "CODES",
    "Diagnostic",
    "DiagnosticCollector",
    "FileReport",
    "LevelWitness",
    "LintResult",
    "Location",
    "RefutationWitness",
    "ReplayOutcome",
    "SafetyEdge",
    "SafetyVerdict",
    "Severity",
    "StaticSafetyReport",
    "WITNESS_VERSION",
    "analyze_system_safety",
    "analyze_topology_safety",
    "build_witness_document",
    "lint_document",
    "lint_order_propagation",
    "lint_schedule_axioms",
    "lint_file",
    "lint_paths",
    "lint_schedules",
    "lint_system",
    "lint_system_document",
    "lint_topology_document",
    "lint_trace_document",
    "model_diagnostic",
    "prove_static_safety",
    "render_json",
    "render_text",
    "replay_witness_document",
    "replay_witness_file",
    "write_witness_file",
]
