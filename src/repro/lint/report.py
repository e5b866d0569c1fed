"""The lint surface: run the passes over documents, render reports.

This module is what the ``composite-tx lint`` command and the chaos
grid call: it dispatches a document to the right passes by shape,
aggregates per-file reports, and renders them as text or JSON with the
exit-code contract (0 = clean, 1 = usage/IO problem, 2 = error
findings, or any finding under ``--strict``; notes never count).

Determinism contract: ``render_json`` serializes through
:func:`repro.obs.sink.canonical_json_dumps`, and ``lint_paths`` keeps
reports in file-submission order even under ``workers > 1`` — a
sharded lint run is byte-identical to a serial one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.observed import ObservedOrderOptions
from repro.core.system import CompositeSystem
from repro.lint.diagnostics import Diagnostic, DiagnosticCollector
from repro.lint.safety import (
    SafetyVerdict,
    StaticSafetyReport,
    analyze_system_safety,
    analyze_topology_safety,
)
from repro.obs.sink import canonical_json_dumps
from repro.lint.wellformed import (
    lint_schedules,
    lint_system_document,
    lint_topology_document,
    lint_trace_document,
)

#: document-kind labels, decided by :func:`document_kind`
KIND_SYSTEM = "system"
KIND_TRACE = "trace"
KIND_TOPOLOGY = "topology"
KIND_UNKNOWN = "unknown"


@dataclass
class FileReport:
    """Everything lint produced for one document."""

    path: Optional[str]
    kind: str
    collector: DiagnosticCollector
    safety: Optional[StaticSafetyReport] = None

    @property
    def diagnostics(self) -> Tuple[Diagnostic, ...]:
        return self.collector.diagnostics

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "kind": self.kind,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "safety": self.safety.to_dict() if self.safety else None,
        }


@dataclass
class LintResult:
    """The aggregate over every linted document."""

    reports: List[FileReport]

    @property
    def diagnostics(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for r in self.reports for d in r.diagnostics)

    @property
    def error_count(self) -> int:
        return sum(len(r.collector.errors) for r in self.reports)

    @property
    def warning_count(self) -> int:
        return sum(len(r.collector.warnings) for r in self.reports)

    @property
    def note_count(self) -> int:
        return sum(len(r.collector.notes) for r in self.reports)

    def verdict_counts(self) -> Dict[str, int]:
        """``verdict -> documents`` over every report that ran the
        static safety analysis, in sorted verdict order (the summary
        the chaos grid folds per cell)."""
        out: Dict[str, int] = {}
        for report in self.reports:
            if report.safety is None:
                continue
            key = str(report.safety.verdict)
            out[key] = out.get(key, 0) + 1
        return {key: out[key] for key in sorted(out)}

    def counts(self) -> Dict[str, int]:
        """``code -> occurrences`` across all reports, sorted by code —
        the deterministic summary the chaos grid merges."""
        out: Dict[str, int] = {}
        for report in self.reports:
            for code, count in report.collector.counts().items():
                out[code] = out.get(code, 0) + count
        return {code: out[code] for code in sorted(out)}

    def exit_code(self, *, strict: bool = False) -> int:
        if self.error_count:
            return 2
        if strict and self.warning_count:
            return 2
        return 0


def document_kind(document: Mapping) -> str:
    """Decide which passes apply by the document's shape."""
    if "schedules" in document:
        return KIND_SYSTEM
    if "fronts" in document or "succeeded" in document:
        return KIND_TRACE
    if "levels" in document or "invokes" in document:
        return KIND_TOPOLOGY
    return KIND_UNKNOWN


def lint_document(
    document: Mapping,
    *,
    file: Optional[str] = None,
    options: Optional[ObservedOrderOptions] = None,
) -> FileReport:
    """Run every applicable pass over one parsed document."""
    collector = DiagnosticCollector(file=file)
    kind = document_kind(document)
    safety: Optional[StaticSafetyReport] = None
    if kind == KIND_SYSTEM:
        system = lint_system_document(collector, document)
        if system is not None and not collector.has_errors():
            safety = analyze_system_safety(collector, system, options)
    elif kind == KIND_TRACE:
        lint_trace_document(collector, document)
    elif kind == KIND_TOPOLOGY:
        spec = lint_topology_document(collector, document)
        if spec is not None:
            analyze_topology_safety(collector, spec)
    else:
        collector.report(
            "CTX305",
            "unrecognized document shape (expected a system, trace or "
            "topology document)",
            fix_hint="system documents have 'schedules', traces have "
            "'fronts'/'succeeded', topologies have 'levels'/'invokes'",
        )
    return FileReport(path=file, kind=kind, collector=collector, safety=safety)


def lint_system(
    system: CompositeSystem,
    *,
    options: Optional[ObservedOrderOptions] = None,
    file: Optional[str] = None,
) -> FileReport:
    """Lint an in-memory system (the chaos-grid / API entry point)."""
    collector = DiagnosticCollector(file=file)
    checked = lint_schedules(collector, list(system.schedules.values()))
    safety: Optional[StaticSafetyReport] = None
    if checked is not None and not collector.has_errors():
        safety = analyze_system_safety(collector, checked, options)
    return FileReport(
        path=file, kind=KIND_SYSTEM, collector=collector, safety=safety
    )


def _gather_paths(paths: Sequence[str]) -> Tuple[List[str], List[str]]:
    """Expand directories to their ``*.json`` files (recursively, in
    sorted order).  Returns ``(files, missing)``."""
    files: List[str] = []
    missing: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(".json"):
                        files.append(os.path.join(dirpath, name))
        elif os.path.exists(path):
            files.append(path)
        else:
            missing.append(path)
    return files, missing


def _lint_file_task(
    task: Tuple[str, Optional[ObservedOrderOptions]]
) -> FileReport:
    """Module-level pool target (``lint_file`` takes keyword-only
    options, which ``ProcessPoolExecutor.map`` cannot pass)."""
    file, options = task
    return lint_file(file, options=options)


def lint_paths(
    paths: Sequence[str],
    *,
    options: Optional[ObservedOrderOptions] = None,
    workers: int = 1,
) -> Tuple[LintResult, List[str]]:
    """Lint files and directories.  Returns the result plus the list of
    paths that did not exist (a usage error, exit code 1).

    ``workers > 1`` shards the files over a process pool;
    ``executor.map`` yields results in submission order, so the
    aggregate — and therefore the rendered report — is byte-identical
    to a serial run.
    """
    files, missing = _gather_paths(paths)
    if workers > 1 and len(files) > 1:
        from repro.analysis.supervise import worker_pool

        tasks = [(file, options) for file in files]
        with worker_pool(min(workers, len(files))) as pool:
            reports = list(pool.map(_lint_file_task, tasks))
        return LintResult(reports=reports), missing
    reports = [lint_file(file, options=options) for file in files]
    return LintResult(reports=reports), missing


def lint_file(
    file: str, *, options: Optional[ObservedOrderOptions] = None
) -> FileReport:
    """Lint one file; unparseable JSON is a CTX305 finding, not a crash."""
    collector = DiagnosticCollector(file=file)
    try:
        with open(file, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        collector.report(
            "CTX305",
            f"not valid JSON: {err}",
            fix_hint="lint expects JSON system/trace/topology documents",
        )
        return FileReport(path=file, kind=KIND_UNKNOWN, collector=collector)
    if not isinstance(document, Mapping):
        collector.report(
            "CTX305", "top-level JSON value is not an object"
        )
        return FileReport(path=file, kind=KIND_UNKNOWN, collector=collector)
    return lint_document(document, file=file, options=options)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _explain_lines(report: FileReport) -> List[str]:
    """The ``--explain`` provenance chains: every witness cycle (and
    the refutation, if any) spelled out edge by edge — each
    :meth:`~repro.lint.safety.SafetyEdge.describe` line is
    self-locating (``L<level> schedule:source(pair)``)."""
    safety = report.safety
    if safety is None:
        return []
    lines: List[str] = []
    if safety.refutation is not None:
        witness = safety.refutation
        lines.append(
            f"  refutation (level {witness.level}): "
            + " -> ".join(witness.cycle_nodes + witness.cycle_nodes[:1])
        )
        for edge in witness.cycle_edges:
            lines.append(f"    {edge.describe()}")
        for name in sorted(witness.executions):
            lines.append(
                f"    recorded execution {name}: "
                + " ".join(witness.executions[name])
            )
    for witness_level in safety.cycle_witnesses:
        lines.append(
            f"  level-{witness_level.level} cycle"
            + (
                " (tier-2 certified: cannot orient directed)"
                if witness_level.orientable is False
                else ""
            )
            + ": "
            + " -> ".join(witness_level.cycle_nodes)
        )
        for edge in witness_level.cycle_edges:
            lines.append(f"    {edge.describe()}")
    return lines


def render_text(
    result: LintResult, *, strict: bool = False, explain: bool = False
) -> str:
    """The human-readable report (deterministic: file order, then
    collection order).  ``explain`` appends each document's cycle and
    refutation provenance chains."""
    lines: List[str] = []
    for report in result.reports:
        if not report.diagnostics and not (
            explain and _explain_lines(report)
        ):
            continue
        header = report.path or "<input>"
        lines.append(f"{header} [{report.kind}]:")
        for diagnostic in report.diagnostics:
            lines.append("  " + diagnostic.render())
        if explain:
            lines.extend(_explain_lines(report))
    decided = [
        r
        for r in result.reports
        if r.safety is not None and (r.safety.certified or r.safety.refuted)
    ]
    for report in decided:
        lines.append(
            f"{report.path or '<input>'}: {report.safety.summary()}"
        )
    verdict = "FAIL" if result.exit_code(strict=strict) else "OK"
    notes = f", {result.note_count} note(s)" if result.note_count else ""
    lines.append(
        f"{verdict}: {len(result.reports)} document(s), "
        f"{result.error_count} error(s), {result.warning_count} warning(s)"
        + notes
        + (" [strict]" if strict else "")
    )
    return "\n".join(lines)


def render_json(result: LintResult, *, strict: bool = False) -> str:
    """The machine-readable report, canonically serialized
    (:func:`~repro.obs.sink.canonical_json_dumps`): byte-identical
    across serial and sharded runs."""
    payload = {
        "files": [r.to_dict() for r in result.reports],
        "counts": result.counts(),
        "verdicts": result.verdict_counts(),
        "errors": result.error_count,
        "warnings": result.warning_count,
        "notes": result.note_count,
        "strict": strict,
        "exit_code": result.exit_code(strict=strict),
    }
    return canonical_json_dumps(payload)
