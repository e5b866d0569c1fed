"""One-shot consolidated experiment report.

``build_report()`` runs every paper artifact (figures F1–F4, every
experiment of :data:`repro.analysis.experiments.EXPERIMENTS` — the
T1–T4 theorem validations, the H1 hierarchy, the P2 cost sweep and the
A1 ablation — and optionally the P1 protocol study, which dominates the
runtime) and renders a single Markdown document — the programmatic
source for the numbers in EXPERIMENTS.md.  Its experiment tables are
the ones ``repro experiment NAME`` prints.  Available on the command
line as ``python -m repro report``.
"""

from __future__ import annotations

import time
from typing import List

from repro import __version__
from repro.analysis.experiments import EXPERIMENTS
from repro.core.correctness import check_composite_correctness
from repro.figures import (
    figure1_system,
    figure2_system,
    figure3_system,
    figure4_system,
)


def _md_table(headers: List[str], rows: List[List[object]]) -> str:
    out = ["| " + " | ".join(headers) + " |"]
    out.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(out)


def build_report(
    *,
    trials: int = 30,
    include_protocols: bool = False,
    seed: int = 0,
) -> str:
    """Run everything and return the Markdown report text."""
    start = time.perf_counter()
    sections: List[str] = [
        f"# composite-tx experiment report (v{__version__})",
        "",
        f"ensemble size: {trials} instances per cell; seed base {seed}.",
    ]

    # ----- figures ------------------------------------------------------
    fig_rows = []
    for number, factory in (
        (1, figure1_system),
        (2, figure2_system),
        (3, figure3_system),
        (4, figure4_system),
    ):
        report = check_composite_correctness(factory())
        fig_rows.append(
            [
                f"Figure {number}",
                "Comp-C" if report.correct else "NOT Comp-C",
                " << ".join(report.serial_witness)
                if report.correct
                else report.failure.describe(),
            ]
        )
    sections += [
        "",
        "## Figures (F1–F4)",
        "",
        _md_table(["artifact", "verdict", "witness / counterexample"], fig_rows),
    ]

    # ----- the registered experiments ----------------------------------
    for experiment in EXPERIMENTS.values():
        table = experiment.run(trials, 1, seed)
        sections += [
            "",
            f"## {experiment.title}",
            "",
            _md_table(table.headers, table.rows),
        ]
        if table.note:
            sections += ["", table.note]

    # ----- protocols (optional: slow) ------------------------------------
    if include_protocols:
        from repro.analysis.protocols import evaluate_protocol
        from repro.workloads.topologies import join_topology

        rows = []
        for protocol in ("cc", "s2pl", "sgt", "to"):
            p = evaluate_protocol(
                join_topology(3), protocol, clients=4, seeds=(seed, seed + 1)
            )
            rows.append(
                [
                    p.protocol,
                    f"{p.throughput:.3f}",
                    f"{p.abort_rate:.3f}",
                    f"{p.comp_c_runs}/{p.runs}",
                ]
            )
        sections += [
            "",
            "## Protocols on the join (P1 excerpt)",
            "",
            _md_table(
                ["protocol", "throughput", "abort rate", "Comp-C runs"], rows
            ),
        ]

    elapsed = time.perf_counter() - start
    sections += ["", f"_generated in {elapsed:.1f}s_", ""]
    return "\n".join(sections)
