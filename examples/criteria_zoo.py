#!/usr/bin/env python3
"""The criteria zoo: one execution judged by every applicable criterion.

Generates random multilevel (stack) executions and classifies each under
seriality, LLSR, OPSR, SCC and Comp-C, then prints the acceptance
matrix — a miniature of the paper's §4 hierarchy discussion (LLSR and
OPSR are proper subsets of SCC = Comp-C; the H1 benchmark measures the
gaps at scale).

Also demonstrates saving an interesting execution to JSON and loading it
back (:mod:`repro.io`).

Run:  python examples/criteria_zoo.py
"""

import tempfile
from pathlib import Path

from repro.analysis.tables import format_table
from repro.criteria.registry import classify
from repro.io import load, save
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import stack_topology


def verdict_cell(value) -> str:
    if value is None:
        return "-"
    return "yes" if value else "NO"


def main() -> None:
    spec = stack_topology(2)
    rows = []
    interesting = None
    for seed in range(12):
        recorded = generate(
            spec,
            WorkloadConfig(
                seed=seed,
                roots=3,
                conflict_probability=0.2,
                layout="perturbed" if seed % 3 == 0 else "random",
            ),
        )
        verdicts = classify(recorded)
        rows.append(
            [
                f"seed {seed}",
                verdict_cell(verdicts["serial"]),
                verdict_cell(verdicts["llsr"]),
                verdict_cell(verdicts["opsr"]),
                verdict_cell(verdicts["scc"]),
                verdict_cell(verdicts["comp_c"]),
            ]
        )
        # Keep one execution that separates LLSR from Comp-C.
        if verdicts["comp_c"] and not verdicts["llsr"] and interesting is None:
            interesting = recorded
    print(
        format_table(
            ["execution", "serial", "LLSR", "OPSR", "SCC", "Comp-C"], rows
        )
    )
    print()
    print("invariants on display:")
    print("  * every 'yes' column is contained in the SCC/Comp-C columns;")
    print("  * SCC and Comp-C always agree (Theorem 2);")
    print("  * perturbed serial executions stay Comp-C even when the")
    print("    layout-sensitive criteria (serial, OPSR) reject them.")

    if interesting is not None:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "separating_execution.json"
            save(interesting, path)
            restored = load(path)
            verdicts = classify(restored)
            print()
            print(
                f"saved/loaded a separating execution ({path.name}): "
                f"LLSR={verdict_cell(verdicts['llsr'])}, "
                f"Comp-C={verdict_cell(verdicts['comp_c'])}"
            )


if __name__ == "__main__":
    main()
