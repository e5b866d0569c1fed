"""H1 — the §4 hierarchy: LLSR, OPSR ⊊ SCC = Comp-C.

The paper claims level-by-level serializability and order-preserving
serializability are *proper* subsets of SCC (and hence of Comp-C).  The
measurable shape: per-criterion acceptance rates on random stack
ensembles must satisfy the containments with zero violations, and the
gaps must be non-empty — LLSR rejects executions that exploit semantic
commutativity, OPSR rejects executions whose temporal layout reorders
commuting transactions.  Random layouts expose the LLSR gap; perturbed
serial layouts (commuting swaps only, always correct) expose the
layout-sensitivity of OPSR/seriality.  The benchmark times one grid.

H1 measures acceptance *rates*; the agreement matrix below measures
*structure*: for every pair of criteria, how often they agree, and in
which direction they disagree.  The interesting cells are the
incomparable pairs — the paper orders LLSR and OPSR below SCC but not
against each other, and indeed each accepts executions the other
rejects (LLSR forgives layout, OPSR forgives cross-level conflict
pull-ups).
"""

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.analysis.hierarchy import (
    HIERARCHY,
    judge,
    run_hierarchy_experiment,
    total_violations,
)
from repro.analysis.tables import banner, format_table
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import stack_topology


@dataclass
class AgreementMatrix:
    """Counts per ordered criterion pair over one ensemble."""

    trials: int
    #: (a, b) -> number of executions with a=True, b=False
    only_a: Dict[Tuple[str, str], int] = field(default_factory=dict)
    agreements: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def accepts_only(self, a: str, b: str) -> int:
        """Executions accepted by ``a`` but rejected by ``b``."""
        return self.only_a.get((a, b), 0)

    def agreement_rate(self, a: str, b: str) -> float:
        if self.trials == 0:
            return 1.0
        return self.agreements.get(tuple(sorted((a, b))), 0) / self.trials

    def incomparable(self, a: str, b: str) -> bool:
        """True when each criterion accepts something the other rejects."""
        return self.accepts_only(a, b) > 0 and self.accepts_only(b, a) > 0


def agreement_matrix(
    *,
    depth: int = 2,
    trials: int = 60,
    conflict_rates: Sequence[float] = (0.1, 0.25, 0.45),
    layouts: Sequence[str] = ("random", "perturbed"),
    seed: int = 0,
    criteria: Sequence[str] = HIERARCHY,
) -> AgreementMatrix:
    """Judge a mixed stack ensemble under every criterion pairwise."""
    matrix = AgreementMatrix(trials=0)
    spec = stack_topology(depth)
    per_cell = max(1, trials // (len(conflict_rates) * len(layouts)))
    for layout in layouts:
        for rate in conflict_rates:
            for i in range(per_cell):
                recorded = generate(
                    spec,
                    WorkloadConfig(
                        seed=seed + i,
                        roots=3,
                        conflict_probability=rate,
                        layout=layout,
                        perturbation_swaps=20,
                        ops_per_transaction=(1, 2),
                    ),
                )
                verdicts = judge(recorded)
                matrix.trials += 1
                names = list(criteria)
                for x in range(len(names)):
                    for y in range(x + 1, len(names)):
                        a, b = names[x], names[y]
                        va, vb = verdicts[a], verdicts[b]
                        if va == vb:
                            key = tuple(sorted((a, b)))
                            matrix.agreements[key] = (
                                matrix.agreements.get(key, 0) + 1
                            )
                        elif va and not vb:
                            matrix.only_a[(a, b)] = (
                                matrix.only_a.get((a, b), 0) + 1
                            )
                        else:
                            matrix.only_a[(b, a)] = (
                                matrix.only_a.get((b, a), 0) + 1
                            )
    return matrix


def format_agreement(matrix: AgreementMatrix, criteria: Sequence[str] = HIERARCHY) -> str:
    """A compact text rendering: ``a\\b`` cell = executions accepted by
    the row criterion and rejected by the column criterion."""
    names = list(criteria)
    width = max(len(n) for n in names) + 1
    lines = [
        "rows accept / columns reject   (n=" + str(matrix.trials) + ")",
        " " * width + " ".join(n.rjust(width) for n in names),
    ]
    for a in names:
        cells = []
        for b in names:
            cells.append(
                ("-" if a == b else str(matrix.accepts_only(a, b))).rjust(width)
            )
        lines.append(a.ljust(width) + " ".join(cells))
    return "\n".join(lines)



def run_random():
    return run_hierarchy_experiment(
        depth=2,
        trials=40,
        conflict_rates=(0.05, 0.15, 0.3, 0.5),
        seed=0,
        layout="random",
    )


def test_bench_h1_hierarchy(benchmark, emit):
    random_rows = benchmark.pedantic(run_random, rounds=2, iterations=1)
    perturbed_rows = run_hierarchy_experiment(
        depth=2,
        roots=4,
        trials=40,
        conflict_rates=(0.2, 0.5),
        seed=0,
        layout="perturbed",
        perturbation_swaps=30,
        ops_per_transaction=(1, 2),
    )

    # --- assertions ------------------------------------------------------
    assert total_violations(random_rows) == 0
    assert total_violations(perturbed_rows) == 0
    # SCC == Comp-C cell by cell (Theorem 2):
    for row in random_rows + perturbed_rows:
        assert row.accepted["scc"] == row.accepted["comp_c"]
    # strict gaps somewhere on the grid:
    assert any(
        row.accepted["llsr"] < row.accepted["comp_c"] for row in random_rows
    ), "LLSR should be a proper subset on random layouts"
    assert any(
        row.accepted["opsr"] < row.accepted["comp_c"]
        for row in perturbed_rows
    ), "OPSR should be a proper subset on perturbed layouts"
    # perturbed serial executions are always Comp-C:
    for row in perturbed_rows:
        assert row.accepted["comp_c"] == row.trials

    def table(rows):
        return format_table(
            ["conflict rate"] + [c.upper() for c in HIERARCHY],
            [
                [f"{row.conflict_probability:.2f}"]
                + [
                    f"{row.accepted[c]}/{row.trials}"
                    for c in HIERARCHY
                ]
                for row in rows
            ],
        )

    matrix = agreement_matrix(trials=90, seed=0)
    # LLSR and OPSR must be incomparable (the paper orders both below
    # SCC but not against each other):
    assert matrix.incomparable("llsr", "opsr")
    assert matrix.agreement_rate("scc", "comp_c") == 1.0

    emit(
        "H1",
        "\n".join(
            [
                banner("H1: criteria hierarchy on stacks"),
                "random layouts (acceptance counts):",
                table(random_rows),
                "",
                "perturbed serial layouts (all Comp-C by construction):",
                table(perturbed_rows),
                "",
                "pairwise disagreement matrix:",
                format_agreement(matrix),
                "",
                "containment violations across the whole grid: "
                f"{total_violations(random_rows) + total_violations(perturbed_rows)}",
                "paper claim reproduced: LLSR and OPSR accept strictly "
                "less than SCC; SCC tracks Comp-C exactly (Thm. 2).",
            ]
        ),
    )
