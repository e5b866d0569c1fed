"""Criteria-hierarchy experiments (the H1 artifact).

§4 of the paper claims LLSR, MLSR and OPSR are all *proper* subsets of
SCC (= Comp-C on stacks).  This module measures that claim on random
stack ensembles: for each conflict rate it computes the acceptance rate
of every criterion and counts containment violations — which must be
zero for

    OPSR ⊆ SCC = Comp-C   and   LLSR ⊆ SCC = Comp-C.

(The paper does not order LLSR against OPSR, and indeed neither contains
the other: LLSR forgives layout, OPSR forgives cross-level conflict
pull-ups.)

The ``serial`` row is a descriptive layout statistic, not a criterion:
per-schedule seriality of the *layout* does not imply OPSR or LLSR once
commuting transactions have been reordered across schedules — a
per-schedule-serial layout can still contradict an input order or
another schedule's serialization, both of which are invisible locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.batch import run_batch
from repro.core.correctness import is_composite_correct
from repro.criteria.llsr import is_llsr
from repro.criteria.opsr import is_opsr
from repro.criteria.stack import is_scc
from repro.io.recorded import RecordedExecution
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import stack_topology

#: the criteria measured, narrowest-to-widest along the chain that is
#: actually ordered
HIERARCHY = ("serial", "llsr", "opsr", "scc", "comp_c")

#: containments the paper asserts (must never be violated)
CONTAINMENTS: Tuple[Tuple[str, str], ...] = (
    ("opsr", "scc"),
    ("llsr", "scc"),
    ("scc", "comp_c"),
    ("comp_c", "scc"),  # Theorem 2: equality on stacks
)


@dataclass
class HierarchyRow:
    """One parameter point of the acceptance-rate table."""

    conflict_probability: float
    trials: int
    accepted: Dict[str, int] = field(default_factory=dict)
    violations: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def rate(self, criterion: str) -> float:
        return self.accepted.get(criterion, 0) / self.trials if self.trials else 0.0


def judge(recorded: RecordedExecution) -> Dict[str, bool]:
    """All hierarchy verdicts for one stack execution."""
    system = recorded.system
    return {
        "serial": recorded.is_serial_layout(),
        "llsr": is_llsr(system),
        "opsr": is_opsr(system, recorded.executions),
        "scc": is_scc(system),
        "comp_c": is_composite_correct(system),
    }


def hierarchy_task(task: Tuple) -> Dict[str, bool]:
    """Batch worker: generate one stack execution and judge it."""
    spec, config = task
    return judge(generate(spec, config))


def run_hierarchy_experiment(
    *,
    depth: int = 2,
    roots: int = 3,
    conflict_rates: Sequence[float] = (0.05, 0.15, 0.3, 0.5),
    trials: int = 40,
    seed: int = 0,
    layout: str = "random",
    perturbation_swaps: int = 8,
    ops_per_transaction: Tuple[int, int] = (1, 3),
    workers: int = 1,
) -> List[HierarchyRow]:
    """Acceptance rates per criterion per conflict rate."""
    spec = stack_topology(depth)
    tasks = [
        (
            spec,
            WorkloadConfig(
                seed=seed + i,
                roots=roots,
                conflict_probability=rate,
                layout=layout,
                perturbation_swaps=perturbation_swaps,
                ops_per_transaction=ops_per_transaction,
            ),
        )
        for rate in conflict_rates
        for i in range(trials)
    ]
    results = run_batch(tasks, hierarchy_task, workers=workers)
    rows: List[HierarchyRow] = []
    for r, rate in enumerate(conflict_rates):
        row = HierarchyRow(conflict_probability=rate, trials=trials)
        row.accepted = {name: 0 for name in HIERARCHY}
        row.violations = {pair: 0 for pair in CONTAINMENTS}
        for verdicts in results[r * trials:(r + 1) * trials]:
            for name, verdict in verdicts.items():
                if verdict:
                    row.accepted[name] += 1
            for narrow, wide in CONTAINMENTS:
                if verdicts[narrow] and not verdicts[wide]:
                    row.violations[(narrow, wide)] += 1
        rows.append(row)
    return rows


def total_violations(rows: Sequence[HierarchyRow]) -> int:
    return sum(sum(row.violations.values()) for row in rows)
