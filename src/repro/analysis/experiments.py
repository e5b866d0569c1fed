"""The paper experiments, one definition each (DESIGN.md §1).

:data:`EXPERIMENTS` maps every experiment name to its title and to a
``run(trials, workers, seed)`` returning a :class:`Table`.  Both
renderers read it: ``repro experiment NAME`` prints one entry as an
aligned text table (and exits 2 when its ``ok`` is false), and
:func:`repro.analysis.report.build_report` renders every entry as a
Markdown section under its title.

Each ``run`` imports its own stack, so building the ``experiment``
parser, whose choices are the registry keys, loads none of it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Sequence


class Table(NamedTuple):
    """One experiment's result: the table, whether the paper's claim
    held on it, and a line shown under the table (empty for none)."""

    headers: List[str]
    rows: List[List[object]]
    ok: bool = True
    note: str = ""


class Experiment(NamedTuple):
    title: str
    run: Callable[[int, int, int], Table]


def _theorem1(trials: int, workers: int, seed: int) -> Table:
    from repro.analysis.theorems import theorem1_experiment

    rows = theorem1_experiment(trials=trials, seed=seed, workers=workers)
    return Table(
        ["configuration", "trials", "accepted", "witnesses", "certificates"],
        [
            [r.label, r.trials, r.accepted, r.witnesses_valid, r.certificates_valid]
            for r in rows
        ],
        ok=all(r.all_valid for r in rows),
    )


def _agreement(rows: Sequence) -> Table:
    return Table(
        ["configuration", "trials", "agreements", "accepted"],
        [[r.label, r.trials, r.agreements, r.accepted] for r in rows],
        ok=all(r.disagreements == 0 for r in rows),
    )


def _theorem2(trials: int, workers: int, seed: int) -> Table:
    from repro.analysis.theorems import theorem2_rows

    return _agreement(theorem2_rows(trials=trials, seed=seed, workers=workers))


def _theorem3(trials: int, workers: int, seed: int) -> Table:
    from repro.analysis.theorems import theorem3_rows

    return _agreement(theorem3_rows(trials=trials, seed=seed, workers=workers))


def _theorem4(trials: int, workers: int, seed: int) -> Table:
    from repro.analysis.theorems import theorem4_rows

    return _agreement(theorem4_rows(trials=trials, seed=seed, workers=workers))


def _hierarchy(trials: int, workers: int, seed: int) -> Table:
    from repro.analysis.hierarchy import (
        HIERARCHY,
        run_hierarchy_experiment,
        total_violations,
    )

    rows = run_hierarchy_experiment(trials=trials, seed=seed, workers=workers)
    violations = total_violations(rows)
    return Table(
        ["conflict rate"] + list(HIERARCHY),
        [
            [row.conflict_probability]
            + [f"{row.accepted[c]}/{row.trials}" for c in HIERARCHY]
            for row in rows
        ],
        ok=violations == 0,
        note=f"containment violations: {violations}",
    )


def _checker_cost(trials: int, workers: int, seed: int) -> Table:
    """Wall time per size point; ``trials`` and ``workers`` do not
    apply to a timing of one reduction."""
    from repro.analysis.scaling import checker_scaling

    return Table(
        ["point", "nodes", "ms"],
        [
            [p.label, p.operations, f"{p.seconds * 1000:.2f}"]
            for p in checker_scaling(seed=seed, repeats=2)
        ],
    )


def _ablation(trials: int, workers: int, seed: int) -> Table:
    from repro.analysis.batch import ablation_task, run_batch
    from repro.workloads.generator import WorkloadConfig
    from repro.workloads.topologies import stack_topology

    spec = stack_topology(2)
    configs = [
        WorkloadConfig(seed=seed + i, conflict_probability=0.2)
        for i in range(trials)
    ]
    verdicts = run_batch(
        [(spec, config, forget) for forget in (True, False) for config in configs],
        ablation_task,
        workers=workers,
    )
    return Table(
        ["variant", "accepted", "of"],
        [
            ["default", sum(verdicts[:trials]), trials],
            ["no forgetting", sum(verdicts[trials:]), trials],
        ],
    )


#: every paper experiment, in report order
EXPERIMENTS: Dict[str, Experiment] = {
    "t1": Experiment(
        "Theorem 1 (T1): Comp-C ⇔ level-N front, constructive", _theorem1
    ),
    "t2": Experiment("Theorem 2 (T2): SCC ⇔ Comp-C on stacks", _theorem2),
    "t3": Experiment("Theorem 3 (T3): FCC ⇔ Comp-C on forks", _theorem3),
    "t4": Experiment("Theorem 4 (T4): JCC ⇔ Comp-C on joins", _theorem4),
    "h1": Experiment("Hierarchy (H1): LLSR, OPSR ⊊ SCC = Comp-C", _hierarchy),
    "p2": Experiment("Checker cost (P2)", _checker_cost),
    "a1": Experiment("Ablation (A1): the forgetting rule", _ablation),
}
