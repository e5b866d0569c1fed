"""Decision-procedure cost measurements (``experiment p2``).

Times the Comp-C reduction against growing histories (more composite
transactions, hence more operations per schedule).  The checker is
polynomial — the
dominating costs are the transitive closures and the per-level quotient
tests — and the measured curve should look near-quadratic in the
operation count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.reduction import reduce_to_roots
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import stack_topology


@dataclass
class ScalingPoint:
    """One size point: problem size vs checker wall time."""

    label: str
    operations: int  # total nodes in the system
    seconds: float
    accepted: bool


def _count_nodes(system) -> int:
    return sum(1 for _ in system.all_nodes())


def checker_scaling(
    *,
    root_counts: Sequence[int] = (2, 4, 8, 16, 32),
    depth: int = 2,
    conflict_probability: float = 0.03,
    seed: int = 0,
    repeats: int = 3,
) -> List[ScalingPoint]:
    """Wall time vs history size at fixed depth."""
    points: List[ScalingPoint] = []
    spec = stack_topology(depth)
    for roots in root_counts:
        recorded = generate(
            spec,
            WorkloadConfig(
                seed=seed,
                roots=roots,
                conflict_probability=conflict_probability,
                layout="random",
            ),
        )
        best = float("inf")
        accepted = False
        for _ in range(repeats):
            start = time.perf_counter()
            result = reduce_to_roots(recorded.system)
            best = min(best, time.perf_counter() - start)
            accepted = result.succeeded
        points.append(
            ScalingPoint(
                label=f"{roots} roots @ depth {depth}",
                operations=_count_nodes(recorded.system),
                seconds=best,
                accepted=accepted,
            )
        )
    return points
