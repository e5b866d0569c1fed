"""Decision-procedure cost measurements (the P2 artifact).

Times the Comp-C reduction against growing histories (more composite
transactions, hence more operations per schedule) and growing system
order (deeper stacks).  The checker is polynomial — the dominating costs
are the transitive closures and the per-level quotient tests — and the
measured curve should look near-quadratic in the operation count.
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


def depth_scaling(
    *,
    depths: Sequence[int] = (2, 3, 4, 5),
    roots: int = 6,
    conflict_probability: float = 0.03,
    seed: int = 0,
    repeats: int = 3,
) -> List[ScalingPoint]:
    """Wall time vs system order at fixed root count."""
    points: List[ScalingPoint] = []
    for depth in depths:
        recorded = generate(
            stack_topology(depth),
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
                label=f"depth {depth} @ {roots} roots",
                operations=_count_nodes(recorded.system),
                seconds=best,
                accepted=accepted,
            )
        )
    return points


# ----------------------------------------------------------------------
# closure-maintenance and serial-vs-parallel speedups
# ----------------------------------------------------------------------
@dataclass
class ClosurePathPoint:
    """Per-depth cost of maintaining the observed order's closure under
    the streaming (online) formulation.

    The ROADMAP's blocked scale items (streaming checking, saturation
    sweeps) all reduce to one kernel question: as observed pairs arrive
    in batches, is it cheaper to *maintain* the transitive closure
    (:meth:`Relation.add_closed` on the standing closed order) than to
    re-saturate from scratch after every batch
    (:meth:`Relation.transitive_closure`)?  Both paths are timed over
    the same real workload: the level-0 observed seed pairs of a
    depth-``d`` stack, replayed in arrival order.  Each path yields an
    up-to-date closed order after every batch — exactly what an online
    checker must query.
    """

    depth: int
    operations: int  # leaf operations of the streamed front
    batches: int
    pairs: int
    incremental_seconds: float
    scratch_seconds: float

    @property
    def speedup(self) -> float:
        if self.incremental_seconds <= 0:
            return float("inf")
        return self.scratch_seconds / self.incremental_seconds


def closure_path_speedup(
    *,
    depths: Sequence[int] = (2, 3, 4, 5),
    roots: int = 12,
    conflict_probability: float = 0.02,
    seed: int = 1,
    batch_size: int = 16,
    repeats: int = 3,
) -> List[ClosurePathPoint]:
    """Incremental vs from-scratch closure maintenance, per stack depth.

    For every depth, stream the level-0 observed seed pairs of the P2
    workload in ``batch_size`` chunks and keep a transitively closed
    order current after every chunk, once with the incremental kernel
    (``add_closed`` delta propagation on the standing closure) and once
    by re-closing from scratch per chunk.  Wall time is best-of
    ``repeats``; both paths are verified to end in the same relation.
    """
    from repro.core.observed import seed_observed_pairs
    from repro.core.orders import Relation

    points: List[ClosurePathPoint] = []
    for depth in depths:
        recorded = generate(
            stack_topology(depth),
            WorkloadConfig(
                seed=seed,
                roots=roots,
                conflict_probability=conflict_probability,
                layout="serial",
            ),
        )
        leaves = tuple(recorded.system.leaves)
        pairs = list(seed_observed_pairs(recorded.system, leaves))
        batches = [
            pairs[i : i + batch_size]
            for i in range(0, len(pairs), batch_size)
        ] or [[]]
        inc_best = float("inf")
        scratch_best = float("inf")
        inc_final = scratch_final = None
        for _ in range(repeats):
            maintained = Relation(elements=leaves)
            start = time.perf_counter()
            for batch in batches:
                maintained.add_closed(batch)
            inc_best = min(inc_best, time.perf_counter() - start)
            inc_final = maintained

            accumulated = Relation(elements=leaves)
            closed = accumulated
            start = time.perf_counter()
            for batch in batches:
                accumulated.add_all(batch)
                closed = accumulated.transitive_closure()
            scratch_best = min(scratch_best, time.perf_counter() - start)
            scratch_final = closed
        assert inc_final == scratch_final, "closure paths diverged"
        points.append(
            ClosurePathPoint(
                depth=depth,
                operations=len(leaves),
                batches=len(batches),
                pairs=len(pairs),
                incremental_seconds=inc_best,
                scratch_seconds=scratch_best,
            )
        )
    return points


@dataclass
class SweepSpeedup:
    """Wall time of one multi-seed sweep, serial vs ``workers`` procs."""

    label: str
    tasks: int
    workers: int
    serial_seconds: float
    parallel_seconds: float
    identical: bool  # merged results equal across both paths

    @property
    def speedup(self) -> float:
        if self.parallel_seconds <= 0:
            return float("inf")
        return self.serial_seconds / self.parallel_seconds


def sweep_speedup(
    *,
    workers: int = 2,
    protocols: Sequence[str] = ("cc", "s2pl"),
    seeds: Sequence[int] = (0, 1, 2, 3),
    depth: int = 2,
    **kw,
) -> SweepSpeedup:
    """Run the same chaos grid serially and with ``workers`` processes,
    timing both and checking the merged points are equal — the
    determinism contract of :mod:`repro.analysis.batch`, measured."""
    from repro.analysis.batch import chaos_grid

    spec = stack_topology(depth)
    start = time.perf_counter()
    serial = chaos_grid(spec, protocols, seeds, workers=1, **kw)
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = chaos_grid(spec, protocols, seeds, workers=workers, **kw)
    parallel_seconds = time.perf_counter() - start
    return SweepSpeedup(
        label=f"chaos {len(protocols)}x{len(seeds)} @ stack {depth}",
        tasks=len(protocols) * len(seeds),
        workers=workers,
        serial_seconds=serial_seconds,
        parallel_seconds=parallel_seconds,
        identical=serial == parallel,
    )
