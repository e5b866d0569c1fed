"""Kernel guard: the incremental closure path must never lose.

The bitset rewrite exists because the old engine's incremental closure
was a no-win: ``add_closed`` cost as much as re-closing from scratch,
so streaming checking stayed blocked.  This guard is the tripwire — a
fast CI smoke that fails the build the moment the incremental path's
wall-clock speedup over from-scratch re-closing drops below 1.0 at any
measured depth.  The headroom has been several-fold on every run since
the rewrite, so a trip means a real kernel regression, not noise.

The workload: the level-0 observed seed pairs of a depth-``d`` serial
stack, streamed in batches of 16.  After every batch the guard keeps a
transitively closed order current twice, once with
:meth:`Relation.add_closed` on the standing closure and once by
re-closing the accumulated pairs with :meth:`Relation.transitive_closure`;
both must end in the same relation.  The end-to-end cost of the paths
that use the kernel is measured by ``benchmarks/e2e``.

Runs without the pytest-benchmark fixture so ``--benchmark-disable``
smoke jobs execute it at full strength.
"""

import time

import pytest

from repro.core.observed import seed_observed_pairs
from repro.core.orders import Relation
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import stack_topology

BATCH = 16
REPEATS = 3


def closure_path_speedup(depth):
    """``(scratch seconds / incremental seconds, batches)``, each path
    timed best of ``REPEATS``."""
    recorded = generate(
        stack_topology(depth),
        WorkloadConfig(
            seed=1, roots=12, conflict_probability=0.02, layout="serial"
        ),
    )
    leaves = tuple(recorded.system.leaves)
    pairs = list(seed_observed_pairs(recorded.system, leaves))
    batches = [pairs[i : i + BATCH] for i in range(0, len(pairs), BATCH)]
    incremental = scratch = float("inf")
    for _ in range(REPEATS):
        maintained = Relation(elements=leaves)
        start = time.perf_counter()
        for batch in batches:
            maintained.add_closed(batch)
        incremental = min(incremental, time.perf_counter() - start)

        accumulated = closed = Relation(elements=leaves)
        start = time.perf_counter()
        for batch in batches:
            accumulated.add_all(batch)
            closed = accumulated.transitive_closure()
        scratch = min(scratch, time.perf_counter() - start)
        assert maintained == closed, "closure paths diverged"
    return scratch / incremental, len(batches)


@pytest.mark.parametrize("depth", [3, 5])
def test_kernel_guard_incremental_closure_wins(depth):
    speedup, batches = closure_path_speedup(depth)
    assert batches > 1
    assert speedup >= 1.0, (
        f"incremental closure path lost at depth {depth}: "
        f"{speedup:.2f}x over {batches} batches"
    )
