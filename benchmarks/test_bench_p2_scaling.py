"""P2 — decision-procedure cost.

Times the Comp-C reduction against growing history sizes and system
orders.  The implementation is polynomial (transitive closures dominate:
roughly O(V·(V+E)) per level); the measured curve should grow
polynomially — we assert a loose super-linear-but-sub-quartic envelope
rather than exact exponents, since constants differ across machines.
The benchmark itself times the largest history-size point.

Also measured: the streaming closure path (``add_closed`` per arriving
batch vs re-closing per batch) and, when ``REPRO_BENCH_WORKERS`` asks
for more than one process, a multi-seed chaos sweep timed serial vs
parallel.  The sweep's wall-clock speedup is *recorded* (in
``BENCH_P2.json``) but not hard-asserted: CI machines are noisy.
"""

import os

from repro.analysis.scaling import (
    checker_scaling,
    closure_path_speedup,
    depth_scaling,
    sweep_speedup,
)
from repro.analysis.tables import banner, format_table
from repro.core.reduction import reduce_to_roots
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import stack_topology

WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))

BIG = generate(
    stack_topology(2),
    WorkloadConfig(seed=0, roots=32, conflict_probability=0.1),
)


def check_big():
    return reduce_to_roots(BIG.system)


def test_bench_p2_scaling(benchmark, emit):
    result = benchmark(check_big)
    assert result.fronts  # the verdict itself is workload-dependent

    size_points = checker_scaling(
        root_counts=(2, 4, 8, 16, 32), depth=2, repeats=2
    )
    depth_points = depth_scaling(depths=(2, 3, 4, 5), roots=6, repeats=2)
    closure_paths = closure_path_speedup(repeats=3)

    # --- assertions: monotone growth, polynomial envelope ----------------
    ops = [p.operations for p in size_points]
    secs = [p.seconds for p in size_points]
    assert ops == sorted(ops)
    # between the smallest and largest point, time grows at most like
    # size^4 (loose) and the largest point is slower than the smallest:
    growth = secs[-1] / max(secs[0], 1e-9)
    size_ratio = ops[-1] / ops[0]
    assert growth <= size_ratio**4, "checker cost blew past the envelope"
    assert secs[-1] >= secs[0]

    # --- assertions: streaming closure path ------------------------------
    # The one wall-clock claim we do hard-assert: maintaining the closure
    # incrementally (add_closed per arriving batch) must beat re-closing
    # from scratch per batch at every depth, and by >=2x at the deepest.
    # Measured headroom is ~5x, so the thresholds survive noisy CI boxes.
    for point in closure_paths:
        assert point.speedup > 1.0, f"depth {point.depth}: {point.speedup:.2f}x"
    assert closure_paths[-1].speedup >= 2.0, (
        f"depth {closure_paths[-1].depth}: "
        f"{closure_paths[-1].speedup:.2f}x"
    )

    # --- optional: serial-vs-parallel sweep -----------------------------
    # Only the determinism contract is hard-asserted; the recorded
    # speedup exceeds 1 only when the machine actually has the cores
    # (a 1-CPU container measures pure pool overhead, ~0.93x).
    sweep = None
    if WORKERS > 1:
        sweep = sweep_speedup(
            workers=WORKERS,
            protocols=("cc", "s2pl"),
            seeds=tuple(range(6)),
            depth=2,
            clients=4,
            transactions_per_client=20,
            intensity=0.5,
        )
        assert sweep.identical, "--workers output diverged from serial"

    def table(points):
        return format_table(
            ["point", "nodes", "time (ms)", "verdict"],
            [
                [
                    p.label,
                    p.operations,
                    f"{p.seconds * 1000:.2f}",
                    "accept" if p.accepted else "reject",
                ]
                for p in points
            ],
        )

    closure_path_table = format_table(
        ["depth", "ops", "pairs", "batches", "scratch ms", "incr. ms", "speedup"],
        [
            [
                p.depth,
                p.operations,
                p.pairs,
                p.batches,
                f"{p.scratch_seconds * 1000:.2f}",
                f"{p.incremental_seconds * 1000:.2f}",
                f"{p.speedup:.2f}x",
            ]
            for p in closure_paths
        ],
    )

    lines = [
        banner("P2: checker scaling"),
        "history size sweep (depth-2 stacks):",
        table(size_points),
        "",
        "system order sweep (6 roots):",
        table(depth_points),
        "",
        "streaming closure path (add_closed vs re-close per batch):",
        closure_path_table,
        "",
        "the decision procedure is polynomial; the dominating "
        "costs are per-level transitive closures, and the "
        "engine re-closes only each level's delta.",
    ]
    if sweep is not None:
        lines.extend(
            [
                "",
                f"{sweep.label}: serial {sweep.serial_seconds:.2f}s vs "
                f"{sweep.workers} workers {sweep.parallel_seconds:.2f}s "
                f"({sweep.speedup:.2f}x, identical={sweep.identical})",
            ]
        )

    data = {
        "size_sweep": [
            {
                "label": p.label,
                "operations": p.operations,
                "seconds": p.seconds,
                "accepted": p.accepted,
            }
            for p in size_points
        ],
        "depth_sweep": [
            {
                "label": p.label,
                "operations": p.operations,
                "seconds": p.seconds,
                "accepted": p.accepted,
            }
            for p in depth_points
        ],
        "closure_path": [
            {
                "depth": p.depth,
                "operations": p.operations,
                "batches": p.batches,
                "pairs": p.pairs,
                "scratch_seconds": p.scratch_seconds,
                "incremental_seconds": p.incremental_seconds,
                "speedup": p.speedup,
            }
            for p in closure_paths
        ],
        "sweep_speedup": None
        if sweep is None
        else {
            "label": sweep.label,
            "tasks": sweep.tasks,
            "workers": sweep.workers,
            "serial_seconds": sweep.serial_seconds,
            "parallel_seconds": sweep.parallel_seconds,
            "speedup": sweep.speedup,
            "identical": sweep.identical,
        },
    }

    emit("P2", "\n".join(lines), data=data)
