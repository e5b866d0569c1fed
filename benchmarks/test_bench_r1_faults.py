"""R1 — robustness: Comp-C safety under injected faults.

The paper decides correctness from what each component *actually
committed* (Def. 10-16, Thm. 1) — which makes Comp-C exactly the
invariant that should survive component failures.  R1 makes that
measurable: every protocol runs under seeded fault plans (component
crash/restart windows, message drops, service degradation, transient
access failures) of increasing intensity, and every committed
execution is re-checked with the reduction.

The headline: faults degrade *liveness* — availability drops, abort
rates climb, work is wasted on discarded attempts — but never
*safety*: the recorder still assembles the committed execution under
every fault plan, and the composite-aware protocols (CC scheduling,
strict 2PL) stay Comp-C at every intensity.  The uncoordinated
protocols lose correctness for their usual reasons (ghost cycles on
joins), not because of faults.

The benchmark times one faulty CC cell; the sweep below is the
artifact table.  Both run through :func:`chaos_grid_report`, so
setting ``REPRO_BENCH_WORKERS`` shards the sweep's (protocol x seed)
cells across processes — with output identical to the serial run by
the batch runner's determinism contract.
"""

import os

from repro.analysis.batch import chaos_grid_report
from repro.analysis.tables import format_table
from repro.simulator.programs import ProgramConfig
from repro.workloads.topologies import join_topology, stack_topology

PROGRAM = ProgramConfig(items_per_component=4, item_skew=0.8)
SEEDS = (0, 1)
INTENSITIES = (0.0, 0.5, 1.0)
PROTOCOLS = ("cc", "s2pl", "sgt", "to")
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


def one_cell():
    [point] = chaos_grid_report(
        join_topology(3),
        ("cc",),
        SEEDS,
        intensity=1.0,
        clients=3,
        transactions_per_client=5,
        program=PROGRAM,
    ).points
    return point


def test_r1_smoke():
    """Fast CI gate: a faulty CC run is deterministic and stays Comp-C."""
    a = one_cell()
    b = one_cell()
    assert (a.commits, a.gave_up, a.availability, a.aborts_by_reason) == (
        b.commits,
        b.gave_up,
        b.availability,
        b.aborts_by_reason,
    )
    assert a.comp_c_rate == 1.0
    assert sum(a.faults_injected.values()) > 0


def test_bench_r1_faults(benchmark, emit):
    benchmark.pedantic(one_cell, rounds=2, iterations=1)

    topologies = [stack_topology(2), join_topology(3)]
    points = []
    for topology in topologies:
        for intensity in INTENSITIES:
            points.extend(
                chaos_grid_report(
                    topology,
                    PROTOCOLS,
                    SEEDS,
                    workers=WORKERS,
                    intensity=intensity,
                    clients=3,
                    transactions_per_client=5,
                    program=PROGRAM,
                ).points
            )

    # --- assertions: faults attack liveness, never safety --------------
    by_key = {(p.topology, p.protocol, p.intensity): p for p in points}
    for topology in topologies:
        for intensity in INTENSITIES:
            # the composite-aware protocols commit only Comp-C
            # executions, no matter what fails underneath them:
            assert by_key[(topology.name, "cc", intensity)].comp_c_rate == 1.0
            assert (
                by_key[(topology.name, "s2pl", intensity)].comp_c_rate == 1.0
            )
    for point in points:
        if point.intensity == 0.0:
            # intensity 0 is the fault-free baseline
            assert point.availability == 1.0
            assert not point.faults_injected
        else:
            assert sum(point.faults_injected.values()) > 0
    # crashes cost uptime somewhere in the faulty grid:
    faulty = [p for p in points if p.intensity > 0]
    assert any(p.availability < 1.0 for p in faulty)
    # and wasted work grows with intensity for the pessimistic protocol
    # (aborted attempts leave operations behind):
    assert any(p.discarded_operations > 0 for p in faulty)

    emit(
        "r1_faults",
        format_table(
            [
                "topology",
                "protocol",
                "intensity",
                "commits",
                "gave up",
                "avail.",
                "abort rate",
                "aborts by reason",
                "Comp-C",
            ],
            [
                [
                    p.topology,
                    p.protocol,
                    f"{p.intensity:.2f}",
                    p.commits,
                    p.gave_up,
                    f"{p.availability:.3f}",
                    f"{p.abort_rate:.3f}",
                    p.abort_breakdown(),
                    f"{p.comp_c_runs}/{p.assembled_runs}",
                ]
                for p in points
            ],
        ),
    )
