"""Lint inside the chaos grid: sharded workers stay bit-identical.

``chaos_run`` lints every assembled (committed) execution and records
the ``code -> count`` summary on its point; ``merge_chaos_runs`` folds
them in seed order, so ``--workers N`` must produce byte-identical
tables — including the lint column.
"""

from repro.analysis.batch import chaos_grid_report
from repro.analysis.protocols import ChaosPoint, chaos_run, merge_chaos_runs
from repro.workloads.topologies import fork_topology, stack_topology


def test_chaos_points_carry_lint_counts():
    run = chaos_run(
        stack_topology(2),
        "cc",
        seed=0,
        intensity=0.5,
        clients=2,
        transactions_per_client=3,
    )
    if run.comp_c is not None and run.lint_codes:
        assert all(
            code.startswith("CTX") and count > 0
            for code, count in run.lint_codes.items()
        )
    point = merge_chaos_runs("stack2", "cc", 0.5, [run, run])
    for code, count in run.lint_codes.items():
        assert point.lint_codes[code] == 2 * count
    if run.assembled:
        # exactly one verdict per assembled run, folded like lint codes
        assert sum(run.safety_verdicts.values()) == 1
        for verdict, count in run.safety_verdicts.items():
            assert point.safety_verdicts[verdict] == 2 * count


def test_lint_breakdown_rendering():
    empty = ChaosPoint(
        protocol="cc", topology="t", intensity=1.0, runs=0,
        commits=0, gave_up=0, throughput=0.0, abort_rate=0.0,
        availability=1.0,
    )
    assert empty.lint_breakdown() == "-"
    busy = ChaosPoint(
        protocol="cc", topology="t", intensity=1.0, runs=1,
        commits=1, gave_up=0, throughput=1.0, abort_rate=0.0,
        availability=1.0, lint_codes={"CTX301": 2, "CTX111": 1},
    )
    assert busy.lint_breakdown() == "CTX111:1 CTX301:2"  # sorted by code
    assert busy.verdict_breakdown() == "-"
    verdicts = ChaosPoint(
        protocol="cc", topology="t", intensity=1.0, runs=3,
        commits=3, gave_up=0, throughput=1.0, abort_rate=0.0,
        availability=1.0,
        safety_verdicts={
            "unknown": 1, "certified_safe": 1, "certified_unsafe": 1
        },
    )
    assert verdicts.verdict_breakdown() == "safe:1 unsafe:1 unknown:1"


def test_sharded_grid_is_bit_identical_to_serial():
    spec = fork_topology(2)
    kwargs = dict(
        intensity=0.5, clients=2, transactions_per_client=4
    )
    serial = chaos_grid_report(
        spec, ("cc",), (0, 1, 2, 3), workers=1, **kwargs
    ).points
    sharded = chaos_grid_report(
        spec, ("cc",), (0, 1, 2, 3), workers=2, **kwargs
    ).points
    assert serial == sharded  # dataclass equality covers lint_codes
    [point] = serial
    assert point.assembled_runs > 0  # the lint path actually ran
    assert point.lint_codes == sharded[0].lint_codes
    # the verdict fold is part of the bit-identity contract too
    assert point.safety_verdicts == sharded[0].safety_verdicts
    assert sum(point.safety_verdicts.values()) == point.assembled_runs
