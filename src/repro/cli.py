"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
check       decide Comp-C for a saved execution (JSON)
lint        static analysis of system/trace/topology documents
info        structure + every applicable criterion for a saved execution
render      DOT/ASCII renderings of a saved execution
generate    random composite execution -> JSON file
simulate    run the discrete-event simulator, print metrics
chaos       simulate under injected faults, re-check Comp-C per protocol
figures     walk the paper's Figures 1-4
experiment  run one of the paper-artifact experiments (t1..t4, h1, p2, a1)
compare     Def.-18 front equivalence of two saved executions
report      run every experiment, write one Markdown report
profile     render a telemetry JSONL file into per-phase time tables
eventlog    convert a saved execution into a streaming JSONL event log
watch       tail an event log through the incremental Comp-C checker
resume      continue a killed run from its --checkpoint-out file

:data:`COMMANDS` is the one table of commands (name, help line,
argument builder, ``cmd_*``), in ``--help`` order.

``check``, ``simulate``, ``chaos`` and ``experiment`` accept
``--telemetry-out PATH``: the run executes under an ambient
:mod:`repro.obs` sink and writes one schema-versioned JSONL event
stream (spans, counters) to ``PATH``, deterministically ordered across
worker counts.  ``profile PATH`` turns such a file back into tables
(see docs/OBSERVABILITY.md).

``chaos`` and ``experiment`` accept ``--checkpoint-out PATH``: the run
periodically writes an atomic, schema-versioned checkpoint of every
completed grid cell.  A killed run continues with ``composite-tx
resume PATH`` (or ``--resume-from PATH`` on the original command),
re-running only what had not finished — the resumed run's metrics and
canonical telemetry are byte-identical to an uninterrupted run's.
``chaos`` additionally supervises its cells (``--task-timeout``,
``--task-retries``) and quarantines cells that keep failing instead of
aborting the grid; ``--fail-fast`` restores the abort-everything
behaviour.  Under ``--workers N`` a pool worker that is SIGKILLed or
hangs does not change the output: the tasks it took down re-run, and a
task that keeps losing workers alone is quarantined as a ``crash`` or
``hung`` cell.  See docs/RESILIENCE.md.

The CLI is a thin veneer over the library; every command maps onto the
public API used by the examples and benchmarks.  Each command imports
its own stack inside its ``cmd_*`` function, so a cold ``check`` loads
only argparse, the checker and :mod:`repro.io`
(``tests/test_cli_imports.py`` holds that budget).  Likewise
:func:`main` builds the subparser of the command it runs and no other
(``build_parser(name)``): adding an argument costs argparse a help
formatter, and the other commands' arguments would cost ``check`` more
than a shallow document's decision.  A call that names no registered
command (none, ``-h``, a typo) builds them all, so help and error text
are the full parser's byte for byte (``tests/test_cli_parser.py``).

Unreadable, malformed or ill-formed input (:class:`OSError`,
:class:`repro.exceptions.ParseError`, :class:`repro.exceptions.ModelError`,
and :class:`repro.exceptions.StreamError` for an event log out of
protocol) ends in one ``repro <command>: error: <message>`` line on
stderr and exit status 1, never a traceback; a parse error's message
carries its ``CTX4xx`` code and fix hint, and a bad event-log line is
named by its ``FILE:LINE``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.core.correctness import check_composite_correctness
from repro.io import load, save


def _topology(args: argparse.Namespace):
    from repro.workloads.topologies import (
        fork_topology,
        join_topology,
        random_dag_topology,
        stack_topology,
        tree_topology,
    )

    kind = args.topology
    if kind == "stack":
        return stack_topology(args.depth)
    if kind == "fork":
        return fork_topology(args.width)
    if kind == "join":
        return join_topology(args.width)
    if kind == "tree":
        return tree_topology(args.depth, args.width)
    if kind == "dag":
        return random_dag_topology(args.depth, args.width, seed=args.seed)
    raise SystemExit(f"unknown topology {kind!r}")


def _add_workers_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard independent runs across N processes (1 = serial; "
        "output is bit-identical either way)",
    )


def _add_telemetry_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="write a schema-versioned JSONL telemetry stream (spans + "
        "counters) for this run; render it with `composite-tx profile`",
    )


def _add_checkpoint_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-out",
        metavar="PATH",
        help="periodically write an atomic checkpoint of completed "
        "grid cells; a killed run continues with `composite-tx resume "
        "PATH`",
    )
    parser.add_argument(
        "--resume-from",
        metavar="PATH",
        help="resume from a checkpoint written by --checkpoint-out: "
        "completed cells are restored, only unfinished work re-runs "
        "(quarantined cells are NOT retried; rerun without this flag "
        "to retry them)",
    )


def _add_static_precheck_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--static-precheck",
        action="store_true",
        help="consult the two-sided static analyzer first and skip the "
        "reduction when the system is provably Comp-C (certified) or "
        "provably rejected (refuted, replay-validated witness) -- "
        "identical verdicts either way; recorded as a skipped profile "
        "level",
    )


def _add_topology_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology",
        choices=("stack", "fork", "join", "tree", "dag"),
        default="stack",
    )
    parser.add_argument("--depth", type=int, default=2)
    parser.add_argument("--width", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_check(args: argparse.Namespace) -> int:
    recorded = load(args.file)
    report = check_composite_correctness(
        recorded.system, static_precheck=args.static_precheck
    )
    print(report.narrative())
    if args.profile:
        from repro.analysis.tables import banner, format_table

        print()
        print(banner("reduction profile"))
        rows = [
            [
                f"{p.level} (skipped)" if p.skipped else p.level,
                f"{p.seconds * 1000:.2f}",
                p.closure_calls,
                p.closure_rows,
                p.nodes,
                p.observed_pairs,
            ]
            for p in report.reduction.profile
        ]
        totals = report.reduction.profile_totals()
        rows.append(
            [
                "total",
                f"{totals['seconds'] * 1000:.2f}",
                int(totals["closure_calls"]),
                int(totals["closure_rows"]),
                "",
                "",
            ]
        )
        print(
            format_table(
                ["level", "ms", "closures", "rows", "nodes", "obs pairs"],
                rows,
            )
        )
    if not report.correct and args.explain:
        print()
        print(report.explain())
    if args.trace:
        from repro.io.trace import save_trace

        save_trace(report.reduction, args.trace)
        print(f"reduction trace written to {args.trace}")
    if args.strict and not report.correct:
        return 2
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        lint_paths,
        render_json,
        render_text,
        write_witness_file,
    )

    result, missing = lint_paths(args.paths, workers=args.workers)
    for path in missing:
        print(f"lint: no such file or directory: {path}", file=sys.stderr)
    if missing:
        return 1
    if not result.reports:
        print("lint: no JSON documents found", file=sys.stderr)
        return 1
    if args.format == "json":
        print(render_json(result, strict=args.strict), end="")
    else:
        print(
            render_text(result, strict=args.strict, explain=args.explain)
        )
    if args.witness_out:
        # Written before the exit code is decided: a refuting run (exit
        # 2) is exactly when the witness document matters.
        write_witness_file(args.witness_out, result)
        print(
            f"witness document written to {args.witness_out}",
            file=sys.stderr,
        )
    return result.exit_code(strict=args.strict)


def cmd_info(args: argparse.Namespace) -> int:
    from repro.analysis.tables import banner, format_table
    from repro.criteria.registry import classify
    from repro.viz.ascii_art import render_forest, render_levels

    recorded = load(args.file)
    system = recorded.system
    print(banner("structure"))
    print(render_levels(system))
    print()
    print(render_forest(system))
    if recorded.executions:
        from repro.viz.timeline import render_lanes

        print(banner("execution lanes"))
        print(render_lanes(recorded))
    print(banner("criteria"))
    rows = []
    for name, verdict in classify(recorded).items():
        cell = "-" if verdict is None else ("yes" if verdict else "NO")
        rows.append([name, cell])
    print(format_table(["criterion", "verdict"], rows))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from repro.viz.ascii_art import render_forest, render_levels
    from repro.viz.dot import forest_dot, invocation_graph_dot

    recorded = load(args.file)
    if args.format == "dot-invocation":
        print(invocation_graph_dot(recorded.system))
    elif args.format == "dot-forest":
        print(forest_dot(recorded.system))
    else:
        print(render_levels(recorded.system))
        print()
        print(render_forest(recorded.system))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.workloads.generator import WorkloadConfig, generate

    spec = _topology(args)
    recorded = generate(
        spec,
        WorkloadConfig(
            seed=args.seed,
            roots=args.roots,
            conflict_probability=args.conflicts,
            layout=args.layout,
        ),
    )
    save(recorded, args.output)
    verdict = check_composite_correctness(recorded.system)
    print(
        f"wrote {args.output}: {spec.name}, {args.roots} roots, "
        f"{'Comp-C' if verdict.correct else 'NOT Comp-C'}"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.simulator import ProgramConfig, SimulationConfig, simulate

    spec = _topology(args)
    result = simulate(
        SimulationConfig(
            topology=spec,
            protocol=args.protocol,
            clients=args.clients,
            transactions_per_client=args.transactions,
            seed=args.seed,
            program=ProgramConfig(
                items_per_component=args.items, item_skew=args.skew
            ),
        )
    )
    report = None
    if result.assembled is not None:
        report = check_composite_correctness(
            result.assembled.recorded.system,
            static_precheck=args.static_precheck,
        )
        if report.reduction.skipped_by_precheck:
            result.metrics.static_precheck_skips += 1
        if report.reduction.skipped_by_refutation:
            result.metrics.static_refute_skips += 1
    rows = [[k, v] for k, v in result.metrics.summary().items()]
    print(format_table(["metric", "value"], rows))
    if report is not None:
        verdict = "Comp-C" if report.correct else "NOT Comp-C"
        if report.reduction.skipped_by_precheck:
            verdict += " (statically certified, reduction skipped)"
        elif report.reduction.skipped_by_refutation:
            verdict += " (statically refuted, reduction skipped)"
        print(f"committed execution: {verdict}")
        if args.output:
            save(result.assembled.recorded, args.output)
            print(f"recorded execution written to {args.output}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis.batch import chaos_grid_report
    from repro.analysis.supervise import BatchSupervisor
    from repro.analysis.tables import format_table

    spec = _topology(args)
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    supervisor = BatchSupervisor(
        task_timeout=args.task_timeout,
        max_attempts=max(1, args.task_retries),
        retry_seed=args.seed,
        fail_fast=args.fail_fast,
    )
    grid = chaos_grid_report(
        spec,
        protocols,
        tuple(range(args.seed, args.seed + args.runs)),
        workers=args.workers,
        supervisor=supervisor,
        intensity=args.intensity,
        clients=args.clients,
        transactions_per_client=args.transactions,
        retry_policy=args.retry_policy,
        static_precheck=args.static_precheck,
    )
    points = grid.points
    print(
        format_table(
            [
                "protocol",
                "commits",
                "gave up",
                "availability",
                "abort rate",
                "aborts by reason",
                "wasted ops",
                "Comp-C",
                "lint",
                "verdicts",
            ],
            [
                [
                    p.protocol,
                    p.commits,
                    p.gave_up,
                    f"{p.availability:.3f}",
                    f"{p.abort_rate:.3f}",
                    p.abort_breakdown(),
                    p.discarded_operations,
                    f"{p.comp_c_runs}/{p.assembled_runs}",
                    p.lint_breakdown(),
                    p.verdict_breakdown(),
                ]
                for p in points
            ],
        )
    )
    print(
        f"\nfault intensity {args.intensity} over {args.runs} seeded "
        f"run(s) per protocol on {spec.name}; faults degrade liveness, "
        f"never safety: composite-aware protocols stay Comp-C."
    )
    if grid.quarantine:
        print()
        print(grid.quarantine.render())
    if args.strict:
        for point in points:
            if point.protocol in ("cc", "s2pl") and point.comp_c_rate < 1.0:
                return 2
    return 1 if grid.quarantine else 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro import reduce_to_roots
    from repro.analysis.tables import banner
    from repro.figures import (
        figure1_system,
        figure2_system,
        figure3_system,
        figure4_system,
    )

    factories = {
        1: figure1_system,
        2: figure2_system,
        3: figure3_system,
        4: figure4_system,
    }
    numbers = [args.number] if args.number else sorted(factories)
    for n in numbers:
        print(banner(f"Figure {n}"))
        print(reduce_to_roots(factories[n]()).narrative())
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table

    name = args.name
    if name == "t1":
        from repro.analysis.theorems import theorem1_experiment

        rows = theorem1_experiment(trials=args.trials, workers=args.workers)
        print(
            format_table(
                ["configuration", "trials", "accepted", "witnesses", "certificates"],
                [
                    [r.label, r.trials, r.accepted, r.witnesses_valid, r.certificates_valid]
                    for r in rows
                ],
            )
        )
        return 0 if all(r.all_valid for r in rows) else 2
    if name in ("t2", "t3", "t4"):
        from repro.analysis.theorems import (
            theorem2_rows,
            theorem3_rows,
            theorem4_rows,
        )

        rows = {
            "t2": theorem2_rows,
            "t3": theorem3_rows,
            "t4": theorem4_rows,
        }[name](trials=args.trials, workers=args.workers)
        print(
            format_table(
                ["configuration", "trials", "agreements", "accepted"],
                [[r.label, r.trials, r.agreements, r.accepted] for r in rows],
            )
        )
        return 0 if all(r.disagreements == 0 for r in rows) else 2
    if name == "h1":
        from repro.analysis.hierarchy import (
            HIERARCHY,
            run_hierarchy_experiment,
            total_violations,
        )

        rows = run_hierarchy_experiment(
            trials=args.trials, workers=args.workers
        )
        print(
            format_table(
                ["conflict rate"] + list(HIERARCHY),
                [
                    [row.conflict_probability]
                    + [f"{row.accepted[c]}/{row.trials}" for c in HIERARCHY]
                    for row in rows
                ],
            )
        )
        print(f"containment violations: {total_violations(rows)}")
        return 0 if total_violations(rows) == 0 else 2
    if name == "p2":
        from repro.analysis.scaling import checker_scaling, sweep_speedup

        points = checker_scaling(repeats=2)
        print(
            format_table(
                ["point", "nodes", "ms"],
                [
                    [p.label, p.operations, f"{p.seconds * 1000:.2f}"]
                    for p in points
                ],
            )
        )
        if args.workers > 1:
            sweep = sweep_speedup(workers=args.workers)
            print(
                f"\n{sweep.label}: {sweep.tasks} tasks, serial "
                f"{sweep.serial_seconds:.2f}s vs {sweep.workers} workers "
                f"{sweep.parallel_seconds:.2f}s ({sweep.speedup:.2f}x), "
                f"results {'identical' if sweep.identical else 'DIFFER'}"
            )
        return 0
    if name == "a1":
        from repro.analysis.batch import ablation_task, run_batch
        from repro.workloads.generator import WorkloadConfig
        from repro.workloads.topologies import stack_topology

        spec = stack_topology(2)
        configs = [
            WorkloadConfig(seed=s, conflict_probability=0.2)
            for s in range(args.trials)
        ]
        verdicts = run_batch(
            [
                (spec, config, forget)
                for forget in (True, False)
                for config in configs
            ],
            ablation_task,
            workers=args.workers,
        )
        base = sum(verdicts[:len(configs)])
        ablated = sum(verdicts[len(configs):])
        print(
            format_table(
                ["variant", "accepted", "of"],
                [
                    ["default", base, len(configs)],
                    ["no forgetting", ablated, len(configs)],
                ],
            )
        )
        return 0
    raise SystemExit(f"unknown experiment {name!r}")


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.batch import compare_front_task, run_batch
    from repro.core.equivalence import level_equivalent_systems

    a = load(args.file_a).system
    b = load(args.file_b).system
    level_a = args.level_a if args.level_a is not None else a.order
    level_b = args.level_b if args.level_b is not None else b.order
    rename = {}
    for pair in args.rename or []:
        if "=" not in pair:
            raise SystemExit(f"--rename expects old=new, got {pair!r}")
        old, new = pair.split("=", 1)
        rename[old] = new
    descriptions = run_batch(
        [(args.file_a, level_a), (args.file_b, level_b)],
        compare_front_task,
        workers=args.workers,
    )
    for description in descriptions:
        print(description)
    equivalent = level_equivalent_systems(
        a, level_a, b, level_b, rename=rename or None
    )
    print(
        f"level-{level_a}/level-{level_b} equivalent (Def. 18): "
        + ("YES" if equivalent else "NO")
    )
    return 0 if equivalent else 3


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import TornTail, iter_records, validate_records
    from repro.obs.profile import render_profile

    # Stream the records instead of slurping: a sink a live run is
    # still appending to reads cleanly, its torn tail tolerated.
    torn_box: List[TornTail] = []
    records = list(iter_records(args.file, on_torn=torn_box.append))
    torn = torn_box[0] if torn_box else None
    if torn is not None:
        print(f"warning: {torn.describe()}", file=sys.stderr)
    problems = validate_records(records)
    if args.check:
        if torn is not None:
            problems = [torn.describe()] + problems
        for problem in problems:
            print(f"telemetry: {problem}", file=sys.stderr)
        print(
            f"{args.file}: {len(records)} records, "
            + ("INVALID" if problems else "schema OK")
        )
        return 1 if problems else 0
    if problems:
        print(
            f"warning: {len(problems)} schema problem(s); "
            "run `profile --check` for details",
            file=sys.stderr,
        )
    print(render_profile(records, top=args.top))
    return 0


def cmd_eventlog(args: argparse.Namespace) -> int:
    from repro.io.eventlog import events_from_recorded, save_event_log

    recorded = load(args.file)
    events = events_from_recorded(recorded)
    save_event_log(events, args.output)
    print(
        f"{args.output}: {len(events)} events "
        f"({len(recorded.system.roots)} roots, "
        f"{len(recorded.system.leaves)} leaf operations)"
    )
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    import os
    import time as _time

    from repro.analysis.tables import banner
    from repro.exceptions import StreamError
    from repro.obs import current
    from repro.stream import EventLogTail, IncrementalChecker
    from repro.stream.tail import log_truncated

    if args.from_offset:
        # resuming past bytes the log no longer holds would silently
        # suppress every transition below the offset
        size = (
            os.path.getsize(args.file) if os.path.exists(args.file) else 0
        )
        if size < args.from_offset:
            raise log_truncated(args.file, args.from_offset, size)
    checker = IncrementalChecker()
    tail = EventLogTail(args.file)
    last_status: Optional[str] = None
    try:
        while True:
            batch = tail.poll()
            for tailed in batch:
                try:
                    verdict = checker.ingest(tailed.event)
                except StreamError as err:
                    # name the line, as a ParseError does: it is what
                    # the operator repairs before resuming
                    raise StreamError(
                        f"{tail.path}:{tailed.line}: {err}"
                    ) from None
                if tailed.offset <= args.from_offset:
                    # catch-up below the resume offset: state is
                    # rebuilt, transitions are not re-announced
                    last_status = verdict.status
                    continue
                if verdict.status != last_status:
                    last_status = verdict.status
                    print(
                        f"[offset {tailed.offset}] {verdict.describe()}",
                        flush=True,
                    )
                if checker.ended:
                    break
            if checker.ended:
                break
            if not batch:
                if not args.follow:
                    break
                _time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted; certifying the prefix seen so far",
              file=sys.stderr)
    result = checker.finalize()
    current().absorb(checker.telemetry.collect())
    if result.reduction is None:
        print(f"{args.file}: no committed roots; nothing to check")
        return 0
    print()
    print(banner("final verdict (batch-certified)"))
    print(result.reduction.narrative())
    verdict = result.verdict
    print(
        f"stream: {verdict.events} event(s), {verdict.commits} "
        f"commit(s); resume offset {tail.offset}"
    )
    if args.strict and verdict.rejected:
        return 2
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.analysis.checkpoint import checkpoint_complete, read_checkpoint

    document = read_checkpoint(args.checkpoint)
    if checkpoint_complete(document):
        # every section is fully recorded (or the session closed
        # cleanly): re-dispatching would spawn a pool just to restore
        # everything and re-print — say so and succeed instead
        print(
            f"{args.checkpoint}: nothing to resume "
            "(checkpoint records a completed run)"
        )
        return 0
    stored = [str(a) for a in document.get("argv", [])]
    if not stored:
        raise SystemExit(
            f"{args.checkpoint}: no command line recorded; resume with "
            "the original command plus --resume-from"
        )
    # re-dispatch the recorded command with --resume-from appended
    # (dropping any stale --resume-from a doubly-resumed run recorded)
    forwarded: List[str] = []
    skip_next = False
    for argument in stored:
        if skip_next:
            skip_next = False
            continue
        if argument == "--resume-from":
            skip_next = True
            continue
        if argument.startswith("--resume-from="):
            continue
        forwarded.append(argument)
    print(
        "resuming: repro " + " ".join(forwarded + ["--resume-from", args.checkpoint]),
        file=sys.stderr,
    )
    return main(forwarded + ["--resume-from", args.checkpoint])


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import build_report

    text = build_report(
        trials=args.trials, include_protocols=args.protocols
    )
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"report written to {args.output}")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit with status 2 when the execution is not Comp-C",
    )
    p.add_argument(
        "--trace", help="write the JSON reduction trace to this path"
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="on rejection, trace the counterexample cycle back to "
        "concrete conflicting accesses",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="print the per-level reduction profile (wall time, "
        "closure calls, bitset rows touched)",
    )
    _add_static_precheck_option(p)
    _add_telemetry_option(p)


def _lint_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "paths",
        nargs="+",
        help="JSON documents and/or directories (searched recursively "
        "for *.json)",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors for the exit code",
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="print the provenance chain behind each verdict: the "
        "concrete SafetyEdge list of every cycle witness and the "
        "recorded executions a refutation replays",
    )
    p.add_argument(
        "--witness-out",
        metavar="PATH",
        help="write a schema-versioned canonical-JSON witness document "
        "(verdict counts plus every replayable refutation); replay it "
        "with repro.lint.replay_witness_file",
    )
    _add_workers_option(p)


def _info_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")


def _render_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument(
        "--format",
        choices=("ascii", "dot-invocation", "dot-forest"),
        default="ascii",
    )


def _generate_arguments(p: argparse.ArgumentParser) -> None:
    _add_topology_options(p)
    p.add_argument("--roots", type=int, default=4)
    p.add_argument("--conflicts", type=float, default=0.2)
    p.add_argument(
        "--layout", choices=("serial", "random", "perturbed"), default="random"
    )
    p.add_argument("-o", "--output", required=True)


def _simulate_arguments(p: argparse.ArgumentParser) -> None:
    _add_topology_options(p)
    p.add_argument(
        "--protocol", choices=("cc", "s2pl", "sgt", "to"), default="cc"
    )
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--transactions", type=int, default=8)
    p.add_argument("--items", type=int, default=4)
    p.add_argument("--skew", type=float, default=0.8)
    p.add_argument("-o", "--output")
    _add_static_precheck_option(p)
    _add_telemetry_option(p)


def _chaos_arguments(p: argparse.ArgumentParser) -> None:
    _add_topology_options(p)
    p.add_argument(
        "--protocols",
        default="cc,s2pl,sgt,to",
        help="comma-separated protocol list (default: all four)",
    )
    p.add_argument(
        "--intensity",
        type=float,
        default=1.0,
        help="fault-plan scale: 0 disables faults, 1 is the default "
        "mix, >1 amplifies it",
    )
    p.add_argument("--clients", type=int, default=3)
    p.add_argument("--transactions", type=int, default=5)
    p.add_argument(
        "--runs", type=int, default=2, help="seeded runs per protocol"
    )
    p.add_argument(
        "--retry-policy",
        choices=("linear", "exponential", "decorrelated-jitter"),
        default="exponential",
        help="in-simulation retry pacing; named policies are seeded "
        "per cell for reproducible sharded runs (default: seeded "
        "full-jitter exponential; 'linear' restores the legacy pacing)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 when a composite-aware protocol (cc/s2pl) commits "
        "a non-Comp-C execution under faults",
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget enforced inside the worker; "
        "a cell over budget is retried, then quarantined",
    )
    p.add_argument(
        "--task-retries",
        type=int,
        default=1,
        metavar="N",
        help="attempts per grid cell (seeded jittered backoff between "
        "them) before it is quarantined (default: 1)",
    )
    p.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the whole grid on the first cell that exhausts its "
        "attempts, instead of quarantining it and finishing the rest",
    )
    _add_static_precheck_option(p)
    _add_workers_option(p)
    _add_telemetry_option(p)
    _add_checkpoint_options(p)


def _figures_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("number", nargs="?", type=int, choices=(1, 2, 3, 4))


def _experiment_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "name", choices=("t1", "t2", "t3", "t4", "h1", "p2", "a1")
    )
    p.add_argument("--trials", type=int, default=30)
    _add_workers_option(p)
    _add_telemetry_option(p)
    _add_checkpoint_options(p)


def _compare_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--level-a", type=int, default=None)
    p.add_argument("--level-b", type=int, default=None)
    p.add_argument(
        "--rename",
        action="append",
        metavar="OLD=NEW",
        help="rename nodes of the first front before comparing",
    )
    _add_workers_option(p)


def _profile_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    p.add_argument(
        "--top", type=int, default=10, help="slowest spans to list"
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="validate the stream against the event schema and exit "
        "(status 1 on any violation)",
    )


def _eventlog_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="saved execution (see `generate`)")
    p.add_argument("output", help="event log path (JSONL)")


def _watch_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="JSONL event log (may still be growing)")
    p.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing after EOF until an `end` event arrives "
        "(torn tails are waited out, not errors)",
    )
    p.add_argument(
        "--from-offset",
        type=int,
        default=0,
        metavar="BYTES",
        help="suppress re-announcing transitions at or below this byte "
        "offset (the last `[offset N]` or the `resume offset` a "
        "previous watch printed); the checker still re-reads the whole "
        "log to rebuild its state, and a log shorter than the offset "
        "is refused (CTX502)",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="poll interval while following (default 0.2s)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 when the stream is rejected",
    )
    _add_telemetry_option(p)


def _resume_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("checkpoint")


def _report_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", default="REPORT.md")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument(
        "--protocols",
        action="store_true",
        help="include the (slow) protocol simulation excerpt",
    )


class Command(NamedTuple):
    """One subcommand: its name and ``--help`` line, the function that
    adds its arguments to its subparser, and the ``cmd_*`` it runs."""

    name: str
    help: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], int]


#: every subcommand, in the order ``repro --help`` lists them
COMMANDS: Tuple[Command, ...] = (
    Command("check", "decide Comp-C for a saved execution",
            _check_arguments, cmd_check),
    Command("lint", "static analysis of system/trace/topology documents "
            "(stable CTX*** diagnostic codes)", _lint_arguments, cmd_lint),
    Command("info", "structure + criteria classification",
            _info_arguments, cmd_info),
    Command("render", "render a saved execution", _render_arguments,
            cmd_render),
    Command("generate", "random execution -> JSON", _generate_arguments,
            cmd_generate),
    Command("simulate", "run the discrete-event simulator",
            _simulate_arguments, cmd_simulate),
    Command("chaos", "simulate under injected faults (crashes, drops, "
            "degradation) and re-check Comp-C per protocol",
            _chaos_arguments, cmd_chaos),
    Command("figures", "walk the paper's figures", _figures_arguments,
            cmd_figures),
    Command("experiment", "run a paper-artifact experiment",
            _experiment_arguments, cmd_experiment),
    Command("compare", "Def.-18 equivalence of two saved executions' "
            "fronts", _compare_arguments, cmd_compare),
    Command("profile", "render a --telemetry-out JSONL file into "
            "per-phase time tables and a slowest-spans list",
            _profile_arguments, cmd_profile),
    Command("eventlog", "convert a saved execution (JSON) into a "
            "streaming JSONL event log for `composite-tx watch`",
            _eventlog_arguments, cmd_eventlog),
    Command("watch", "stream an event log through the incremental "
            "Comp-C checker: live verdict transitions, batch-certified "
            "final verdict", _watch_arguments, cmd_watch),
    Command("resume", "continue a killed chaos/experiment run from its "
            "--checkpoint-out file (re-dispatches the recorded command "
            "with --resume-from)", _resume_arguments, cmd_resume),
    Command("report", "run every experiment, write a Markdown report",
            _report_arguments, cmd_report),
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser.  When ``command`` names an entry of
    :data:`COMMANDS` only that entry's subparser is built; otherwise
    every entry's is, as help and error text listing the commands
    need."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="composite-tx: composite transaction correctness "
        "(PODS 1999 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    entries = [entry for entry in COMMANDS if entry.name == command]
    if entries:
        # the top-level usage line (printed for unknown options) still
        # lists every command; pinned only here, because in the full
        # build a metavar would also rename the argument in its errors
        sub.metavar = "{" + ",".join(e.name for e in COMMANDS) + "}"
    else:
        entries = list(COMMANDS)
    for entry in entries:
        p = sub.add_parser(entry.name, help=entry.help)
        entry.add_arguments(p)
        p.set_defaults(func=entry.run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    # the named command's subparser alone; anything else (no command,
    # -h, an unknown name) gets every command, so help and error text
    # list them all
    parser = build_parser(raw_argv[0] if raw_argv else None)
    args = parser.parse_args(raw_argv)

    def dispatch() -> int:
        telemetry_out = getattr(args, "telemetry_out", None)
        if not telemetry_out:
            return args.func(args)
        from repro.obs import Telemetry, using, write_jsonl

        telemetry = Telemetry(stream="main")
        with using(telemetry):
            with telemetry.span("cli.command", command=args.command):
                code = args.func(args)
        write_jsonl(telemetry.collect(), telemetry_out)
        print(f"telemetry written to {telemetry_out}", file=sys.stderr)
        return code

    def run() -> int:
        checkpoint_out = getattr(args, "checkpoint_out", None)
        resume_from = getattr(args, "resume_from", None)
        if not checkpoint_out and not resume_from:
            return dispatch()
        from repro.analysis.checkpoint import (
            CheckpointSession,
            checkpointing,
        )

        if resume_from:
            # keep checkpointing into the same file (or
            # --checkpoint-out's override) so a resumed run can itself
            # be killed and resumed; the recorded argv stays the
            # original command's
            session = CheckpointSession.resume(resume_from)
            if checkpoint_out:
                session.path = checkpoint_out
        else:
            session = CheckpointSession(checkpoint_out, argv=raw_argv)
        with checkpointing(session):
            return dispatch()

    from repro.exceptions import ModelError, ParseError, StreamError

    try:
        return run()
    except (ParseError, ModelError, StreamError, OSError) as error:
        # unreadable, malformed or ill-formed input, or an event log
        # out of protocol: one line in argparse's error style instead
        # of a traceback (the exit status was 1 either way).  Coded
        # errors (CTX4xx, CTX502) carry their rendered diagnostic as
        # the message.  Caught outside `checkpointing`, which marks a
        # checkpoint complete only on a clean exit.
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
