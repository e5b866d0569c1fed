#!/usr/bin/env python3
"""Protocol comparison across configurations (a compact P1 run).

Sweeps the four per-component protocols over the paper's configuration
taxonomy (stack / fork / join / general DAG) at one multiprogramming
level and prints the performance-vs-correctness trade-off:

* ``cc``   — composite CC scheduling: always Comp-C, moderate aborts;
* ``s2pl`` — strict 2PL held to root commit: always Comp-C, heavy
  blocking/timeouts under contention;
* ``sgt``/``to`` — classical uncoordinated protocols: best raw numbers,
  but they commit non-Comp-C executions wherever composite transactions
  interfere through shared components (joins, DAGs).

The full parameter sweep lives in ``benchmarks/test_bench_p1_protocols``.

Run:  python examples/protocol_comparison.py
"""

from repro.analysis.protocols import evaluate_protocol
from repro.analysis.tables import format_table
from repro.simulator import ProgramConfig
from repro.workloads.topologies import (
    fork_topology,
    join_topology,
    random_dag_topology,
    stack_topology,
)


def main() -> None:
    topologies = [
        stack_topology(3),
        fork_topology(3),
        join_topology(3),
        random_dag_topology(3, 2, seed=5),
    ]
    program = ProgramConfig(
        items_per_component=4,
        item_skew=0.8,
        local_access_probability=0.15,
    )
    rows = []
    for topology in topologies:
        for protocol in ("cc", "s2pl", "sgt", "to"):
            point = evaluate_protocol(
                topology,
                protocol,
                clients=4,
                transactions_per_client=8,
                seeds=(0, 1, 2, 3),
                program=program,
            )
            rows.append(
                [
                    point.topology,
                    point.protocol,
                    f"{point.throughput:.3f}",
                    f"{point.abort_rate:.3f}",
                    f"{point.mean_response_time:.2f}",
                    f"{point.comp_c_runs}/{point.runs}",
                ]
            )
    print(
        format_table(
            [
                "topology",
                "protocol",
                "throughput",
                "abort rate",
                "mean resp.",
                "Comp-C runs",
            ],
            rows,
        )
    )
    print()
    print(
        "reading guide: the classical protocols win on raw numbers but\n"
        "lose correctness outside stacks/forks; the composite protocols\n"
        "pay for correctness with aborts (cc) or blocking (s2pl)."
    )


if __name__ == "__main__":
    main()
