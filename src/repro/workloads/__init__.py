"""Workload and topology generators.

Topologies describe the static shape of a composite system (stack /
fork / join / tree / layered DAG — the paper's taxonomy plus the general
Figure-1 case); the generator populates a topology with a random,
always-well-formed composite execution.
"""

from repro.workloads.generator import WorkloadConfig, generate, generate_batch
from repro.workloads.topologies import (
    TopologySpec,
    fork_topology,
    join_topology,
    random_dag_topology,
    stack_topology,
    tree_topology,
)

__all__ = [
    "WorkloadConfig",
    "generate",
    "generate_batch",
    "TopologySpec",
    "fork_topology",
    "join_topology",
    "random_dag_topology",
    "stack_topology",
    "tree_topology",
]
