"""The seven recorded workloads the golden-engine fixture pins.

Shared by the fixture replay (``test_bitset_engine``) and the front
oracle (``test_front_oracle``): stacks, a DAG, a tree, a fork and a
join, in serial, random and perturbed layouts.
"""

from pathlib import Path

from repro.workloads.topologies import (
    fork_topology,
    join_topology,
    random_dag_topology,
    stack_topology,
    tree_topology,
)

FIXTURE = Path(__file__).parent / "fixtures" / "golden_engine.json"

GOLDEN_SPECS = [
    ("stack3-serial", lambda: stack_topology(3), dict(seed=0, roots=4, conflict_probability=0.05, layout="serial")),
    ("stack4-random", lambda: stack_topology(4), dict(seed=3, roots=5, conflict_probability=0.08, layout="random")),
    ("stack5-serial", lambda: stack_topology(5), dict(seed=1, roots=6, conflict_probability=0.02, layout="serial")),
    ("dag5-serial", lambda: random_dag_topology(5, 3, seed=2), dict(seed=1, roots=6, conflict_probability=0.03, layout="serial")),
    ("tree5-perturbed", lambda: tree_topology(5, 2), dict(seed=7, roots=4, conflict_probability=0.04, layout="perturbed")),
    ("fork-random", lambda: fork_topology(3), dict(seed=11, roots=6, conflict_probability=0.2, layout="random")),
    ("join-perturbed", lambda: join_topology(3), dict(seed=5, roots=6, conflict_probability=0.3, layout="perturbed")),
]
