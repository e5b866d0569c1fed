"""Hypothesis strategies for property-testing composite-transaction code.

Downstream users (and this library's own test suite) can draw random,
always-well-formed composite executions::

    from hypothesis import given
    from repro.testing import recorded_executions

    @given(recorded_executions())
    def test_my_invariant(recorded):
        assert my_checker(recorded.system) in (True, False)

Strategies produce :class:`repro.io.recorded.RecordedExecution`
objects via the deterministic workload generator, so shrinking reduces
to shrinking a handful of integers — minimal failing examples stay
readable.
"""

from __future__ import annotations

from typing import Optional, Sequence

try:
    from hypothesis import strategies as st
except ImportError as err:  # pragma: no cover - test-time dependency
    raise ImportError(
        "repro.testing requires hypothesis (pip install hypothesis)"
    ) from err

from repro.io.recorded import RecordedExecution
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import (
    TopologySpec,
    fork_topology,
    join_topology,
    random_dag_topology,
    stack_topology,
    tree_topology,
)


@st.composite
def topologies(
    draw,
    kinds: Sequence[str] = ("stack", "fork", "join", "tree", "dag"),
    max_depth: int = 3,
    max_width: int = 4,
) -> TopologySpec:
    """A random configuration from the paper's taxonomy."""
    kind = draw(st.sampled_from(list(kinds)))
    if kind == "stack":
        return stack_topology(draw(st.integers(1, max_depth)))
    if kind == "fork":
        return fork_topology(draw(st.integers(1, max_width)))
    if kind == "join":
        return join_topology(draw(st.integers(1, max_width)))
    if kind == "tree":
        return tree_topology(
            draw(st.integers(1, max_depth)), draw(st.integers(1, 2))
        )
    return random_dag_topology(
        draw(st.integers(1, max_depth)),
        draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 10_000)),
    )


@st.composite
def workload_configs(
    draw,
    layouts: Sequence[str] = ("serial", "random", "perturbed"),
    max_roots: int = 5,
) -> WorkloadConfig:
    """Random generator knobs (seeded, hence shrinkable)."""
    return WorkloadConfig(
        seed=draw(st.integers(0, 100_000)),
        roots=draw(st.integers(1, max_roots)),
        conflict_probability=draw(
            st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.5])
        ),
        intra_order_probability=draw(st.sampled_from([0.0, 0.3])),
        layout=draw(st.sampled_from(list(layouts))),
    )


@st.composite
def recorded_executions(
    draw,
    kinds: Sequence[str] = ("stack", "fork", "join", "tree", "dag"),
    layouts: Sequence[str] = ("serial", "random", "perturbed"),
    topology: Optional[TopologySpec] = None,
) -> RecordedExecution:
    """A random well-formed composite execution (system + layout)."""
    spec = topology if topology is not None else draw(topologies(kinds))
    config = draw(workload_configs(layouts))
    return generate(spec, config)


@st.composite
def composite_systems(draw, **kwargs):
    """Just the system, when the temporal layout is not needed."""
    return draw(recorded_executions(**kwargs)).system
