"""Property tests for observed-order pull-up invariants.

Pinned here because they are the load-bearing semantics of Def. 10 (see
DESIGN.md note 2): pull-up never invents dependencies that seeds cannot
justify, forgetting is monotone (disabling it only rejects more), and
front observed orders shrink along the reduction in the sense that every
root-level pair is traceable to a seed chain.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.observed import ObservedOrderOptions, seed_observed_pairs
from repro.core.orders import Relation
from repro.core.reduction import reduce_to_roots
from repro.testing import recorded_executions
from repro.workloads.topologies import (
    join_topology,
    random_dag_topology,
    stack_topology,
)

STRICT = ObservedOrderOptions(forget_nonconflicting=False)


@given(recorded_executions(kinds=("stack", "join", "dag")))
@settings(max_examples=40, deadline=None)
def test_forgetting_is_monotone(recorded):
    default = reduce_to_roots(recorded.system).succeeded
    strict = reduce_to_roots(recorded.system, STRICT).succeeded
    # Disabling the forgetting rule can only reject more, never less.
    assert not strict or default


@given(recorded_executions(kinds=("stack", "fork", "join")))
@settings(max_examples=30, deadline=None)
def test_root_level_observed_pairs_trace_to_ground_chains(recorded):
    # Ground truth = conflicting ordered pairs (the seeds) plus
    # program-order links (intra-transaction weak orders and schedule
    # input orders): every root-level observed pair must be witnessed by
    # a chain through that relation — pull-up invents nothing.
    system = recorded.system
    result = reduce_to_roots(system)
    if not result.succeeded:
        return
    ground = Relation(seed_observed_pairs(system, system.all_nodes()))
    for schedule in system.schedules.values():
        for txn in schedule.transactions.values():
            ground.add_all(txn.weak_order.pairs())
        ground.add_all(schedule.weak_input.pairs())
    # Chains may pass through entire third-party trees (a composite
    # transaction is atomic in any serial order, so reaching INTO a tree
    # and leaving FROM a different node of it is a legitimate link —
    # Def. 10.4 transitivity works at root granularity after pull-up).
    at_roots = ground.mapped(system.root_of).transitive_closure()
    for a, b in result.final_front.observed.pairs():
        assert (a, b) in at_roots, (
            f"root pair ({a}, {b}) has no ground-level justification"
        )


@given(recorded_executions(kinds=("stack", "dag"), layouts=("random",)))
@settings(max_examples=30, deadline=None)
def test_verdict_independent_of_front_inspection(recorded):
    # Running the reduction twice, or stopping early and resuming via a
    # fresh engine, never changes the verdict: the procedure is a pure
    # function of the system.
    first = reduce_to_roots(recorded.system)
    second = reduce_to_roots(recorded.system)
    assert first.succeeded == second.succeeded
    if first.succeeded:
        assert [f.nodes for f in first.fronts] == [
            f.nodes for f in second.fronts
        ]


@given(
    seed=st.integers(0, 2000),
    kind=st.sampled_from(["stack", "join", "dag"]),
)
@settings(max_examples=40, deadline=None)
def test_observed_orders_never_relate_nodes_of_one_root_at_the_top(seed, kind):
    from repro.workloads.generator import WorkloadConfig, generate

    spec = {
        "stack": stack_topology(2),
        "join": join_topology(2),
        "dag": random_dag_topology(2, 2, seed=seed % 7),
    }[kind]
    recorded = generate(
        spec, WorkloadConfig(seed=seed, roots=3, conflict_probability=0.25)
    )
    result = reduce_to_roots(recorded.system)
    if not result.succeeded:
        return
    final = result.final_front
    for a, b in final.observed.pairs():
        assert a != b
        # both endpoints are roots; no reflexive or intra-tree pairs
        assert recorded.system.is_root(a) and recorded.system.is_root(b)
