"""The reduction engine's fronts against the independent oracle of
:mod:`tests.core.front_oracle`, and the oracle against a mutant engine
that drops the Def.-10.2/10.3 forgetting gate."""

import pytest
from hypothesis import given, settings

import repro.core.reduction as reduction
from repro.core.observed import ObservedOrderOptions
from repro.core.reduction import reduce_to_roots
from repro.figures import figure1_system, figure3_system, figure4_system
from repro.testing import recorded_executions
from repro.workloads.generator import WorkloadConfig, generate
from tests.core.front_oracle import disagreements
from tests.core.golden import GOLDEN_SPECS


@given(recorded_executions(kinds=("stack", "fork", "join", "dag")))
@settings(max_examples=40, deadline=None)
def test_engine_fronts_match_oracle_on_generated_executions(recorded):
    system = recorded.system
    assert disagreements(system, reduce_to_roots(system)) == []


@pytest.mark.parametrize(
    "name,topo,cfg", GOLDEN_SPECS, ids=[s[0] for s in GOLDEN_SPECS]
)
def test_engine_fronts_match_oracle_on_golden_workloads(name, topo, cfg):
    system = generate(topo(), WorkloadConfig(**cfg)).system
    assert disagreements(system, reduce_to_roots(system)) == []


@pytest.mark.parametrize(
    "build", [figure1_system, figure3_system, figure4_system]
)
def test_engine_fronts_match_oracle_on_paper_figures(build):
    system = build()
    assert disagreements(system, reduce_to_roots(system)) == []


def test_oracle_catches_an_engine_without_the_forgetting_gate(monkeypatch):
    """A mutant engine whose pull-up propagates every pair (the gate
    dropped) must disagree with the oracle on Figure 4, the execution
    that is Comp-C only because its top schedule vouches for
    commutativity, and on the deepest golden stack."""
    original = reduction.pull_up_delta
    gateless = ObservedOrderOptions(forget_nonconflicting=False)

    def pull_up_without_gate(system, observed, rep, options, *, grouped, carry):
        return original(
            system, observed, rep, gateless, grouped=grouped, carry=carry
        )

    monkeypatch.setattr(reduction, "pull_up_delta", pull_up_without_gate)
    system = figure4_system()
    mutant = reduce_to_roots(system)
    assert not mutant.succeeded
    assert disagreements(system, mutant)
    caught = []
    for name, topo, cfg in GOLDEN_SPECS:
        golden = generate(topo(), WorkloadConfig(**cfg)).system
        if disagreements(golden, reduce_to_roots(golden)):
            caught.append(name)
    assert "stack5-serial" in caught, caught
