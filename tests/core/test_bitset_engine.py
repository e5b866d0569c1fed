"""Differential tests pinning the bitset Relation engine to the old one.

The packed-bitset rewrite of :class:`repro.core.orders.Relation` must be
observationally identical to the dict-of-sets engine it replaced — same
pairs, same iteration order, same witnesses, same closure-counter
telemetry.  Three layers of evidence:

* a hypothesis property drives random operation sequences through both
  engines (the old one lives on as :class:`tests.core.dict_engine.DictRelation`)
  and compares every observable after every step;
* the golden-engine fixture replays seven recorded workloads and
  compares narratives, verdicts, closure counters and canonical
  telemetry byte-for-byte against outputs captured from the pre-rewrite
  engine;
* the reduction engine's verdicts and fronts on random stack workloads
  are checked against the independent front oracle of
  :mod:`tests.core.front_oracle` (``test_front_oracle`` covers the
  other topologies, the golden workloads and the paper's figures).

Plus the two satellite regressions (unhashability, ``restricted_to``
carrier validation).
"""

import json
from collections.abc import Hashable

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.orders import (
    Relation,
    closure_counters,
    reset_closure_counters,
)
from repro.core.reduction import reduce_to_roots
from repro.obs import Telemetry, canonical_dumps, to_record
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import stack_topology
from tests.core import dict_engine
from tests.core.front_oracle import disagreements
from tests.core.golden import FIXTURE, GOLDEN_SPECS

ELEMENTS = ["a", "b", "c", "d", "e", "f", "g"]

_pair = st.tuples(st.sampled_from(ELEMENTS), st.sampled_from(ELEMENTS))

_op = st.one_of(
    st.tuples(st.just("add"), _pair),
    st.tuples(st.just("discard"), _pair),
    st.tuples(st.just("add_element"), st.sampled_from(ELEMENTS)),
    st.tuples(st.just("close"), st.none()),
    st.tuples(
        st.just("restrict"),
        st.lists(st.sampled_from(ELEMENTS), unique=True),
    ),
    st.tuples(st.just("mapped"), st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("inverse"), st.none()),
    st.tuples(
        st.just("union"),
        st.lists(_pair, max_size=6),
    ),
    st.tuples(
        st.just("add_closed"),
        st.lists(_pair, max_size=5),
    ),
)


def _observe(new: Relation, old: "dict_engine.DictRelation") -> None:
    """Every cheap observable must agree between the engines."""
    assert list(new.elements) == list(old.elements)
    assert list(new.pairs()) == list(old.pairs())
    assert len(new) == len(old)
    assert new.is_transitive() == old.is_transitive()
    assert new.is_acyclic() == old.is_acyclic()
    assert new.find_cycle() == old.find_cycle()
    if new.is_acyclic():
        assert new.topological_sort() == old.topological_sort()
    for probe in ELEMENTS[:3]:
        assert new.successors(probe) == old.successors(probe)
        assert new.predecessors(probe) == old.predecessors(probe)


@settings(max_examples=120, deadline=None)
@given(ops=st.lists(_op, max_size=25))
def test_differential_operation_sequences(ops):
    new = Relation()
    old = dict_engine.DictRelation()
    for name, arg in ops:
        if name == "add":
            new.add(*arg)
            old.add(*arg)
        elif name == "discard":
            new.discard(*arg)
            old.discard(*arg)
        elif name == "add_element":
            new.add_element(arg)
            old.add_element(arg)
        elif name == "close":
            new = new.transitive_closure()
            old = old.transitive_closure()
        elif name == "restrict":
            keep = [e for e in arg if e in set(new.elements)]
            new = new.restricted_to(keep)
            old = old.restricted_to(keep)
        elif name == "mapped":
            buckets = arg

            def rep(e, buckets=buckets):
                return ELEMENTS[ELEMENTS.index(e) % buckets]

            new = new.mapped(rep)
            old = old.mapped(rep)
        elif name == "inverse":
            new = new.inverse()
            old = old.inverse()
        elif name == "union":
            new = new.union(Relation(arg))
            old = old.union(dict_engine.DictRelation(arg))
        elif name == "add_closed":
            new = new.transitive_closure()
            old = old.transitive_closure()
            new.add_closed(arg)
            old.add_closed(arg)
        _observe(new, old)


@settings(max_examples=25, deadline=None)
@given(
    depth=st.integers(min_value=2, max_value=3),
    roots=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=40),
    rate=st.floats(min_value=0.0, max_value=0.3),
    layout=st.sampled_from(["serial", "random", "perturbed"]),
)
def test_compc_verdicts_match_across_engines(depth, roots, seed, rate, layout):
    """The reduction engine and the independent front oracle must agree
    on every Comp-C verdict and every front on arbitrary stack
    workloads, and a second reduction must tell the byte-identical
    story."""
    recorded = generate(
        stack_topology(depth),
        WorkloadConfig(
            seed=seed,
            roots=roots,
            conflict_probability=rate,
            layout=layout,
        ),
    )
    result = reduce_to_roots(recorded.system)
    assert disagreements(recorded.system, result) == []
    again = reduce_to_roots(recorded.system)
    assert again.succeeded == result.succeeded
    assert again.narrative() == result.narrative()


@pytest.mark.parametrize("name,topo,cfg", GOLDEN_SPECS, ids=[s[0] for s in GOLDEN_SPECS])
def test_golden_engine_fixture(name, topo, cfg):
    """Replay the recorded workloads; every observable — narrative,
    verdict, closure counters, canonical telemetry — must be
    byte-identical to the pre-rewrite engine's captured output."""
    expected = json.loads(FIXTURE.read_text())[name]["incremental"]
    recorded = generate(topo(), WorkloadConfig(**cfg))
    reset_closure_counters()
    telemetry = Telemetry()
    result = reduce_to_roots(recorded.system, telemetry=telemetry)
    counters = closure_counters()
    canon = canonical_dumps([to_record(e) for e in telemetry.collect()])
    assert result.succeeded == expected["succeeded"]
    assert result.narrative() == expected["narrative"]
    assert counters["calls"] == expected["closure_calls"]
    assert counters["rows"] == expected["closure_rows"]
    assert canon == expected["telemetry"]


def test_relation_is_not_hashable():
    """Mutable + ``__eq__`` ⇒ ``__hash__ = None``: the ABC must agree."""
    relation = Relation([("a", "b")])
    assert not isinstance(relation, Hashable)
    with pytest.raises(TypeError):
        hash(relation)


def test_restricted_to_validates_carrier():
    relation = Relation([("a", "b"), ("b", "c")])
    with pytest.raises(ValueError, match="carrier is missing"):
        relation.restricted_to(["a", "b"], carrier=["a"])
    # A carrier covering every kept element is fine, extras get empty rows.
    restricted = relation.restricted_to(["a", "b"], carrier=["a", "b", "z"])
    assert list(restricted.pairs()) == [("a", "b")]
    assert "z" in restricted.elements

