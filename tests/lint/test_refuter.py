"""The witness-producing refuter: sound by construction.

A CERTIFIED_UNSAFE verdict is only ever issued after the statically
constructed witness has been *replayed* through the real Def.-16
reduction engine and rejected — so a refutation can never disagree with
the full reduction (the hypothesis property at the bottom), and the
failure it records is the one the reduction reaches.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import SystemBuilder
from repro.core.certificates import replay_refutation
from repro.core.reduction import reduce_to_roots
from repro.lint import (
    WITNESS_VERSION,
    build_witness_document,
    lint_paths,
    prove_static_safety,
    replay_witness_file,
)
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import stack_topology, tree_topology

UNSAFE_DOC = """{
  "schedules": {
    "S1": {"transactions": {"T1": ["a", "b"], "T2": ["c"]},
           "conflicts": [["a", "c"], ["c", "b"]],
           "executed": ["a", "c", "b"]}
  }
}"""


def _lost_update_system():
    b = SystemBuilder()
    b.schedule("S1")
    b.transaction("T1", "S1", ["a", "b"])
    b.transaction("T2", "S1", ["c"])
    b.conflict("S1", "a", "c")
    b.conflict("S1", "c", "b")
    b.executed("S1", ["a", "c", "b"])
    return b.build()


# ----------------------------------------------------------------------
# the refutation against the reduction
# ----------------------------------------------------------------------


def test_refuted_skip_reconstructs_the_failure():
    """The refutation carries the witness's replay failure: the same
    level, stage and cycle the full reduction rejects with."""
    report = prove_static_safety(_lost_update_system())
    full = reduce_to_roots(_lost_update_system())
    assert report.refuted and report.refutation is not None
    assert full.failure is not None
    failure = report.refutation.failure
    assert failure["level"] == full.failure.level
    assert failure["stage"] == full.failure.stage
    assert failure["cycle"] == list(full.failure.cycle)
    assert "REJECTED" in full.narrative()


def test_replay_refutation_matches_full_run():
    system = _lost_update_system()
    report = prove_static_safety(system)
    assert report.refutation is not None
    replayed = replay_refutation(system, report.refutation.level)
    assert replayed.failure is not None
    assert replayed.failure.level == report.refutation.failure["level"]


# ----------------------------------------------------------------------
# witness documents: write -> replay round trip
# ----------------------------------------------------------------------


def test_witness_document_round_trips_through_replay(tmp_path):
    path = tmp_path / "unsafe.json"
    path.write_text(UNSAFE_DOC, encoding="utf-8")
    result, missing = lint_paths([str(path)])
    assert not missing
    document = build_witness_document(result)
    assert document["witness_version"] == WITNESS_VERSION
    assert document["verdicts"] == {"certified_unsafe": 1}
    [entry] = document["refutations"]
    assert entry["path"] == str(path)

    from repro.lint import write_witness_file

    witness_path = tmp_path / "witness.json"
    write_witness_file(str(witness_path), result)
    outcomes = replay_witness_file(str(witness_path))
    assert len(outcomes) == 1
    [outcome] = outcomes
    assert outcome.rejected
    assert outcome.level == 1
    assert "REJECTED" in outcome.describe()


def test_witness_document_empty_when_nothing_refuted(tmp_path):
    path = tmp_path / "clean.json"
    path.write_text(
        '{"schedules": {"S": {"transactions": {"T1": ["a"]},'
        ' "executed": ["a"]}}}',
        encoding="utf-8",
    )
    result, _ = lint_paths([str(path)])
    document = build_witness_document(result)
    assert document["refutations"] == []
    assert document["verdicts"] == {"certified_safe": 1}


# ----------------------------------------------------------------------
# the soundness property: no false refutations, ever
# ----------------------------------------------------------------------

_SPECS = [stack_topology(2), stack_topology(3), tree_topology(2, 2)]


@settings(max_examples=40, deadline=None)
@given(
    spec_index=st.integers(min_value=0, max_value=len(_SPECS) - 1),
    seed=st.integers(min_value=0, max_value=2000),
    conflicts=st.sampled_from([0.0, 0.1, 0.2, 0.3]),
)
def test_refuter_never_false_refutes(spec_index, seed, conflicts):
    """For arbitrary generated workloads: every CERTIFIED_UNSAFE is
    backed by a rejecting reduction (its witness replays to the same
    failure level band), and conversely a system whose reduction
    succeeds is never refuted."""
    system = generate(
        _SPECS[spec_index],
        WorkloadConfig(seed=seed, roots=3, conflict_probability=conflicts),
    ).system
    report = prove_static_safety(system)
    full = reduce_to_roots(system)
    if report.refuted:
        assert full.failure is not None
        witness = report.refutation
        assert witness is not None
        replayed = replay_refutation(system, witness.level)
        assert replayed.failure is not None
        assert replayed.failure.level == witness.failure["level"]
    if full.succeeded:
        assert not report.refuted
