"""The log-chaos harness holds its own contract: every scenario ends
with the supervised watch certifying byte-identically to the batch
check (the harness hard-asserts internally; these tests pin the
recovery *shape* each fault family must produce)."""

import pytest

from repro.exceptions import StreamError
from repro.stream.chaos import SCENARIOS, run_chaos_suite


def test_scenario_names_are_stable():
    assert SCENARIOS == (
        "kill", "torn", "corrupt", "duplicate", "reorder", "rotate"
    )
    with pytest.raises(StreamError, match="unknown chaos scenario"):
        run_chaos_suite(scenarios=["nope"])


def test_kill_restarts_with_a_reread(tmp_path):
    [outcome] = run_chaos_suite(scenarios=["kill"])
    assert outcome.status == "REJECTED"
    assert outcome.quarantines == 0
    assert outcome.attempts == 2
    assert outcome.codes == []


def test_corrupt_line_is_quarantined_then_repaired(tmp_path):
    [outcome] = run_chaos_suite(scenarios=["corrupt"])
    assert outcome.quarantines == 1
    assert "CTX504" in outcome.codes
    assert outcome.status == "REJECTED"


def test_rotation_falls_back_to_full_reread(tmp_path):
    [outcome] = run_chaos_suite(scenarios=["rotate"])
    assert outcome.attempts == 2
    assert outcome.codes == ["CTX502"]
    assert outcome.status == "REJECTED"


def test_reorder_rereads_the_rewritten_prefix(tmp_path):
    [outcome] = run_chaos_suite(scenarios=["reorder"])
    assert outcome.attempts == 2
    assert outcome.quarantines == 0
    assert outcome.status == "REJECTED"
