"""The static prover runs in lint only: ``check`` always reduces.

``--static-precheck`` is an unknown argument.  A system the prover can
neither certify nor refute is decided by the reduction like every
other, and a trace ``check`` writes carries no certificate and no
skip, while version-2 traces that carry them still load.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.builder import SystemBuilder
from repro.core.reduction import reduce_to_roots
from repro.io import dumps_trace, load, loads_trace
from repro.lint import prove_static_safety
from tests.io.test_trace import (
    precheck_skip_document,
    refutation_skip_document,
)

EXAMPLE = (
    Path(__file__).resolve().parents[2]
    / "examples"
    / "lint"
    / "booking_system.json"
)


def _unresolved_cycle_system():
    """The lost-update *shape* around an accepted execution: the
    multigraph has an orientable cycle but the recorded orientations
    close no directed cycle — neither certified nor refuted."""
    b = SystemBuilder()
    b.schedule("S1")
    b.transaction("T1", "S1", ["a", "b"])
    b.transaction("T2", "S1", ["c"])
    b.conflict("S1", "a", "c")
    b.conflict("S1", "c", "b")
    b.executed("S1", ["a", "b", "c"])
    return b.build()


def test_unknown_system_falls_back_to_full_reduction():
    system = _unresolved_cycle_system()
    report = prove_static_safety(system)
    assert not report.certified
    assert not report.refuted
    result = reduce_to_roots(system)
    assert result.succeeded
    assert result.serial_order()


def test_trace_round_trip_preserves_skip():
    trace = loads_trace(json.dumps(precheck_skip_document()))
    assert trace.succeeded
    assert trace.fronts == []
    assert trace.serial_witness is None
    [profile] = trace.profile
    assert profile.closure_calls == 0
    assert trace.static_certificate is not None
    assert trace.static_certificate["certified"] is True
    assert trace.static_certificate["witnesses"]


def test_refuted_trace_round_trip_preserves_skip():
    trace = loads_trace(json.dumps(refutation_skip_document()))
    assert not trace.succeeded
    assert trace.fronts == []
    [profile] = trace.profile
    assert profile.closure_calls == 0
    assert trace.static_certificate is not None
    assert trace.static_certificate["verdict"] == "certified_unsafe"
    assert trace.static_certificate["refutation"]["level"] == 1


def test_unskipped_trace_has_no_certificate():
    result = reduce_to_roots(load(EXAMPLE).system)
    trace = loads_trace(dumps_trace(result))
    assert trace.static_certificate is None
    assert trace.skip is None
    assert trace.serial_witness == result.serial_order()


def test_cli_check_static_precheck(capsys):
    """The removed flag is an unknown argument (argparse exit 2) to
    every command that took it."""
    for argv in (
        ["check", str(EXAMPLE), "--static-precheck"],
        ["simulate", "--static-precheck"],
        ["chaos", "--static-precheck"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments: --static-precheck" in (
            capsys.readouterr().err
        )
