"""The static prover runs in lint only: ``check`` always reduces.

``--static-precheck`` is an unknown argument.  A system the prover can
neither certify nor refute is decided by the reduction like every
other, and a trace ``check`` writes carries no certificate and no
skip (``tests/io/test_trace.py`` pins that older traces recording a
skip are refused).
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.builder import SystemBuilder
from repro.core.reduction import reduce_to_roots
from repro.io import dumps_trace, load, loads_trace
from repro.lint import prove_static_safety

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


def test_unskipped_trace_has_no_certificate():
    result = reduce_to_roots(load(EXAMPLE).system)
    document = json.loads(dumps_trace(result))
    assert "static_certificate" not in document
    assert "skip" not in document
    assert loads_trace(dumps_trace(result)).serial_witness == (
        result.serial_order()
    )


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
