"""Golden lint tests: every registered CTX code has a minimal trigger.

``test_every_code_has_a_trigger`` walks the whole ``CODES`` registry,
so registering a new code without a golden fixture here fails the
suite — the stable-vocabulary contract of the lint subsystem.

Axioms 2a and 3 (CTX104/CTX106) are unreachable through the document
path — the builder folds intra-transaction orders and the axiom-3
expansion into the output orders — so the axiom fixtures construct
:class:`Schedule` objects directly with ``validate=False`` and drain
them through :func:`lint_schedule_axioms`.
"""

from typing import Mapping, Sequence, Set

import pytest

from repro.core.orders import Relation
from repro.core.schedule import Schedule
from repro.core.transaction import Transaction
from repro.exceptions import ScheduleAxiomError
from repro.lint import (
    AXIOM_CODES,
    CODES,
    DiagnosticCollector,
    Severity,
    lint_document,
    lint_schedule_axioms,
    lint_schedules,
)

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _axiom_codes(schedule: Schedule) -> Set[str]:
    collector = DiagnosticCollector()
    lint_schedule_axioms(collector, schedule)
    return {d.code for d in collector}


def _document_codes(document: Mapping) -> Set[str]:
    return {d.code for d in lint_document(document).diagnostics}


def _schedule_codes(schedules: Sequence[Schedule]) -> Set[str]:
    collector = DiagnosticCollector()
    lint_schedules(collector, schedules)
    return {d.code for d in collector}


def _txn(name, ops, **kw):
    return Transaction(name, ops, **kw)


# ----------------------------------------------------------------------
# axiom fixtures (API path, validate=False)
# ----------------------------------------------------------------------


def _axiom_1a_schedule() -> Schedule:
    return Schedule(
        "S",
        [_txn("T1", ["a"]), _txn("T2", ["b"])],
        conflicts=[("a", "b")],
        weak_input=[("T1", "T2")],
        validate=False,
    )


def _axiom_1b_schedule() -> Schedule:
    return Schedule(
        "S",
        [_txn("T1", ["a"]), _txn("T2", ["b"])],
        conflicts=[("a", "b")],
        weak_input=[("T2", "T1")],
        validate=False,
    )


def _axiom_1c_schedule() -> Schedule:
    return Schedule(
        "S",
        [_txn("T1", ["a"]), _txn("T2", ["b"])],
        conflicts=[("a", "b")],
        validate=False,
    )


def _axiom_2a_schedule() -> Schedule:
    return Schedule(
        "S",
        [_txn("T1", ["a", "b"], weak_order=[("a", "b")])],
        validate=False,
    )


def _axiom_2b_schedule() -> Schedule:
    return Schedule(
        "S",
        [_txn("T1", ["a", "b"], strong_order=[("a", "b")])],
        weak_output=[("a", "b")],
        validate=False,
    )


def _axiom_3_schedule() -> Schedule:
    return Schedule(
        "S",
        [_txn("T1", ["a"]), _txn("T2", ["b"])],
        strong_input=[("T1", "T2")],
        weak_output=[("a", "b")],
        validate=False,
    )


def _axiom_4_schedule() -> Schedule:
    # Axiom 4 holds by construction (the constructor folds the strong
    # output into the weak one), so simulate the refactor the re-check
    # guards against: a weak output that lost the strong pairs.
    schedule = Schedule(
        "S",
        [_txn("T1", ["a"]), _txn("T2", ["b"])],
        strong_output=[("a", "b")],
        validate=False,
    )
    schedule._weak_output = Relation(elements=("a", "b"))
    return schedule


_AXIOM_SCHEDULES = {
    "CTX101": _axiom_1a_schedule,
    "CTX102": _axiom_1b_schedule,
    "CTX103": _axiom_1c_schedule,
    "CTX104": _axiom_2a_schedule,
    "CTX105": _axiom_2b_schedule,
    "CTX106": _axiom_3_schedule,
    "CTX107": _axiom_4_schedule,
}


# ----------------------------------------------------------------------
# document fixtures
# ----------------------------------------------------------------------

_DOCUMENTS = {
    "CTX110": {
        "schedules": {
            "S": {"transactions": {"T": ["a"]}, "conflicts": [["a", "a"]]}
        }
    },
    "CTX111": {
        "schedules": {
            "S": {
                "transactions": {"T1": ["a"], "T2": ["b"]},
                "conflicts": [["a", "b"], ["b", "a"]],
                "executed": ["a", "b"],
            }
        }
    },
    "CTX112": {
        "schedules": {
            "S": {
                "transactions": {"T1": ["a"], "T2": ["b"]},
                "conflicts": [["a", "zz"]],
            }
        }
    },
    "CTX113": {
        "schedules": {
            "S": {"transactions": {"T": ["a"]}, "weak_input": [["T", "TX"]]}
        }
    },
    "CTX114": {
        "schedules": {
            "S": {
                "transactions": {"T1": ["a"], "T2": ["b"]},
                "weak_input": [["T1", "T2"], ["T2", "T1"]],
            }
        }
    },
    "CTX115": {
        "schedules": {
            "S": {
                "transactions": {"T1": ["a"], "T2": ["b"]},
                "weak_output": [["a", "b"], ["b", "a"]],
            }
        }
    },
    "CTX202": {
        "schedules": {
            "S1": {"transactions": {"T": ["a"]}},
            "S2": {"transactions": {"T": ["b"]}},
        }
    },
    "CTX203": {"schedules": {"S": {"transactions": {"T": ["a", "a"]}}}},
    "CTX204": {
        "schedules": {
            "S1": {"transactions": {"T1": ["T2"]}},
            "S2": {"transactions": {"T2": ["T1"]}},
        }
    },
    "CTX205": {
        "schedules": {"S": {"transactions": {"T1": ["T2"], "T2": ["z"]}}}
    },
    "CTX206": {
        "schedules": {
            "S1": {"transactions": {"T1": ["T2"], "T4": ["q"]}},
            "S2": {"transactions": {"T2": ["T4"]}},
        }
    },
    "CTX207": {
        "schedules": {
            "S1": {
                "transactions": {"A": ["f", "h"]},
                "weak_output": [["f", "h"]],
            },
            "S0": {"transactions": {"f": ["x"], "h": ["y"]}},
        }
    },
    "CTX208": {
        "schedules": {
            "S1": {
                "transactions": {"A": ["f", "h"]},
                "strong_output": [["f", "h"]],
            },
            "S0": {
                "transactions": {"f": ["x"], "h": ["y"]},
                "weak_input": [["f", "h"]],
            },
        }
    },
    "CTX220": {
        "levels": {"A": 1, "B": 2},
        "invokes": {"A": ["B"]},
        "root_schedules": ["B"],
    },
    "CTX221": {
        "levels": {"A": 2},
        "invokes": {"A": ["B"]},
        "root_schedules": ["A"],
    },
    "CTX222": {"levels": {"A": 1}, "invokes": {"A": []},
               "root_schedules": []},
    # executed a,b,c: both conflict pairs record the same direction
    # (T1 before T2), so the refuter finds no directed cycle and the
    # multigraph cycle stays a CTX301 warning
    "CTX301": {
        "schedules": {
            "S1": {
                "transactions": {"T1": ["a", "b"], "T2": ["c"]},
                "conflicts": [["a", "c"], ["c", "b"]],
                "executed": ["a", "b", "c"],
            }
        }
    },
    "CTX302": {
        "schedules": {
            "S": {"transactions": {"T": ["a", "b"]}, "executed": ["a"]}
        }
    },
    "CTX303": {
        "version": 99,
        "schedules": {"S": {"transactions": {"T": ["a"]}}},
    },
    "CTX304": {"version": 1, "succeeded": True, "failure": {"level": 0}},
    "CTX305": {},
    # any cycle-free system: the prover declines under seed_leaf_order
    # (the trigger runs lint_document with those options, see _trigger)
    "CTX306": {
        "schedules": {"S": {"transactions": {"T1": ["a"], "T2": ["b"]}}}
    },
    # the lost-update shape executed a,c,b: the recorded orientations
    # close a directed cycle and the replay rejects -> CERTIFIED_UNSAFE
    "CTX310": {
        "schedules": {
            "S1": {
                "transactions": {"T1": ["a", "b"], "T2": ["c"]},
                "conflicts": [["a", "c"], ["c", "b"]],
                "executed": ["a", "c", "b"],
            }
        }
    },
}

# CTX4xx codes are raised by the hardened repro.io document loaders
# (ParseError.diagnostic), not through lint_document: the trigger is
# raw text, not a parsed mapping.
_RAW_TEXTS = {
    "CTX401": '{"schedules": }',
    "CTX402": '{"schedules": {"S": ',
    "CTX403": "[1, 2, 3]",
}


# CTX5xx codes are raised by the streaming recovery layer
# (EventLogTruncatedError / PoisonEvent diagnostics),
# not through lint_document: each trigger provokes the real error path
# in a scratch directory.
_HEADER_LINE = b'{"e": "log", "v": 1, "derive": "declared"}\n'


def _ctx502_codes() -> Set[str]:
    import tempfile
    from pathlib import Path

    from repro.exceptions import EventLogTruncatedError
    from repro.stream.tail import EventLogTail

    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.jsonl"
        log.write_bytes(_HEADER_LINE)
        tail = EventLogTail(str(log))
        tail.poll()
        log.write_bytes(b"")
        try:
            tail.poll()
        except EventLogTruncatedError as err:
            assert err.diagnostic is not None
            return {err.diagnostic.code}
    return set()


_STREAM_TRIGGERS = {
    "CTX502": _ctx502_codes,
}


def _raw_text_codes(text: str) -> Set[str]:
    from repro.exceptions import ParseError
    from repro.io.jsondoc import parse_json_document

    try:
        parse_json_document(text, source="mem.json", expect_object=True)
    except ParseError as err:
        assert err.diagnostic is not None
        assert err.offset is not None
        return {err.diagnostic.code}
    return set()


def _trigger(code: str) -> Set[str]:
    if code in _AXIOM_SCHEDULES:
        return _axiom_codes(_AXIOM_SCHEDULES[code]())
    if code == "CTX201":
        return _schedule_codes(
            [
                Schedule("S", [_txn("T", ["a"])]),
                Schedule("S", [_txn("U", ["b"])]),
            ]
        )
    if code in _RAW_TEXTS:
        return _raw_text_codes(_RAW_TEXTS[code])
    if code in _STREAM_TRIGGERS:
        return _STREAM_TRIGGERS[code]()
    if code == "CTX306":
        from repro.core.observed import ObservedOrderOptions

        report = lint_document(
            _DOCUMENTS[code],
            options=ObservedOrderOptions(seed_leaf_order=True),
        )
        return {d.code for d in report.diagnostics}
    return _document_codes(_DOCUMENTS[code])


# ----------------------------------------------------------------------
# the completeness contract
# ----------------------------------------------------------------------


@pytest.mark.parametrize("code", sorted(CODES))
def test_every_code_has_a_trigger(code):
    assert (
        code in _AXIOM_SCHEDULES
        or code == "CTX201"
        or code in _DOCUMENTS
        or code in _RAW_TEXTS
        or code in _STREAM_TRIGGERS
    ), f"no golden fixture for {code}; add one when registering codes"
    assert code in _trigger(code)


def test_registry_severities():
    warnings = {code for code, (sev, _) in CODES.items()
                if sev is Severity.WARNING}
    notes = {code for code, (sev, _) in CODES.items()
             if sev is Severity.NOTE}
    assert warnings == {"CTX111", "CTX301"}
    assert notes == {"CTX306"}
    assert all(
        CODES[code][0] is Severity.ERROR
        for code in CODES
        if code not in warnings | notes
    )


def test_axiom_code_map_is_total():
    assert sorted(AXIOM_CODES.values()) == [f"CTX10{i}" for i in range(1, 8)]


# ----------------------------------------------------------------------
# shared-generator contract: engine and linter cannot disagree
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "code", sorted(set(_AXIOM_SCHEDULES) - {"CTX107"})
)
def test_engine_raises_what_lint_reports(code):
    schedule = _AXIOM_SCHEDULES[code]()
    with pytest.raises(ScheduleAxiomError) as err:
        schedule.validate_axioms()
    assert code in _axiom_codes(schedule)
    # the first lint finding is the exception the engine raises
    collector = DiagnosticCollector()
    lint_schedule_axioms(collector, schedule)
    assert collector.diagnostics[0].code == AXIOM_CODES[err.value.axiom]


def test_axiom_payload_becomes_location():
    collector = DiagnosticCollector(file="mem.json")
    lint_schedule_axioms(collector, _axiom_1a_schedule())
    [diagnostic] = collector.diagnostics
    assert diagnostic.code == "CTX101"
    assert diagnostic.severity is Severity.ERROR
    assert diagnostic.location.file == "mem.json"
    assert diagnostic.location.schedule == "S"
    assert diagnostic.location.nodes == ("a", "b", "T1", "T2")
    assert diagnostic.fix_hint
    rendered = diagnostic.render()
    assert rendered.startswith("CTX101 error:")
    assert "schedule S" in rendered


# ----------------------------------------------------------------------
# collector behaviour
# ----------------------------------------------------------------------


def test_unregistered_code_is_rejected():
    with pytest.raises(KeyError):
        DiagnosticCollector().report("CTX999", "nope")


def test_retired_stream_codes_stay_retired():
    # CTX501/CTX503 named checker-snapshot defects and CTX504 the stream
    # supervisor's poison-event quarantine; the codes must never come
    # back with a different meaning
    for code in ("CTX501", "CTX503", "CTX504"):
        assert code not in CODES
        with pytest.raises(KeyError):
            DiagnosticCollector().report(code, "retired")


def test_counts_are_sorted_and_complete():
    collector = DiagnosticCollector()
    collector.report("CTX305", "one")
    collector.report("CTX110", "two")
    collector.report("CTX305", "three")
    assert list(collector.counts().items()) == [("CTX110", 1), ("CTX305", 2)]


def test_diagnostic_to_dict_shape():
    collector = DiagnosticCollector(file="f.json")
    diagnostic = collector.report(
        "CTX110", "msg", schedule="S", nodes=("a",), fix_hint="drop it"
    )
    assert diagnostic.to_dict() == {
        "code": "CTX110",
        "severity": "error",
        "location": {"file": "f.json", "schedule": "S", "nodes": ["a"]},
        "message": "msg",
        "fix_hint": "drop it",
    }


def test_all_conflict_defects_reported_in_one_pass():
    """Every self-conflict and every duplicate surfaces in a single
    lint run."""
    codes = lint_document(
        {
            "schedules": {
                "S": {
                    "transactions": {"T1": ["a"], "T2": ["b"]},
                    "conflicts": [
                        ["a", "a"],
                        ["b", "b"],
                        ["a", "b"],
                        ["b", "a"],
                    ],
                }
            }
        }
    )
    counts = codes.collector.counts()
    assert counts["CTX110"] == 2
    assert counts["CTX111"] == 1
