"""Tests for the reduction-trace exporter."""

import json

import pytest

from repro.cli import main
from repro.core.reduction import reduce_to_roots
from repro.exceptions import ParseError
from repro.figures import figure1_system, figure3_system
from repro.io import save
from repro.io.trace import (
    TRACE_VERSION,
    dumps_trace,
    load_trace,
    loads_trace,
    save_trace,
    trace_from_dict,
    trace_to_dict,
)

from tests.io.trace_diff import diff_traces


class TestTraceDict:
    def test_accepted_trace(self):
        result = reduce_to_roots(figure1_system())
        doc = trace_to_dict(result)
        assert doc["succeeded"] is True
        assert doc["order"] == 3
        assert len(doc["fronts"]) == 4
        assert doc["serial_witness"]
        assert "failure" not in doc
        assert len(doc["witnesses"]) == 3

    def test_rejected_trace(self):
        result = reduce_to_roots(figure3_system())
        doc = trace_to_dict(result)
        assert doc["succeeded"] is False
        assert doc["failure"]["level"] == 3
        assert doc["failure"]["stage"] == "calculation"
        assert doc["failure"]["cycle"][0] == doc["failure"]["cycle"][-1]

    def test_front_payload(self):
        result = reduce_to_roots(figure1_system())
        front = trace_to_dict(result)["fronts"][0]
        assert set(front) == {
            "level",
            "nodes",
            "observed",
            "input_weak",
            "input_strong",
            "conflict_consistent",
        }
        assert front["conflict_consistent"] is True

    def test_json_round_trips(self):
        result = reduce_to_roots(figure3_system())
        text = dumps_trace(result)
        assert json.loads(text)["failure"]["description"]

    def test_save_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(reduce_to_roots(figure1_system()), path)
        assert json.loads(path.read_text())["succeeded"] is True


class TestTraceRoundTrip:
    def test_accepted_round_trip(self, tmp_path):
        result = reduce_to_roots(figure1_system())
        path = tmp_path / "trace.json"
        save_trace(result, path)
        trace = load_trace(path)
        assert trace.succeeded is True
        assert trace.order == result.system.order
        assert trace.roots == list(result.system.roots)
        assert trace.serial_witness == result.serial_order()
        assert len(trace.fronts) == len(result.fronts)
        for reloaded, original in zip(trace.fronts, result.fronts):
            assert reloaded.nodes == original.nodes
            assert list(reloaded.observed.pairs()) == list(
                original.observed.pairs()
            )
            assert reloaded.is_conflict_consistent()

    def test_rejected_round_trip(self):
        result = reduce_to_roots(figure3_system())
        trace = loads_trace(dumps_trace(result))
        assert trace.succeeded is False
        assert trace.failure["stage"] == "calculation"
        assert trace.serial_witness is None

    def test_profile_round_trips(self):
        result = reduce_to_roots(figure1_system())
        trace = loads_trace(dumps_trace(result))
        assert [p.level for p in trace.profile] == [
            p.level for p in result.profile
        ]
        assert [p.closure_rows for p in trace.profile] == [
            p.closure_rows for p in result.profile
        ]

    def test_version_check(self):
        doc = trace_to_dict(reduce_to_roots(figure1_system()))
        doc["version"] = TRACE_VERSION + 1
        with pytest.raises(ParseError, match="unsupported trace version"):
            trace_from_dict(doc)
        del doc["version"]
        with pytest.raises(ParseError, match="unsupported trace version"):
            trace_from_dict(doc)

    def test_tampered_consistency_flag_rejected(self):
        doc = trace_to_dict(reduce_to_roots(figure1_system()))
        doc["fronts"][0]["conflict_consistent"] = False
        with pytest.raises(ParseError, match="disagree"):
            trace_from_dict(doc)

    def test_level_accessor(self):
        trace = loads_trace(dumps_trace(reduce_to_roots(figure1_system())))
        assert trace.level(0).level == 0
        with pytest.raises(ParseError):
            trace.level(99)

    def test_utf8_on_disk(self, tmp_path):
        path = tmp_path / "trace.json"
        save_trace(reduce_to_roots(figure1_system()), path)
        json.loads(path.read_text(encoding="utf-8"))

    def test_diff_identical_traces_is_empty(self):
        text = dumps_trace(reduce_to_roots(figure1_system()))
        assert diff_traces(loads_trace(text), loads_trace(text)) == []

    def test_diff_reports_verdict_and_fronts(self):
        accepted = loads_trace(dumps_trace(reduce_to_roots(figure1_system())))
        rejected = loads_trace(dumps_trace(reduce_to_roots(figure3_system())))
        report = diff_traces(accepted, rejected)
        assert any("verdict" in line for line in report)


class TestCliTrace:
    def test_check_with_trace(self, tmp_path, capsys):
        source = tmp_path / "fig3.json"
        save(figure3_system(), source)
        trace = tmp_path / "trace.json"
        assert main(["check", str(source), "--trace", str(trace)]) == 0
        assert "trace written" in capsys.readouterr().out
        assert json.loads(trace.read_text())["succeeded"] is False


# ----------------------------------------------------------------------
# version 2: explicit skip provenance (both static-skip directions)
# ----------------------------------------------------------------------
# Runs that skipped the reduction on a static certificate no longer
# exist, but the documents they wrote must keep loading.  These are two
# such version-2 documents, trimmed to what the loader reads: the
# booking example certified safe, and the lost-update schedule refuted.
_LOST_UPDATE_FAILURE = {
    "blocked": ["T1", "T2"],
    "cycle": ["T1", "T2", "T1"],
    "description": "level 1: no calculation exists for T1, T2 "
    "(constraint cycle T1 -> T2 -> T1)",
    "level": 1,
    "stage": "calculation",
}


def _skipped_profile(nodes):
    return [
        {
            "closure_calls": 0,
            "closure_rows": 0,
            "level": 0,
            "nodes": nodes,
            "observed_pairs": 0,
            "seconds": 0.0002,
            "skipped": True,
        }
    ]


def precheck_skip_document():
    return {
        "version": 2,
        "order": 2,
        "roots": ["Book", "Audit"],
        "succeeded": True,
        "fronts": [],
        "witnesses": [],
        "profile": _skipped_profile(4),
        "serial_witness": None,
        "skip": {"direction": "precheck"},
        "static_certificate": {
            "certified": True,
            "declined": False,
            "reason": None,
            "refutation": None,
            "tier": "forest",
            "verdict": "certified_safe",
            "witnesses": [
                {
                    "cycle_edges": [],
                    "cycle_nodes": [],
                    "edge_count": 1,
                    "forest": True,
                    "level": 0,
                    "node_count": 4,
                    "orientable": None,
                }
            ],
        },
    }


def refutation_skip_document():
    return {
        "version": 2,
        "order": 1,
        "roots": ["T1", "T2"],
        "succeeded": False,
        "fronts": [],
        "witnesses": [],
        "profile": _skipped_profile(3),
        "failure": dict(_LOST_UPDATE_FAILURE),
        "skip": {"direction": "refutation"},
        "static_certificate": {
            "certified": False,
            "declined": False,
            "reason": "level-1 directed cycle T1 -> T2 -> T1 realized by "
            "the recorded execution",
            "refutation": {
                "cycle_nodes": ["T1", "T2"],
                "executions": {"S1": ["a", "c", "b"]},
                "failure": dict(_LOST_UPDATE_FAILURE),
                "level": 1,
            },
            "tier": None,
            "verdict": "certified_unsafe",
            "witnesses": [],
        },
    }


class TestSkipProvenance:
    def test_plain_run_has_null_skip(self):
        doc = trace_to_dict(reduce_to_roots(figure1_system()))
        assert doc["version"] == 2
        assert doc["skip"] is None
        assert "static_certificate" not in doc
        assert all(row["skipped"] is False for row in doc["profile"])
        trace = trace_from_dict(doc)
        assert not trace.skipped_by_precheck
        assert not trace.skipped_by_refutation

    def test_precheck_skip_round_trips(self):
        """A precheck-skipped accept is not ambiguous in version 2:
        version 1 wrote only ``"serial_witness": null``
        (indistinguishable from a dropped witness); version 2 records
        the direction explicitly."""
        trace = loads_trace(json.dumps(precheck_skip_document()))
        assert trace.succeeded
        assert trace.fronts == []
        assert trace.serial_witness is None
        assert trace.skip == {"direction": "precheck"}
        assert trace.skipped_by_precheck
        assert not trace.skipped_by_refutation
        assert trace.static_certificate["verdict"] == "certified_safe"

    def test_refutation_skip_round_trips(self):
        """The refute-skip state survives loading: version 1 dropped
        it entirely."""
        trace = loads_trace(json.dumps(refutation_skip_document()))
        assert not trace.succeeded
        assert trace.failure == _LOST_UPDATE_FAILURE
        assert trace.skip == {"direction": "refutation"}
        assert trace.skipped_by_refutation
        assert not trace.skipped_by_precheck
        # the witness provenance rides on the certificate
        assert trace.static_certificate["verdict"] == "certified_unsafe"

    @pytest.mark.parametrize("certified", [True, False])
    def test_v1_trace_still_loads_with_inferred_skip(self, certified):
        doc = (
            precheck_skip_document()
            if certified
            else refutation_skip_document()
        )
        doc["version"] = 1
        del doc["skip"]  # v1 documents have no skip field
        trace = trace_from_dict(doc)
        direction = "precheck" if certified else "refutation"
        assert trace.skip == {"direction": direction}
        assert trace.static_certificate == doc["static_certificate"]

    def test_v1_full_run_infers_no_skip(self):
        doc = trace_to_dict(reduce_to_roots(figure1_system()))
        doc["version"] = 1
        del doc["skip"]
        assert trace_from_dict(doc).skip is None

    def test_diff_reports_skip_difference(self):
        doc = precheck_skip_document()
        skipped = trace_from_dict(doc)
        full = trace_from_dict(dict(doc, skip=None))
        assert any("skip" in line for line in diff_traces(full, skipped))
