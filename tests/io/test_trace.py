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
        with pytest.raises(ParseError, match="relations say True") as err:
            trace_from_dict(doc)
        assert err.value.code == "CTX304"

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
# version 3: no skip provenance; skipped v1/v2 documents are refused
# ----------------------------------------------------------------------
# Runs that skipped the reduction on a static certificate no longer
# exist.  These are two version-2 documents such runs wrote, trimmed to
# what the loader reads: the booking example certified safe, and the
# lost-update schedule refuted.
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


def _refused_code(document):
    """The code of the error loading ``document`` raises."""
    with pytest.raises(ParseError) as refused:
        loads_trace(json.dumps(document))
    return refused.value.code


def _v2(document):
    """``document`` as version 2 wrote it: ``"skip": null`` and a
    ``"skipped": false`` flag on every profile row."""
    old = dict(document, version=2, skip=None)
    old["profile"] = [dict(row, skipped=False) for row in document["profile"]]
    return old


class TestSkipProvenance:
    def test_plain_run_writes_v3_without_skip(self):
        doc = trace_to_dict(reduce_to_roots(figure1_system()))
        assert doc["version"] == 3
        assert "skip" not in doc
        assert "static_certificate" not in doc
        assert all("skipped" not in row for row in doc["profile"])

    @pytest.mark.parametrize(
        "document", [precheck_skip_document, refutation_skip_document]
    )
    def test_skipped_v2_trace_is_refused(self, document):
        with pytest.raises(ParseError, match="static precheck") as refused:
            loads_trace(json.dumps(document()))
        assert refused.value.code == "CTX303"

    @pytest.mark.parametrize("certified", [True, False])
    def test_skipped_v1_trace_is_refused(self, certified):
        """Version 1 had no skip field: no fronts and a static
        certificate mark the skipped run."""
        doc = (
            precheck_skip_document()
            if certified
            else refutation_skip_document()
        )
        doc["version"] = 1
        del doc["skip"]
        assert _refused_code(doc) == "CTX303"

    @pytest.mark.parametrize("version", [1, 2])
    def test_full_run_of_older_versions_still_loads(self, version):
        """A v1 or v2 document of a full reduction loads with the same
        fronts, profile and verdict as the v3 document of that run."""
        for system in (figure1_system(), figure3_system()):
            doc = trace_to_dict(reduce_to_roots(system))
            old = _v2(doc)
            if version == 1:
                del old["skip"]
            old["version"] = version
            assert trace_from_dict(old) == trace_from_dict(doc)


# ----------------------------------------------------------------------
# every malformed trace ends in a trace or a CTX-coded ParseError
# ----------------------------------------------------------------------
def _accepted_document():
    return trace_to_dict(reduce_to_roots(figure1_system()))


def _edited(edit):
    document = _accepted_document()
    edit(document)
    return document


MALFORMED = {
    "version-only": ({"version": 2}, "CTX305"),
    "boolean-version": (_edited(lambda d: d.update(version=True)), "CTX303"),
    "float-version": (_edited(lambda d: d.update(version=3.0)), "CTX303"),
    "no-order": (_edited(lambda d: d.pop("order")), "CTX305"),
    "integer-roots": (_edited(lambda d: d.update(roots=5)), "CTX305"),
    "front-without-nodes": (
        _edited(lambda d: d.update(fronts=[{"level": 0}])),
        "CTX305",
    ),
    "front-pair-outside-nodes": (
        _edited(lambda d: d["fronts"][0]["observed"].append(["zz", "x1"])),
        "CTX305",
    ),
    "profile-row-without-seconds": (
        _edited(lambda d: d["profile"][0].pop("seconds")),
        "CTX305",
    ),
    "string-witness": (
        _edited(lambda d: d.update(serial_witness="R1")),
        "CTX305",
    ),
    "success-with-failure": (
        _edited(lambda d: d.update(failure={"level": 0})),
        "CTX304",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_trace_is_a_coded_parse_error(name):
    document, code = MALFORMED[name]
    assert _refused_code(document) == code
