"""``check`` and ``lint`` agree on every malformed system document.

Both commands run the same check sites in :mod:`repro.core`: ``check``
raises the first violation, lint collects them all.  So over a corpus
of system documents -- every one under ``tests/lint/fixtures``,
``examples/lint`` and ``tests/fixtures``, the shape documents of the CI
smoke step, the system-document triggers of ``test_codes.py`` and the
probes below -- ``check`` fails (exit 1, one ``repro check: error:``
line) exactly when lint reports an error-severity *load* finding, and
its message is one of lint's.  A load finding is one that
:func:`lint_system_document` reports, except Def. 4.7 (CTX207/CTX208):
lint reads a document as written, while ``check``'s builder propagates
the caller's output orders into the callee's inputs.  Topology and
shapeless documents stay out.

Trace documents have one check site too,
:func:`repro.io.trace.trace_from_dict`: the loader raises its first
violation and lint collects them all.  So on every malformed trace of
``tests/io/test_trace.py`` and on byte mutations of saved traces, the
loader ends in a trace or a CTX-coded error, never another exception,
and it fails exactly when lint reports an error, with lint's first
code and message -- a mutant that is not JSON, or not an object,
included (CTX401/CTX402/CTX403 from both).
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path
from typing import Dict, List, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.builder as builder_module
from repro.cli import main
from repro.core.reduction import reduce_to_roots
from repro.exceptions import ParseError
from repro.figures import figure1_system, figure3_system
from repro.io import dumps, dumps_trace, loads_trace
from repro.lint import DiagnosticCollector, lint_document, lint_system_document
from repro.lint.report import KIND_SYSTEM, KIND_TRACE, document_kind, lint_file
from repro.workloads import WorkloadConfig, generate, stack_topology
from tests.io.test_trace import MALFORMED

from .test_codes import _DOCUMENTS

REPO = Path(__file__).resolve().parents[2]

#: Def. 4.7: reported by lint, repaired by ``check``'s propagation
_PROPAGATION = {"CTX207", "CTX208"}

#: malformed documents whose findings come from the constructors' own
#: check sites, not from a failed construction
PROBES: Dict[str, Mapping] = {
    "empty-transaction-name": {
        "schedules": {"S": {"transactions": {"": ["z"], "T": ["a"]}}}
    },
    "empty-schedule-name": {"schedules": {"": {"transactions": {"T": ["a"]}}}},
    "sequential-string": {
        "schedules": {
            "S": {"transactions": {"T": {"ops": ["a", "b"], "sequential": "no"}}}
        }
    },
    "executed-mode-bogus": {
        "schedules": {
            "S": {
                "transactions": {"T": ["a"]},
                "executed": ["a"],
                "executed_mode": "bogus",
            }
        }
    },
    "propagation-closes-an-input-cycle": {
        "schedules": {
            "S1": {
                "transactions": {"A": ["f", "h"]},
                "weak_output": [["f", "h"]],
            },
            "S0": {
                "transactions": {"f": ["x"], "h": ["y"]},
                "weak_input": [["h", "f"]],
            },
        }
    },
    "executed-mode-number": {
        "schedules": {
            "S": {
                "transactions": {"T": ["a"]},
                "executed": ["a"],
                "executed_mode": 5,
            }
        }
    },
}


def _ci_documents() -> List[str]:
    """Every single-quoted system document of the CI workflow (the
    shape loops and the documents written with ``printf``)."""
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    texts = []
    for text in re.findall(r"'(\{.*?\})'", workflow):
        try:
            document = json.loads(text)
        except ValueError:
            continue
        if isinstance(document, dict) and "schedules" in document:
            texts.append(text)
    return texts


def _corpus() -> Dict[str, str]:
    """``id -> document text`` for every system document in the
    corpus."""
    texts: Dict[str, str] = {}
    for directory in ("tests/lint/fixtures", "examples/lint", "tests/fixtures"):
        for path in sorted((REPO / directory).glob("*.json")):
            texts[f"{directory}/{path.name}"] = path.read_text()
    for i, text in enumerate(_ci_documents()):
        texts[f"ci-{i}"] = text
    for code, document in _DOCUMENTS.items():
        texts[f"trigger-{code}"] = json.dumps(document)
    for name, document in PROBES.items():
        texts[f"probe-{name}"] = json.dumps(document)
    return {
        key: text
        for key, text in texts.items()
        if document_kind(json.loads(text)) == KIND_SYSTEM
    }


CORPUS = _corpus()


def _check(path: Path) -> "tuple[int, str]":
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    return code, err.getvalue()


def test_corpus_covers_every_source():
    prefixes = {key.split("-")[0].split("/")[0] for key in CORPUS}
    assert prefixes == {"tests", "examples", "ci", "trigger", "probe"}
    assert len(_ci_documents()) >= 19


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_check_fails_exactly_on_lint_load_errors(tmp_path, key):
    path = tmp_path / "doc.json"
    path.write_text(CORPUS[key])
    document = json.loads(CORPUS[key])
    collector = DiagnosticCollector()
    lint_system_document(collector, document)
    load_errors = [d for d in collector.errors if d.code not in _PROPAGATION]
    messages = {d.message for d in lint_document(document).collector.errors}

    code, err = _check(path)
    if load_errors:
        assert code == 1, err
        [line] = err.splitlines()
        assert line.startswith("repro check: error: ")
        assert line[len("repro check: error: "):] in messages
    else:
        assert code == 0, err
        assert err == ""


@pytest.mark.parametrize("key", sorted(CORPUS))
def test_no_document_falls_back_to_a_failed_construction(key):
    report = lint_document(json.loads(CORPUS[key]))
    assert not any(
        "failed unexpectedly" in d.message for d in report.diagnostics
    )


@pytest.mark.parametrize(
    "name, code, message",
    [
        ("empty-transaction-name", "CTX305", "transaction name must be non-empty"),
        ("empty-schedule-name", "CTX305", "schedule name must be non-empty"),
        (
            "sequential-string",
            "CTX305",
            "'sequential' of transaction 'T' of schedule 'S' is not a boolean",
        ),
        (
            "executed-mode-bogus",
            "CTX305",
            "unknown execution mode 'bogus' on schedule 'S'",
        ),
        ("executed-mode-number", "CTX305", "unknown execution mode 5 on schedule 'S'"),
    ],
)
def test_probe_is_one_finding_from_its_own_site(name, code, message):
    report = lint_document(PROBES[name])
    assert [(d.code, d.message) for d in report.diagnostics] == [(code, message)]


def test_sequential_true_still_orders_the_operations():
    document = {
        "schedules": {
            "S": {
                "transactions": {"T": {"ops": ["a", "b"], "sequential": True}},
                "weak_output": [["a", "b"]],
                "strong_output": [["a", "b"]],
            }
        }
    }
    system = builder_module.build_system(document)
    assert system.schedule("S").transactions["T"].is_sequential()
    assert not lint_document(document).collector.errors


def test_one_shape_check_per_stored_pair(monkeypatch):
    """Lint checks the shape of each pair a document stores once: the
    builder's spec reader is the only place that looks at them."""
    recorded = generate(
        stack_topology(4),
        WorkloadConfig(
            seed=0,
            roots=2,
            ops_per_transaction=(2, 2),
            conflict_probability=0.1,
            layout="serial",
        ),
    )
    document = json.loads(dumps(recorded))
    stored = 0
    for body in document["schedules"].values():
        for key in ("conflicts", "weak_input", "strong_input", "weak_output",
                    "strong_output"):
            stored += len(body.get(key, ()))
        for tdef in body["transactions"].values():
            stored += len(tdef.get("weak", ())) + len(tdef.get("strong", ()))
    assert stored > 100

    calls = []
    is_pair = builder_module._is_pair

    def counting(entry):
        calls.append(entry)
        return is_pair(entry)

    monkeypatch.setattr(builder_module, "_is_pair", counting)
    collector = DiagnosticCollector()
    assert lint_system_document(collector, document) is not None
    assert not collector.errors
    assert len(calls) == stored


def test_lint_reports_the_input_cycle_that_propagation_closes():
    """``S1``'s output ``f < h`` propagates to ``S0``'s input, which
    already orders ``h -> f``: lint reports the Def.-4.7 gap as written
    and the cycle that ``check``'s propagation closes."""
    report = lint_document(PROBES["propagation-closes-an-input-cycle"])
    assert [(d.code, d.message) for d in report.collector.errors] == [
        (
            "CTX207",
            "Def. 4.7 violated: f < h in the output of 'S1' but f -> h "
            "missing from the input order of 'S0'",
        ),
        ("CTX114", "weak input order of 'S0' is cyclic: cycle f -> h -> f"),
    ]


# ----------------------------------------------------------------------
# trace documents
# ----------------------------------------------------------------------
def _loader_outcome(text: str) -> "tuple[str, str] | None":
    """``(code, message)`` of the error loading ``text`` raises, or
    ``None`` when it loads."""
    try:
        loads_trace(text)
    except ParseError as error:
        if error.diagnostic is not None:  # not JSON, or not an object
            return error.diagnostic.code, error.diagnostic.message
        return error.code, str(error)
    return None


#: the loader codes of a document that does not read as a JSON object
_UNREADABLE = {"CTX401", "CTX402", "CTX403"}


def _assert_lint_agrees(text: str) -> None:
    outcome = _loader_outcome(text)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "trace.json"
        path.write_text(text, encoding="utf-8")
        report = lint_file(str(path))
    errors = report.collector.errors
    first = (errors[0].code, errors[0].message) if errors else None
    if report.kind == KIND_TRACE or (
        outcome is not None and outcome[0] in _UNREADABLE
    ):
        assert first == outcome
    else:  # lint cannot tell it is a trace: a shapeless document
        assert outcome is not None and first is not None
        assert outcome[0] == first[0] == "CTX305"


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_lint_and_loader_agree_on_malformed_traces(name):
    document, code = MALFORMED[name]
    _assert_lint_agrees(json.dumps(document))
    assert _loader_outcome(json.dumps(document))[0] == code


SAVED_TRACES = [
    dumps_trace(reduce_to_roots(system), indent=None)
    for system in (figure1_system(), figure3_system())
]

#: JSON's structural bytes, digits and literal letters, then any
#: printable byte
_BYTE = st.one_of(
    st.sampled_from(b'[]{}",:0123456789-.eEtrufalsn'),
    st.integers(min_value=0x20, max_value=0x7E),
)
_MUTATION = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.integers(min_value=0),
    _BYTE,
)


@settings(max_examples=300, deadline=None)
@given(
    text=st.sampled_from(SAVED_TRACES),
    mutations=st.lists(_MUTATION, min_size=1, max_size=3),
)
def test_every_byte_mutant_of_a_trace_loads_or_is_a_coded_error(
    text, mutations
):
    data = bytearray(text.encode("ascii"))
    for kind, position, byte in mutations:
        at = position % (len(data) + 1)
        if kind == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if kind == "replace":
                data[at] = byte
            else:
                del data[at]
    _assert_lint_agrees(data.decode("ascii"))
