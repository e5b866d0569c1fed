"""Machine-readable reduction traces.

Serializes a :class:`repro.core.reduction.ReductionResult` — every
front's nodes and relations, the per-level witness sequences, the
per-level cost profile, and the failure certificate when rejected — as
a JSON document.  Useful for debugging checker verdicts offline, for
diffing two runs, and as input to external visualizers.  Exposed on
the CLI as ``check --trace``.

Traces round-trip: :func:`load_trace` / :func:`trace_from_dict` rebuild
the fronts as real :class:`~repro.core.front.Front` objects (relations
included), so a saved trace can be re-validated and diffed against a
fresh run without the original execution file.  Every document carries
``TRACE_VERSION`` and loading rejects unknown versions instead of
misreading them.

Version history
---------------
``2``
    adds the explicit ``skip`` field: ``null`` for a fully-reduced run,
    ``{"direction": "precheck"}`` / ``{"direction": "refutation"}``
    when the verdict came from the static prover alone.  Version-1
    traces encoded precheck skips as ``"serial_witness": null`` —
    indistinguishable from a dropped witness — and lost the
    refutation-skip state entirely; they are still loadable, with the
    skip inferred from the certificate.

The reduction is the only way a verdict is reached, so every trace this
module writes records ``"skip": null`` and profile rows with
``"skipped": false``; documents from runs that skipped the reduction
on a static certificate still load with their ``skip`` and
``static_certificate``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.front import Front
from repro.core.orders import Relation
from repro.core.reduction import LevelProfile, ReductionResult
from repro.exceptions import ParseError
from repro.io.jsondoc import parse_json_document, read_json_text

TRACE_VERSION = 2


def _front_to_dict(front: Front) -> Dict:
    return {
        "level": front.level,
        "nodes": list(front.nodes),
        "observed": [list(p) for p in front.observed.pairs()],
        "input_weak": [list(p) for p in front.input_weak.pairs()],
        "input_strong": [list(p) for p in front.input_strong.pairs()],
        "conflict_consistent": front.is_conflict_consistent(),
    }


def trace_to_dict(result: ReductionResult) -> Dict:
    """The full reduction trace as a plain dictionary."""
    document: Dict = {
        "version": TRACE_VERSION,
        "order": result.system.order,
        "roots": list(result.system.roots),
        "succeeded": result.succeeded,
        "fronts": [_front_to_dict(front) for front in result.fronts],
        "witnesses": [list(w) for w in result.witnesses],
        "profile": [
            {
                "level": p.level,
                "seconds": p.seconds,
                "closure_calls": p.closure_calls,
                "closure_rows": p.closure_rows,
                "nodes": p.nodes,
                "observed_pairs": p.observed_pairs,
                "skipped": False,
            }
            for p in result.profile
        ],
        "skip": None,
    }
    if result.succeeded:
        document["serial_witness"] = result.serial_order()
    else:
        failure = result.failure
        document["failure"] = {
            "level": failure.level,
            "stage": failure.stage,
            "cycle": list(failure.cycle),
            "blocked": list(failure.blocked),
            "description": failure.describe(),
        }
    return document


def dumps_trace(result: ReductionResult, *, indent: int = 2) -> str:
    return json.dumps(trace_to_dict(result), indent=indent, sort_keys=True)


def save_trace(result: ReductionResult, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps_trace(result), encoding="utf-8")


# ----------------------------------------------------------------------
# loading (the other half of the round trip)
# ----------------------------------------------------------------------
@dataclass
class ReductionTrace:
    """A reloaded reduction trace.

    A system-free view of a :class:`ReductionResult`: the fronts are
    real :class:`Front` objects (relations rebuilt, so consistency can
    be re-checked), but the composite system itself is not stored in a
    trace — reload the execution file for that.
    """

    order: int
    roots: List[str]
    succeeded: bool
    fronts: List[Front]
    witnesses: List[List[str]]
    profile: List[LevelProfile] = field(default_factory=list)
    serial_witness: Optional[List[str]] = None
    failure: Optional[Dict] = None
    #: the static prover's report (plain dict) when the producing run
    #: consulted it before reducing; ``None`` otherwise
    static_certificate: Optional[Dict] = None
    #: ``{"direction": "precheck" | "refutation"}`` when the verdict
    #: came from the static prover alone; ``None`` when the reduction
    #: actually ran (inferred for version-1 traces)
    skip: Optional[Dict] = None

    @property
    def skipped_by_precheck(self) -> bool:
        return self.skip is not None and self.skip.get("direction") == "precheck"

    @property
    def skipped_by_refutation(self) -> bool:
        return (
            self.skip is not None
            and self.skip.get("direction") == "refutation"
        )

    def level(self, level: int) -> Front:
        for front in self.fronts:
            if front.level == level:
                return front
        raise ParseError(f"trace has no level-{level} front")


def _front_from_dict(document: Dict) -> Front:
    nodes = tuple(document["nodes"])
    front = Front(
        level=document["level"],
        nodes=nodes,
        observed=Relation(document["observed"], elements=nodes),
        input_weak=Relation(document["input_weak"], elements=nodes),
        input_strong=Relation(document["input_strong"], elements=nodes),
    )
    recorded = document.get("conflict_consistent")
    if recorded is not None and recorded != front.is_conflict_consistent():
        raise ParseError(
            f"trace level-{front.level} front records "
            f"conflict_consistent={recorded} but the reloaded relations "
            "disagree"
        )
    return front


def _infer_v1_skip(document: Dict) -> Optional[Dict]:
    """Recover the skip state a version-1 trace only implied.

    Version 1 had no ``skip`` field: a precheck-skipped accept was the
    pattern (succeeded, no fronts, certified certificate, null
    witness), and a refutation skip (succeeded=False, no fronts,
    certificate verdict ``certified_unsafe``) was not distinguishable
    from a trace whose fronts were simply stripped — we trust the
    certificate here, which a reduction-produced rejection never
    carries with that verdict.
    """
    if document.get("fronts"):
        return None
    certificate = document.get("static_certificate")
    if not certificate:
        return None
    if (
        document.get("succeeded")
        and certificate.get("certified")
        and document.get("serial_witness") is None
    ):
        return {"direction": "precheck"}
    if (
        not document.get("succeeded")
        and certificate.get("verdict") == "certified_unsafe"
    ):
        return {"direction": "refutation"}
    return None


def trace_from_dict(document: Dict) -> ReductionTrace:
    """Rebuild a :class:`ReductionTrace` from a trace dictionary.

    Raises :class:`~repro.exceptions.ParseError` on a missing or
    unsupported ``version`` and when a front's recorded consistency
    verdict contradicts its reloaded relations.
    """
    version = document.get("version")
    if version not in (1, TRACE_VERSION):
        raise ParseError(
            f"unsupported trace version {version!r} "
            f"(this library reads versions 1..{TRACE_VERSION})"
        )
    skip = document.get("skip")
    if version == 1:
        skip = _infer_v1_skip(document)
    return ReductionTrace(
        order=document["order"],
        roots=list(document["roots"]),
        succeeded=document["succeeded"],
        fronts=[_front_from_dict(f) for f in document.get("fronts", [])],
        witnesses=[list(w) for w in document.get("witnesses", [])],
        profile=[
            LevelProfile(
                level=p["level"],
                seconds=p["seconds"],
                closure_calls=p["closure_calls"],
                closure_rows=p["closure_rows"],
                nodes=p["nodes"],
                observed_pairs=p["observed_pairs"],
            )
            for p in document.get("profile", [])
        ],
        serial_witness=document.get("serial_witness"),
        failure=document.get("failure"),
        static_certificate=document.get("static_certificate"),
        skip=skip,
    )


def loads_trace(text: str, *, source: Optional[str] = None) -> ReductionTrace:
    """Parse trace JSON with the hardened document loader: invalid,
    truncated, or non-object text raises :class:`ParseError` carrying
    a ``CTX4xx`` diagnostic (file, line, byte offset) instead of a raw
    ``json.JSONDecodeError``."""
    return trace_from_dict(
        parse_json_document(text, source=source, expect_object=True)
    )


def load_trace(path: Union[str, Path]) -> ReductionTrace:
    return loads_trace(read_json_text(path), source=str(path))
