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

:func:`trace_from_dict` is the one place a trace document is checked:
the loaders raise its first violation, and lint collects them all.

Version 3 dropped version 2's ``skip`` field and the per-row
``skipped`` flag: every verdict comes from the full reduction.  v1 and
v2 documents of a full reduction still load; one that records a
reduction skipped by the removed static precheck (a non-null ``skip``,
or in v1 no fronts and a ``static_certificate``) is refused with
CTX303.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.core.front import Front
from repro.core.orders import Relation
from repro.core.reduction import LevelProfile, ReductionResult
from repro.exceptions import ParseError, Report, TraceError, report_or_raise
from repro.io.jsondoc import parse_json_document, read_json_text

TRACE_VERSION = 3


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
        "profile": [asdict(p) for p in result.profile],
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

    def level(self, level: int) -> Front:
        for front in self.fronts:
            if front.level == level:
                return front
        raise ParseError(f"trace has no level-{level} front")


#: how :func:`trace_from_dict` states a violation: the message, with
#: the lint code, the nodes it concerns and a fix hint as keywords
_Violation = Callable[..., None]


def _count(value: Any) -> bool:
    return type(value) is int and value >= 0


def _names(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _profile_row(value: Any) -> bool:
    return isinstance(value, dict) and all(
        type(value.get(f.name)) in (int, float)
        if f.name == "seconds"
        else _count(value.get(f.name))
        for f in fields(LevelProfile)
    )


def _front_from_dict(
    entry: Any, position: int, succeeded: bool, violation: _Violation
) -> Optional[Front]:
    """The front at ``position`` of the ``fronts`` list, rebuilt from
    its well-formed relations; ``None`` without a level or nodes."""
    if not (
        isinstance(entry, dict)
        and _count(entry.get("level"))
        and _names(entry.get("nodes"))
    ):
        violation(
            f"trace front {position} must be an object with a "
            "non-negative integer 'level' and a list of names 'nodes'"
        )
        return None
    nodes = tuple(entry["nodes"])
    members = set(nodes)
    label = f"level-{entry['level']}"
    relations = {}
    for key in ("observed", "input_weak", "input_strong"):
        pairs = entry.get(key)
        if not isinstance(pairs, list) or not all(
            _names(pair) and len(pair) == 2 and members.issuperset(pair)
            for pair in pairs
        ):
            violation(
                f"{label} front {key!r} must be a list of pairs of its nodes",
                nodes=(label,),
            )
            pairs = []
        relations[key] = Relation(pairs, elements=nodes)
    front = Front(level=entry["level"], nodes=nodes, **relations)
    recorded = entry.get("conflict_consistent")
    actual = front.is_conflict_consistent()
    if recorded is not None and recorded is not actual:
        violation(
            f"{label} front records conflict_consistent={recorded} but "
            f"its relations say {actual}",
            code="CTX304",
            nodes=(label,),
            hint="the trace was edited or truncated; regenerate it",
        )
    if succeeded and not actual:
        violation(
            f"trace claims success but its {label} front is not "
            "conflict consistent",
            code="CTX304",
            nodes=(label,),
        )
    return front


def trace_from_dict(
    document: Mapping[str, Any], report: Optional[Report] = None
) -> Optional[ReductionTrace]:
    """Rebuild a :class:`ReductionTrace` from a trace dictionary.

    The one check site of a trace document: each violation is stated
    through :func:`~repro.exceptions.report_or_raise` as a
    :class:`~repro.exceptions.TraceError` with its lint code (CTX303 a
    version this library does not read or a skipped reduction, CTX304
    a verdict the document's own fronts or failure section contradict,
    CTX305 anything malformed).  Without ``report`` the first one
    raises.  Lint passes its collector and gets every violation; the
    trace is then rebuilt from the well-formed rest, or is ``None``
    when the version, the skip or the verdict leaves nothing to
    rebuild.
    """

    def violation(
        message: str,
        *,
        code: str = "CTX305",
        nodes: "tuple[str, ...]" = (),
        hint: Optional[str] = None,
    ) -> None:
        report_or_raise(
            report, TraceError(message, code=code, nodes=nodes, hint=hint)
        )

    def field_or(
        key: str, valid: Callable[[Any], bool], what: str, default: Any
    ) -> Any:
        """``document[key]`` when valid, else ``default``; ``order``
        and ``roots`` must be present."""
        if key not in document and key not in ("order", "roots"):
            return default
        if valid(document.get(key)):
            return document[key]
        violation(f"trace field {key!r} must be {what}")
        return default

    version = document.get("version")
    if type(version) is not int or not 1 <= version <= TRACE_VERSION:
        violation(
            f"unsupported trace version {version!r} "
            f"(this library reads versions 1..{TRACE_VERSION})",
            code="CTX303",
            hint="regenerate the trace with the current library",
        )
        return None
    if document.get("skip") is not None or (
        version == 1
        and not document.get("fronts")
        and document.get("static_certificate")
    ):
        violation(
            "trace records a reduction skipped by the static precheck, "
            "which this library no longer has: every verdict comes from "
            "the full reduction",
            code="CTX303",
            hint="run `check --trace` on the execution again",
        )
        return None
    succeeded = document.get("succeeded")
    if not isinstance(succeeded, bool):
        violation("trace has no boolean 'succeeded' verdict")
        return None
    failure = document.get("failure")
    if succeeded and failure is not None:
        violation(
            "trace claims success but records a failure certificate",
            code="CTX304",
            hint="a successful reduction has no failure section",
        )
    if not succeeded and failure is None:
        violation(
            "trace claims rejection but records no failure certificate",
            code="CTX304",
        )
    if failure is not None and not isinstance(failure, dict):
        violation("trace field 'failure' must be an object")
        failure = None
    entries = field_or("fronts", lambda v: isinstance(v, list), "a list", [])
    fronts = [
        _front_from_dict(entry, position, succeeded, violation)
        for position, entry in enumerate(entries)
    ]
    rows = field_or(
        "profile",
        lambda v: isinstance(v, list) and all(map(_profile_row, v)),
        "a list of level profiles",
        [],
    )
    return ReductionTrace(
        order=field_or("order", _count, "a non-negative integer", 0),
        roots=field_or("roots", _names, "a list of names", []),
        succeeded=succeeded,
        fronts=[front for front in fronts if front is not None],
        witnesses=field_or(
            "witnesses",
            lambda v: isinstance(v, list) and all(map(_names, v)),
            "a list of name lists",
            [],
        ),
        profile=[
            LevelProfile(**{f.name: row[f.name] for f in fields(LevelProfile)})
            for row in rows
        ],
        serial_witness=field_or(
            "serial_witness",
            lambda v: v is None or _names(v),
            "a list of names",
            None,
        ),
        failure=failure,
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
