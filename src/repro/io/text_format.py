"""Save/load composite executions as JSON documents.

The on-disk shape is the nested-dict *spec* that
:meth:`repro.core.builder.SystemBuilder.from_spec` consumes, with a
top-level ``executions`` section for temporal layouts (checked against
the system there, and returned as the recorded lanes here).  Orders
are stored explicitly (not as ``executed`` sequences) so a round trip
reproduces the exact committed relations of the original system.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from repro.core.builder import SystemBuilder
from repro.core.system import CompositeSystem
from repro.exceptions import ModelError, ParseError
from repro.io.jsondoc import parse_json_document, read_json_text
from repro.io.recorded import RecordedExecution

FORMAT_VERSION = 1


def format_version_error(document: Mapping) -> Optional[ModelError]:
    """Why ``document`` is in a format version this library does not
    read (CTX303; an absent version is the current one), or ``None``."""
    version = document.get("version", FORMAT_VERSION)
    if version == FORMAT_VERSION:
        return None
    return ModelError(
        f"unsupported format version {version!r} "
        f"(this library writes version {FORMAT_VERSION})",
        code="CTX303",
        hint="re-save the document with the current library",
    )


def system_to_spec(system: CompositeSystem) -> Dict:
    """Extract the builder spec of an existing system."""
    schedules: Dict[str, Dict] = {}
    for name, schedule in system.schedules.items():
        transactions = {}
        for tname, txn in schedule.transactions.items():
            transactions[tname] = {
                "ops": list(txn.operations),
                "weak": [list(p) for p in txn.weak_order.pairs()],
                "strong": [list(p) for p in txn.strong_order.pairs()],
            }
        schedules[name] = {
            "transactions": transactions,
            "conflicts": sorted(sorted(pair) for pair in schedule.conflicts),
            "weak_output": [list(p) for p in schedule.weak_output.pairs()],
            "strong_output": [list(p) for p in schedule.strong_output.pairs()],
            "weak_input": [list(p) for p in schedule.weak_input.pairs()],
            "strong_input": [list(p) for p in schedule.strong_input.pairs()],
        }
    return {"version": FORMAT_VERSION, "schedules": schedules}


def dumps(
    recorded: Union[RecordedExecution, CompositeSystem], *, indent: int = 2
) -> str:
    """Serialize a system or recorded execution to JSON text."""
    if isinstance(recorded, CompositeSystem):
        document = system_to_spec(recorded)
    else:
        document = system_to_spec(recorded.system)
        document["executions"] = {
            name: list(seq) for name, seq in recorded.executions.items()
        }
    return json.dumps(document, indent=indent, sort_keys=True)


def loads(text: str, *, source: Optional[str] = None) -> RecordedExecution:
    """Parse JSON text back into a recorded execution.

    Systems saved without an ``executions`` section come back with an
    empty execution map.  ``source`` names the originating file in
    parse diagnostics; text that is not valid JSON, truncated, or not
    an object at the root raises :class:`ParseError` carrying a
    ``CTX401``/``CTX402``/``CTX403`` diagnostic with file, line, and
    byte offset (see :mod:`repro.io.jsondoc`).  A document with no
    ``schedules``, or of another format version
    (:func:`format_version_error`), raises :class:`ParseError` too.
    The system, ``executions`` section included, is checked by
    :meth:`SystemBuilder.from_spec` and ``build``, which raise
    :class:`~repro.exceptions.ModelError`.
    """
    document = parse_json_document(text, source=source, expect_object=True)
    if "schedules" not in document:
        raise ParseError("document has no 'schedules' section")
    error = format_version_error(document)
    if error is not None:
        raise ParseError(str(error))
    system = SystemBuilder.from_spec(document).build()
    sections = document.get("executions") or {}
    executions = {name: list(seq) for name, seq in sections.items()}
    return RecordedExecution(system=system, executions=executions)


def save(
    recorded: Union[RecordedExecution, CompositeSystem],
    path: Union[str, Path],
) -> None:
    Path(path).write_text(dumps(recorded))


def load(path: Union[str, Path]) -> RecordedExecution:
    return loads(read_json_text(path), source=str(path))
