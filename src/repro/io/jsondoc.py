"""Hardened JSON document parsing for the :mod:`repro.io` loaders.

:func:`parse_json_document` is what ``load``/``loads`` and the trace
loaders call instead of raw :func:`json.loads`.  A file that is not
valid JSON no longer surfaces as a bare :class:`json.JSONDecodeError`
— it becomes a :class:`~repro.exceptions.ParseError` carrying a
lint-style diagnostic with a stable code, the offending file, the
1-based line, and the byte offset:

* ``CTX401`` — the text is not valid JSON (a defect *inside* the
  document: a stray character, a missing delimiter, bytes that are
  not UTF-8, arrays or objects nested past the parser's depth);
* ``CTX402`` — the JSON text ends unexpectedly, the signature of a
  **truncated** file (an interrupted write, a partial copy).  The
  distinction matters operationally: CTX402 means go find the
  complete original, CTX401 means the document was never valid;
* ``CTX403`` — the text parsed but its root is not a JSON object
  (every composite-tx document format is an object at the root).

The diagnostic rides on the exception (``err.diagnostic``, with
``err.line`` and ``err.offset``), so callers can match codes exactly
like lint findings; see docs/RESILIENCE.md.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, NoReturn, Optional, Union

from repro.exceptions import ParseError


def _raise(
    code: str,
    message: str,
    *,
    source: Optional[str],
    line: Optional[int] = None,
    offset: Optional[int] = None,
    fix_hint: Optional[str] = None,
) -> NoReturn:
    # imported lazily: the lint package imports repro.io for its
    # version constants, so a module-level import here would be a cycle
    from repro.lint.diagnostics import DiagnosticCollector

    collector = DiagnosticCollector(file=source)
    diagnostic = collector.report(code, message, fix_hint=fix_hint)
    error = ParseError(
        diagnostic.render(), offset=offset, diagnostic=diagnostic
    )
    # the rendered diagnostic already spells out the line; set the
    # attribute without re-appending ParseError's "(line N)" suffix
    error.line = line
    raise error from None


def read_json_text(path: Union[str, Path]) -> str:
    """The text of the document file at ``path``.  JSON text is UTF-8
    (RFC 8259), so bytes that are not raise CTX401 naming the line and
    byte offset of the first bad byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        _raise(
            "CTX401",
            f"not valid UTF-8: {err.reason} at line {line} "
            f"(byte offset {err.start})",
            source=str(path),
            line=line,
            offset=err.start,
        )


def parse_json_document(
    text: str,
    *,
    source: Optional[str] = None,
    expect_object: bool = False,
) -> Any:
    """Parse ``text`` as one JSON document, with lint-style failures.

    ``source`` names the originating file in the diagnostic (omitted
    for in-memory text).  With ``expect_object`` a non-object root is
    refused as CTX403.  Raises :class:`~repro.exceptions.ParseError`
    whose ``diagnostic``/``line``/``offset`` attributes pinpoint the
    defect; never lets :class:`json.JSONDecodeError` escape.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as err:
        # a decode error at/after the last non-whitespace character
        # means the text ended mid-value — truncation, not corruption
        truncated = err.pos >= len(text.rstrip())
        _raise(
            "CTX402" if truncated else "CTX401",
            (
                "JSON text ends unexpectedly"
                if truncated
                else f"not valid JSON: {err.msg}"
            )
            + f" at line {err.lineno}, column {err.colno} "
            f"(byte offset {err.pos})",
            source=source,
            line=err.lineno,
            offset=err.pos,
            fix_hint=(
                "the file looks truncated; recover the complete original"
                if truncated
                else None
            ),
        )
    except RecursionError:
        _raise("CTX401", "not valid JSON: nested too deeply", source=source)
    if expect_object and not isinstance(document, dict):
        _raise(
            "CTX403",
            "document root is "
            f"{type(document).__name__}, expected a JSON object",
            source=source,
            line=1,
            offset=0,
        )
    return document
