"""Fuzzed event-log intake: every mutant line ends in an ``Event`` or a
``ParseError`` naming its line, never in another exception.

Byte mutations (replace, insert, delete) of valid lines from generated
stack, tree and fork logs go through :func:`parse_event_line` and
through :meth:`EventLogTail.poll` on a file.  The unmutated lines pin
the canonical form: ``dumps_event(parse_event_line(line)) == line`` for
every one of them, which is what keeps a watch corpus byte-stable.
"""

from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ParseError
from repro.io.eventlog import (
    Event,
    dumps_event,
    events_from_recorded,
    interleave_by_commit,
    parse_event_line,
)
from repro.stream import EventLogTail
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import (
    fork_topology,
    stack_topology,
    tree_topology,
)

HEADER = b'{"derive":"declared","e":"log","v":1}\n'


@lru_cache(maxsize=None)
def _lines():
    lines = []
    for topology in (stack_topology(3), tree_topology(2, 2), fork_topology(3)):
        recorded = generate(
            topology,
            WorkloadConfig(seed=4, roots=4, conflict_probability=0.2),
        )
        events = events_from_recorded(recorded)
        for layout in (events, interleave_by_commit(events)):
            lines.extend(dumps_event(event) for event in layout)
    return tuple(lines)


def test_generated_lines_are_canonical():
    lines = _lines()
    kinds = {parse_event_line(line).kind for line in lines}
    assert {"log", "txn", "conflict", "order", "begin", "commit", "end"} <= kinds
    for line in lines:
        assert dumps_event(parse_event_line(line)) == line


@st.composite
def mutants(draw):
    """A valid line with a few bytes replaced, inserted or deleted."""
    data = bytearray(draw(st.sampled_from(_lines())).encode())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        action = draw(st.sampled_from(("replace", "insert", "delete")))
        if action == "delete" or (action == "replace" and at < len(data)):
            del data[at : at + draw(st.integers(1, 8))]
        if action != "delete":
            data[at:at] = draw(
                st.one_of(
                    st.binary(min_size=1, max_size=4),
                    st.sampled_from(
                        [b'"', b",", b"[", b"]", b"{", b"}", b":", b"null",
                         b"1", b'"e"', b'"weak"', b'["a","b"]', b"\xff",
                         b"\xc3", b"\\u00e9", b"\r", b"\x00"]
                    ),
                )
            )
    return bytes(data)


def _check_parse(text, line):
    try:
        event = parse_event_line(text, source="log.jsonl", line=line)
    except ParseError as err:
        assert err.line == line
        assert str(err).startswith(f"log.jsonl:{line}: ")
        return None
    assert isinstance(event, Event)
    assert parse_event_line(dumps_event(event)) == event
    return event


@settings(max_examples=300, deadline=None)
@given(mutant=mutants())
def test_mutant_lines_parse_or_name_their_line(mutant):
    _check_parse(mutant.decode("utf-8", "replace"), 7)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutant=mutants())
def test_mutant_lines_poll_or_name_their_line(tmp_path, mutant):
    path = tmp_path / "log.jsonl"
    data = HEADER + mutant + b"\n" + b'{"e":"end"}\n'
    path.write_bytes(data)
    lines = data.split(b"\n")
    tail = EventLogTail(path)
    seen = []
    while True:
        try:
            batch = tail.poll()
        except ParseError as err:
            assert err.line is not None and 1 < err.line < len(lines)
            assert str(err).startswith(f"{path}:{err.line}: ")
            assert tail.line == err.line - 1
            break
        if not batch:
            break
        seen.extend(batch)
    for tailed in seen:
        assert data[: tailed.offset].endswith(b"\n")
        assert data[: tailed.offset].count(b"\n") == tailed.line
        raw = lines[tailed.line - 1].strip()
        assert parse_event_line(raw.decode()) == tailed.event
    assert seen[0].event.kind == "log"
