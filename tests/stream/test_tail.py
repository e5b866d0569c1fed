"""Tailing a growing event log: torn-tail tolerance and offset resume."""

import pytest

from repro.exceptions import ParseError
from repro.io import load
from repro.io.eventlog import dumps_event, events_from_recorded
from repro.stream import EventLogTail

FIXTURE = "tests/fixtures/unsafe_lost_update.json"


def _lines():
    return [
        dumps_event(e) + "\n"
        for e in events_from_recorded(load(FIXTURE))
    ]


def test_missing_file_polls_empty(tmp_path):
    tail = EventLogTail(tmp_path / "absent.jsonl")
    assert tail.poll() == []
    assert tail.offset == 0


def test_incremental_polls_see_every_event(tmp_path):
    path = tmp_path / "log.jsonl"
    lines = _lines()
    tail = EventLogTail(path)
    seen = []
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line)
            handle.flush()
            seen.extend(t.event for t in tail.poll())
    assert seen == events_from_recorded(load(FIXTURE))
    assert tail.offset == path.stat().st_size


def test_torn_tail_waits_then_completes(tmp_path):
    """A partially written final line is *not* an error: the tail
    holds position and picks the event up once the newline lands."""
    path = tmp_path / "log.jsonl"
    first, second = _lines()[:2]
    path.write_text(first + second[: len(second) // 2])
    tail = EventLogTail(path)
    got = tail.poll()
    assert [t.line for t in got] == [1]  # only the complete line
    offset_before = tail.offset
    assert offset_before == len(first.encode())
    # the writer finishes the line: the next poll returns it
    path.write_text(first + second)
    [t] = tail.poll()
    assert t.event == events_from_recorded(load(FIXTURE))[1]
    assert t.offset == len((first + second).encode())
    # and a quiet log polls empty without moving
    assert tail.poll() == []
    assert tail.offset == t.offset


def test_complete_malformed_line_raises(tmp_path):
    """Corruption *before* the tail (a complete line that is not an
    event) is a real error, not a torn write.  The events before it
    are delivered first; every later poll raises a ParseError naming
    the bad line's ``FILE:LINE`` and consumes nothing past it."""
    path = tmp_path / "log.jsonl"
    first = _lines()[0]
    path.write_text(first + "{broken\n" + _lines()[1])
    tail = EventLogTail(path)
    assert [t.line for t in tail.poll()] == [1]
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            tail.poll()
        assert err.value.line == 2
        assert str(err.value).startswith(f"{path}:2: invalid JSON")
        assert tail.offset == len(first.encode()) and tail.line == 1


def test_truncated_log_raises_ctx502(tmp_path):
    """A file now smaller than the consumed offset means rotation or
    truncation underneath the tailer: CTX502, never a silent 'no new
    events'."""
    from repro.exceptions import EventLogTruncatedError

    path = tmp_path / "log.jsonl"
    lines = _lines()
    path.write_text("".join(lines))
    tail = EventLogTail(path)
    tail.poll()
    path.write_text("".join(lines[:2]))  # copytruncate-style rotation
    with pytest.raises(EventLogTruncatedError) as err:
        tail.poll()
    assert err.value.diagnostic.code == "CTX502"
    assert err.value.offset == sum(len(l.encode()) for l in lines)
    assert err.value.size == sum(len(l.encode()) for l in lines[:2])


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "log.jsonl"
    first, second = _lines()[:2]
    path.write_text(first + "\n\n" + second)
    tail = EventLogTail(path)
    assert [t.line for t in tail.poll()] == [1, 4]


def test_offsets_allow_resume(tmp_path):
    """A second tail seeded at a reported offset replays exactly the
    suffix — the ``--from-offset`` resume contract."""
    path = tmp_path / "log.jsonl"
    lines = _lines()
    path.write_text("".join(lines))
    tail = EventLogTail(path)
    tailed = tail.poll()
    cut = len(tailed) // 2
    resumed = EventLogTail(path)
    resumed.offset = tailed[cut - 1].offset
    assert [t.event for t in resumed.poll()] == [
        t.event for t in tailed[cut:]
    ]


def test_tailed_events_match_the_file(tmp_path):
    """A TailedEvent is a tuple-backed record whose ``event``,
    ``offset`` and ``line`` can be read back off the file."""
    path = tmp_path / "log.jsonl"
    lines = _lines()
    path.write_text(lines[0] + "\n" + "".join(lines[1:]))
    data = path.read_bytes()
    tailed = EventLogTail(path).poll()
    assert [t.event for t in tailed] == events_from_recorded(load(FIXTURE))
    for t in tailed:
        assert tuple(t) == (t.event, t.offset, t.line)
        assert data[: t.offset].count(b"\n") == t.line
        text = data.split(b"\n")[t.line - 1].decode()
        assert dumps_event(t.event) == text
    assert [t.line for t in tailed][:3] == [1, 3, 4]
    assert tailed[-1].offset == len(data)


def test_non_utf8_line_raises_after_the_events_before_it(tmp_path):
    """A line that is not UTF-8 is corruption like any other: the
    events before it are delivered, then a ParseError names
    ``FILE:LINE``."""
    path = tmp_path / "log.jsonl"
    first, second = _lines()[:2]
    path.write_bytes(
        first.encode() + b'{"e":"begin","root":"\xff"}\n' + second.encode()
    )
    tail = EventLogTail(path)
    assert [t.line for t in tail.poll()] == [1]
    with pytest.raises(ParseError) as err:
        tail.poll()
    assert err.value.line == 2
    assert str(err.value).startswith(f"{path}:2: invalid UTF-8 in event log")
    assert tail.offset == len(first.encode())


def test_only_newline_ends_a_line(tmp_path):
    """A carriage return inside a line is JSON whitespace, not a line
    break the tailer waits on."""
    path = tmp_path / "log.jsonl"
    first, second = _lines()[:2]
    path.write_text(first + second.replace(",", ",\r", 1), newline="")
    tailed = EventLogTail(path).poll()
    assert [t.line for t in tailed] == [1, 2]
    assert tailed[1].event == events_from_recorded(load(FIXTURE))[1]
