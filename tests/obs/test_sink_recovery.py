"""Tests for crash-safe sinks: atomic writes and torn-tail recovery."""

import itertools
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import TelemetryError
from repro.obs import (
    Telemetry,
    atomic_write_text,
    iter_records,
    read_records,
    salvage_records,
    write_jsonl,
)


def fixed_clock():
    counter = itertools.count()
    return lambda: next(counter) * 0.001


def sample_file(path, spans=4):
    """Write a small valid telemetry file; return its bytes."""
    tele = Telemetry(clock=fixed_clock())
    for n in range(spans):
        with tele.span("phase", n=n):
            tele.count("work", n)
    write_jsonl(tele.collect(), str(path))
    return path.read_bytes()


class TestAtomicWrite:
    def test_replaces_not_appends(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(str(target), "first\n")
        atomic_write_text(str(target), "second\n")
        assert target.read_text() == "second\n"

    def test_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(str(target), "data\n")
        assert os.listdir(tmp_path) == ["file.txt"]


class TestTornTail:
    def test_intact_file_salvages_clean(self, tmp_path):
        path = tmp_path / "events.jsonl"
        data = sample_file(path)
        records, torn = salvage_records(str(path))
        assert torn is None
        assert records == read_records(str(path))
        assert len(data.splitlines()) == len(records)

    @settings(
        max_examples=120,
        deadline=None,
        # tmp_path is only a scratch directory; every example rewrites
        # the file it reads, so reuse across examples is safe
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cut=st.integers(min_value=0))
    def test_any_truncation_salvages_the_intact_prefix(self, cut, tmp_path):
        """SIGKILL mid-append == the file cut at an arbitrary byte.
        Whatever the cut point, salvage returns exactly the records
        whose full lines survived, and valid_bytes names the boundary."""
        path = tmp_path / "events.jsonl"
        data = sample_file(path)
        cut = cut % (len(data) + 1)
        path.write_bytes(data[:cut])

        records, torn = salvage_records(str(path))
        chunk = data[:cut]
        survived_lines = [
            line for line in chunk.split(b"\n")[:-1] if line.strip()
        ]
        tail = chunk.split(b"\n")[-1]
        tail_is_complete = False
        if tail.strip():
            # a cut right at the end of a record's JSON (before its
            # newline) leaves a tail that IS a complete record; salvage
            # keeps it
            try:
                tail_is_complete = isinstance(json.loads(tail), dict)
            except json.JSONDecodeError:
                tail_is_complete = False
            if tail_is_complete:
                survived_lines.append(tail)
        assert [json.dumps(r, sort_keys=True, separators=(",", ":"))
                for r in records] == [
            json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
            for line in survived_lines
        ]
        if not tail.strip() or tail_is_complete:
            # cut on a record boundary (or a parseable tail): no tear
            assert torn is None
        else:
            assert torn is not None
            assert torn.valid_bytes == chunk.rfind(b"\n") + 1
            assert torn.lost_bytes == cut - torn.valid_bytes
            assert torn.fragment  # something to show in the report
            assert str(path) in torn.describe()

    def test_strict_reader_refuses_torn_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        data = sample_file(path)
        path.write_bytes(data[: len(data) - 5])
        with pytest.raises(TelemetryError, match="torn final record"):
            read_records(str(path))

    def test_mid_file_corruption_is_not_a_tear(self, tmp_path):
        """A malformed line *followed by* more data cannot come from an
        interrupted append — that is damage, and still raises."""
        path = tmp_path / "events.jsonl"
        sample_file(path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"v": 1, "broken\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(TelemetryError, match="not valid JSON"):
            salvage_records(str(path))

    def test_complete_final_line_that_fails_to_parse_raises(self, tmp_path):
        """A torn tail never has a trailing newline; a complete final
        line that does not parse is corruption, not truncation."""
        path = tmp_path / "events.jsonl"
        sample_file(path)
        with open(path, "ab") as handle:
            handle.write(b'{"half": \n')
        with pytest.raises(TelemetryError, match="not valid JSON"):
            salvage_records(str(path))

    def test_iter_records_streams_a_live_sink(self, tmp_path):
        """The bugfix this pins: reading a sink a concurrent writer is
        mid-append to must not crash — the iterator yields everything
        before the tear, reports it via the callback, and stops."""
        path = tmp_path / "events.jsonl"
        data = sample_file(path)
        boundary = data.rfind(b"\n", 0, len(data) - 1) + 1
        path.write_bytes(data[: boundary + 9])  # writer mid-write

        torn_seen = []
        records = list(iter_records(str(path), on_torn=torn_seen.append))
        expected, torn = salvage_records(str(path))
        assert records == expected
        assert torn_seen == [torn]
        assert torn_seen[0] is not None
        assert torn_seen[0].valid_bytes == boundary

    def test_iter_records_equals_salvage_on_intact_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sample_file(path)
        torn_seen = []
        records = list(iter_records(str(path), on_torn=torn_seen.append))
        assert torn_seen == []
        assert records == read_records(str(path))

    def test_iter_records_raises_on_mid_file_corruption(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sample_file(path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"v": 1, "broken\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(TelemetryError, match="not valid JSON"):
            list(iter_records(str(path)))

    def test_iter_records_is_lazy(self, tmp_path):
        """Consuming the head of a torn file never touches the tear —
        the iterator reads line by line, so a live `profile` can show
        the prefix of a sink whose tail is still being written."""
        path = tmp_path / "events.jsonl"
        data = sample_file(path)
        path.write_bytes(data[: len(data) - 3])  # torn tail
        iterator = iter_records(str(path))
        first_line = data.splitlines()[0]
        assert next(iterator) == json.loads(first_line)

    def test_torn_tail_describe_counts_bytes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        data = sample_file(path)
        boundary = data.rfind(b"\n", 0, len(data) - 1) + 1
        path.write_bytes(data[: boundary + 7])
        records, torn = salvage_records(str(path))
        assert torn is not None
        assert torn.valid_bytes == boundary
        assert torn.lost_bytes == 7
        assert f"7 byte(s) after offset {boundary}" in torn.describe()
        # truncating to valid_bytes yields a fully valid stream again
        path.write_bytes(data[:boundary])
        reread, clean = salvage_records(str(path))
        assert clean is None
        assert reread == records
