"""The streaming event-log format: schema, round trip, converter
fidelity.

The load-bearing property is *exact inversion*: converting a recorded
execution to an event log and reassembling it must reproduce the
original system byte-for-byte (same spec text, hence the same interned
element orders in every relation) — that is what makes the streaming
checker's telemetry comparable to the batch path at all.
"""

import pickle

import pytest

from repro.exceptions import ParseError, StreamError
from repro.figures import figure1_system, figure3_system
from repro.io import dumps, load
from repro.io.eventlog import (
    EVENT_KINDS,
    EVENTLOG_VERSION,
    Event,
    dumps_event,
    dumps_event_log,
    event_from_dict,
    events_from_recorded,
    load_event_log,
    loads_event_log,
    parse_event_line,
    save_event_log,
)
from repro.criteria.registry import RecordedExecution
from repro.stream import StreamAssembler
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import stack_topology, tree_topology

FIXTURE = "tests/fixtures/unsafe_lost_update.json"


def _reassemble(events):
    assembler = StreamAssembler()
    for event in events:
        assembler.apply(event)
    return assembler.build()


# ----------------------------------------------------------------------
# schema
# ----------------------------------------------------------------------
class TestSchema:
    def test_header_carries_version(self):
        line = dumps_event(Event(kind="log", derive="declared"))
        assert f'"v":{EVENTLOG_VERSION}' in line
        event = parse_event_line(line)
        assert event.kind == "log" and event.derive == "declared"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError, match="unknown event kind"):
            parse_event_line('{"e": "frobnicate"}')

    def test_missing_required_field_rejected(self):
        with pytest.raises(ParseError, match="missing required field"):
            parse_event_line('{"e": "commit"}')

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseError, match="unknown event field"):
            parse_event_line('{"e": "commit", "root": "T1", "bogus": 1}')

    def test_unknown_version_rejected(self):
        with pytest.raises(ParseError, match="unsupported event log"):
            parse_event_line('{"e": "log", "v": 99, "derive": "declared"}')

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
    def test_version_must_be_an_integer(self, version):
        with pytest.raises(ParseError, match="unsupported event log version"):
            parse_event_line(
                f'{{"e": "log", "v": {version}, "derive": "declared"}}'
            )

    def test_header_without_version_rejected(self):
        with pytest.raises(ParseError, match="missing the schema version"):
            parse_event_line('{"e": "log", "derive": "declared"}')

    def test_invalid_json_names_source_and_line(self):
        with pytest.raises(ParseError, match=r"log\.jsonl:7"):
            parse_event_line("{nope", source="log.jsonl", line=7)

    def test_unknown_order_kind_rejected(self):
        with pytest.raises(ParseError, match="unknown order kind"):
            event_from_dict(
                {
                    "e": "order",
                    "schedule": "S",
                    "kind": "sideways",
                    "a": "x",
                    "b": "y",
                }
            )

    def test_log_without_header_rejected(self):
        with pytest.raises(ParseError, match="does not start"):
            loads_event_log('{"e": "end"}\n')

    def test_event_line_round_trips(self):
        event = Event(
            kind="txn",
            root="T1",
            schedule="S1",
            txn="T1",
            ops=("a", "b"),
            weak=(("a", "b"),),
        )
        assert parse_event_line(dumps_event(event)) == event

    @pytest.mark.parametrize("key", ["weak", "strong"])
    @pytest.mark.parametrize(
        "value",
        [
            '["ab"]',
            '[["a", "b", "c"]]',
            '[["a"]]',
            '[[1, 2]]',
            '[["a", null]]',
            '{"ab": 1}',
            '"ab"',
            '[[["a"], "b"]]',
        ],
        ids=[
            "string-pair",
            "triple",
            "single",
            "numbers",
            "null-name",
            "object",
            "string",
            "nested",
        ],
    )
    def test_pair_list_is_checked_not_coerced(self, key, value):
        """``weak``/``strong`` must be lists of two-string lists — the
        rule a system document's pairs follow; nothing is truncated,
        split or stringified into a pair."""
        line = (
            '{"e": "txn", "root": "T1", "schedule": "S", "txn": "T1", '
            f'"ops": ["a", "b"], "{key}": {value}}}'
        )
        with pytest.raises(ParseError) as err:
            parse_event_line(line, source="log.jsonl", line=3)
        assert str(err.value) == (
            f"log.jsonl:3: field '{key}' is not a list of pairs"
        )
        assert err.value.line == 3

    def test_pair_lists_accept_two_string_lists(self):
        event = parse_event_line(
            '{"e": "txn", "root": "T1", "schedule": "S", "txn": "T1", '
            '"ops": ["a", "b"], "weak": [["a", "b"]], "strong": []}'
        )
        assert event.weak == (("a", "b"),) and event.strong == ()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1]", "event is not a JSON object"),
            ('{"e": 5}', "unknown event kind 5"),
            ('{"e": "commit", "root": 5}', "field 'root' is not a string"),
            ('{"e": "commit", "root": null}', "field 'root' is not a string"),
            (
                '{"e": "txn", "root": "T", "schedule": "S", "txn": "T", '
                '"ops": "ab"}',
                "field 'ops' is not a list of strings",
            ),
            (
                '{"e": "txn", "root": "T", "schedule": "S", "txn": "T", '
                '"ops": []}',
                "'txn' event is missing required field 'ops'",
            ),
            ('{"e": "end", "v": 1}', "'v' is only valid on the header"),
            (
                '{"e": "order", "schedule": "S", "a": "x", "b": "y"}',
                "'order' event is missing required field 'kind'",
            ),
            ("[" * 100000, "invalid JSON in event log: nested too deeply"),
        ],
    )
    def test_rejections_name_file_and_line(self, line, message):
        with pytest.raises(ParseError) as err:
            parse_event_line(line, source="log.jsonl", line=9)
        assert str(err.value) == f"log.jsonl:9: {message}"
        assert err.value.line == 9

    def test_non_utf8_log_file_names_its_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(
            b'{"derive":"declared","e":"log","v":1}\n'
            b'{"e":"begin","root":"\xff"}\n'
        )
        with pytest.raises(ParseError) as err:
            load_event_log(path)
        assert str(err.value).startswith(f"{path}:2: invalid UTF-8")
        assert err.value.line == 2

    def test_raw_line_separators_inside_a_name_are_not_line_breaks(self):
        """Only ``\\n`` ends an event-log line, as in the tailer: a raw
        U+2028 inside a JSON string stays part of its line."""
        text = (
            '{"derive":"declared","e":"log","v":1}\n'
            '{"e":"begin","root":"a\u2028b"}\n'
        )
        events = loads_event_log(text)
        assert events[1].root == "a\u2028b"


# ----------------------------------------------------------------------
# the Event record
# ----------------------------------------------------------------------
class TestEventRecord:
    def test_compares_and_hashes_by_value(self):
        one = Event(kind="commit", root="R1")
        two = parse_event_line('{"e": "commit", "root": "R1"}')
        assert one == two and hash(one) == hash(two)
        assert one != Event(kind="commit", root="R2")
        assert len({one, two, Event(kind="abort", root="R1")}) == 2

    def test_fields_keep_their_names_order_and_defaults(self):
        assert Event._fields == (
            "kind", "derive", "root", "schedule", "txn", "op", "ops",
            "weak", "strong", "a", "b", "order_kind", "item", "mode",
        )
        event = Event(kind="end")
        assert event.ops == event.weak == event.strong == ()
        assert event.root is None and event.order_kind is None
        assert isinstance(event, tuple) and len(event) == 14

    def test_is_immutable(self):
        event = Event(kind="commit", root="R1")
        with pytest.raises(AttributeError):
            event.root = "R2"
        with pytest.raises(AttributeError):
            event.extra = 1

    def test_pickle_round_trips(self):
        event = Event(
            kind="txn", root="T1", schedule="S", txn="T1",
            ops=("a", "b"), weak=(("a", "b"),),
        )
        assert pickle.loads(pickle.dumps(event)) == event
        assert type(pickle.loads(pickle.dumps(event))) is Event

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"kind": "bogus"}, "unknown event kind 'bogus'"),
            ({"kind": "commit"}, "'commit' event is missing required field 'root'"),
            (
                {"kind": "txn", "root": "T", "schedule": "S", "txn": "T"},
                "'txn' event is missing required field 'ops'",
            ),
            ({"kind": "log", "derive": "sideways"}, "unknown derivation mode 'sideways'"),
            ({"kind": "log"}, "'log' event is missing required field 'derive'"),
            (
                {"kind": "order", "schedule": "S", "order_kind": "up", "a": "x", "b": "y"},
                "unknown order kind 'up'",
            ),
        ],
    )
    def test_invalid_construction_raises_the_parse_messages(self, kwargs, message):
        with pytest.raises(ParseError) as err:
            Event(**kwargs)
        assert str(err.value) == message

    def test_constructor_applies_the_field_rule(self):
        with pytest.raises(ParseError, match="'weak' is not a list of pairs"):
            Event(kind="txn", root="T", schedule="S", txn="T", ops=("a",), weak=["ab"])
        with pytest.raises(ParseError, match="'root' is not a string"):
            Event(kind="commit", root=5)
        event = Event(
            kind="txn", root="T", schedule="S", txn="T",
            ops=["a", "b"], strong=[["a", "b"]],
        )
        assert event.ops == ("a", "b") and event.strong == (("a", "b"),)
        with pytest.raises(TypeError):
            Event(kind="end", bogus=1)

    def test_replace_and_make_cannot_build_an_invalid_event(self):
        event = Event(kind="commit", root="R1")
        assert event._replace(root="R2") == Event(kind="commit", root="R2")
        with pytest.raises(ParseError, match="unknown event kind"):
            event._replace(kind="bogus")
        with pytest.raises(ParseError, match="missing required field 'root'"):
            event._replace(root=None)
        with pytest.raises(ParseError, match="not a list of pairs"):
            event._replace(weak=[("a", "b", "c")])
        with pytest.raises(ParseError, match="missing required field 'root'"):
            Event._make(["commit"] + [None] * 13)
        with pytest.raises(TypeError):
            Event._make(["commit", None])
        assert type(event._replace(root="R2")) is Event


# ----------------------------------------------------------------------
# converter fidelity
# ----------------------------------------------------------------------
class TestConverter:
    @pytest.mark.parametrize(
        "make", [figure1_system, figure3_system], ids=["fig1", "fig3"]
    )
    def test_figure_systems_round_trip(self, make):
        recorded = RecordedExecution(system=make())
        events = events_from_recorded(recorded)
        assert events[0].kind == "log"
        assert events[-1].kind == "end"
        rebuilt = _reassemble(events)
        assert dumps(rebuilt) == dumps(recorded)

    def test_fixture_round_trips(self):
        recorded = load(FIXTURE)
        rebuilt = _reassemble(events_from_recorded(recorded))
        assert dumps(rebuilt) == dumps(recorded)

    def test_executions_map_round_trips(self):
        recorded = generate(
            stack_topology(2), WorkloadConfig(seed=5, roots=3)
        )
        assert recorded.executions  # generated workloads lay out arrivals
        rebuilt = _reassemble(events_from_recorded(recorded))
        assert dumps(rebuilt) == dumps(recorded)
        assert {
            k: list(v) for k, v in rebuilt.executions.items()
        } == {k: list(v) for k, v in recorded.executions.items()}

    def test_generated_workloads_round_trip(self):
        for seed in range(8):
            recorded = generate(
                tree_topology(2, 2),
                WorkloadConfig(seed=seed, roots=3, conflict_probability=0.2),
            )
            rebuilt = _reassemble(events_from_recorded(recorded))
            assert dumps(rebuilt) == dumps(recorded), seed

    def test_jsonl_file_round_trips(self, tmp_path):
        recorded = generate(stack_topology(2), WorkloadConfig(seed=1))
        events = events_from_recorded(recorded)
        path = tmp_path / "log.jsonl"
        save_event_log(events, path)
        assert load_event_log(path) == events

    def test_commit_count_matches_roots(self):
        recorded = load(FIXTURE)
        events = events_from_recorded(recorded)
        commits = [e for e in events if e.kind == "commit"]
        assert len(commits) == len(recorded.system.roots)

    def test_text_round_trips_through_lines(self):
        recorded = load(FIXTURE)
        events = events_from_recorded(recorded)
        assert loads_event_log(dumps_event_log(events)) == events


# ----------------------------------------------------------------------
# assembler protocol errors
# ----------------------------------------------------------------------
class TestAssemblerProtocol:
    def test_every_event_kind_has_a_handler(self):
        from repro.stream.assembler import _HANDLERS

        assert tuple(_HANDLERS) == EVENT_KINDS

    def test_arrivals_are_the_events_themselves(self):
        """An ``access``/``call`` event is its own arrival record: the
        assembler keeps the very object it was handed."""
        events = events_from_recorded(
            generate(stack_topology(2), WorkloadConfig(seed=5, roots=3))
        )
        assembler = StreamAssembler()
        for event in events:
            assembler.apply(event)
        arrivals = [e for e in events if e.kind in ("access", "call")]
        kept = sorted(
            (
                pair
                for lane in assembler._lanes.values()
                for pair in zip(lane.index, lane.events)
            ),
            key=lambda pair: pair[0],
        )
        assert arrivals and len(kept) == len(arrivals)
        assert all(a is b for (_, a), b in zip(kept, arrivals))

    def test_events_before_header_rejected(self):
        assembler = StreamAssembler()
        with pytest.raises(StreamError, match="before the 'log' header"):
            assembler.apply(Event(kind="begin", root="T1"))

    def test_duplicate_commit_rejected(self):
        events = events_from_recorded(load(FIXTURE))
        assembler = StreamAssembler()
        for event in events[:-1]:  # hold back `end`
            assembler.apply(event)
        commit = next(e for e in events if e.kind == "commit")
        with pytest.raises(StreamError, match="duplicate commit"):
            assembler.apply(commit)

    def test_commit_of_undeclared_root_rejected(self):
        assembler = StreamAssembler()
        assembler.apply(Event(kind="log", derive="declared"))
        with pytest.raises(StreamError, match="no staged transactions"):
            assembler.apply(Event(kind="commit", root="ghost"))

    def test_events_after_end_rejected(self):
        assembler = StreamAssembler()
        assembler.apply(Event(kind="log", derive="declared"))
        assembler.apply(Event(kind="end"))
        with pytest.raises(StreamError, match="after the end"):
            assembler.apply(Event(kind="commit", root="T1"))

    def test_abort_discards_the_attempt(self):
        recorded = load(FIXTURE)
        events = events_from_recorded(recorded)
        [root] = [e.root for e in events if e.kind == "commit"][:1]
        # abort the root mid-stream, then re-declare and commit again:
        # the rebuilt system is semantically the original (re-declaring
        # after the conflict/order decls changes element interning
        # order, so byte equality is out of reach here — by design)
        out = [events[0]]
        decls = [
            e
            for e in events
            if e.kind in ("txn", "conflict", "order")
        ]
        arrivals = [e for e in events if e.kind in ("access", "call")]
        commits = [e for e in events if e.kind == "commit"]
        out += decls
        out.append(Event(kind="begin", root=root))
        out += [a for a in arrivals if a.root == root]
        out.append(Event(kind="abort", root=root))
        # retry: transactions must be re-declared after an abort
        out.append(Event(kind="begin", root=root))
        out += [d for d in decls if d.kind == "txn" and d.root == root]
        out += [a for a in arrivals if a.root == root]
        out += [a for a in arrivals if a.root != root]
        out += commits
        out.append(Event(kind="end"))
        rebuilt = _reassemble(out)
        assert set(rebuilt.system.schedules) == set(recorded.system.schedules)
        for name, orig in recorded.system.schedules.items():
            got = rebuilt.system.schedule(name)
            assert set(got.conflicts) == set(orig.conflicts)
            for rel in ("weak_output", "strong_output", "weak_input", "strong_input"):
                assert set(getattr(got, rel).pairs()) == set(
                    getattr(orig, rel).pairs()
                ), (name, rel)

    def test_build_before_first_commit_is_none(self):
        assembler = StreamAssembler()
        assembler.apply(Event(kind="log", derive="declared"))
        assert assembler.build() is None
