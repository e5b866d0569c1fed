"""End-to-end watch mode: tailing a log a concurrent writer is still
appending (torn writes included), and the byte-level equivalence of
``watch`` and ``check`` canonical telemetry.
"""

import threading
import time

from repro.cli import main
from repro.io import load, save
from repro.io.eventlog import dumps_event, events_from_recorded
from repro.obs import canonical_dumps, read_records
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import tree_topology

FIXTURE = "tests/fixtures/unsafe_lost_update.json"


def _slow_writer(path, lines, *, tear_every=3, delay=0.01):
    """Append lines with fsync-less flushes, periodically pausing
    mid-line to leave a genuine torn tail for the tailer to tolerate."""
    with open(path, "w") as handle:
        for n, line in enumerate(lines):
            if n % tear_every == 0 and len(line) > 10:
                handle.write(line[: len(line) // 2])
                handle.flush()
                time.sleep(delay)
                handle.write(line[len(line) // 2 :])
            else:
                handle.write(line)
            handle.flush()
            time.sleep(delay / 4)


def test_watch_follow_survives_a_live_writer(tmp_path, capsys):
    """`watch --follow` over a log being torn-written concurrently:
    sees the rejection live, certifies the batch verdict at the end."""
    log = tmp_path / "stream.jsonl"
    lines = [
        dumps_event(e) + "\n"
        for e in events_from_recorded(load(FIXTURE))
    ]
    writer = threading.Thread(target=_slow_writer, args=(log, lines))
    writer.start()
    try:
        code = main(
            ["watch", "--follow", "--interval", "0.01", str(log)]
        )
    finally:
        writer.join()
    assert code == 0
    out = capsys.readouterr().out
    assert "REJECTED" in out
    assert "final verdict (batch-certified)" in out
    assert f"{len(lines)} event(s)" in out


def test_watch_telemetry_matches_check_byte_for_byte(tmp_path, capsys):
    """The acceptance invariant, at the CLI layer: a finished stream
    through `watch` yields canonical telemetry byte-identical to a
    batch `check` of the same execution."""
    recorded = generate(
        tree_topology(2, 2),
        WorkloadConfig(seed=3, roots=3, conflict_probability=0.2),
    )
    system_file = tmp_path / "system.json"
    save(recorded, system_file)
    log = tmp_path / "stream.jsonl"
    assert main(["eventlog", str(system_file), str(log)]) == 0

    check_tele = tmp_path / "check.jsonl"
    watch_tele = tmp_path / "watch.jsonl"
    assert (
        main(["check", str(system_file), "--telemetry-out", str(check_tele)])
        == 0
    )
    assert main(["watch", str(log), "--telemetry-out", str(watch_tele)]) == 0
    capsys.readouterr()

    assert canonical_dumps(read_records(str(watch_tele))) == canonical_dumps(
        read_records(str(check_tele))
    )


def test_watch_from_offset_suppresses_caught_up_transitions(
    tmp_path, capsys
):
    log = tmp_path / "stream.jsonl"
    lines = [
        dumps_event(e) + "\n"
        for e in events_from_recorded(load(FIXTURE))
    ]
    log.write_text("".join(lines))
    assert main(["watch", str(log)]) == 0
    first = capsys.readouterr().out
    [resume_line] = [
        ln for ln in first.splitlines() if "resume offset" in ln
    ]
    offset = int(resume_line.rsplit(" ", 1)[1])
    assert offset == log.stat().st_size

    # resuming at the final offset re-certifies without re-announcing
    assert main(["watch", "--from-offset", str(offset), str(log)]) == 0
    second = capsys.readouterr().out
    assert "[offset" not in second
    assert "final verdict (batch-certified)" in second
    assert "REJECTED" in second  # the certified narrative still says so


def test_watch_strict_exit_code(tmp_path, capsys):
    log = tmp_path / "stream.jsonl"
    lines = [
        dumps_event(e) + "\n"
        for e in events_from_recorded(load(FIXTURE))
    ]
    log.write_text("".join(lines))
    assert main(["watch", "--strict", str(log)]) == 2


def test_watch_final_block_is_the_check_report(tmp_path, capsys):
    """The batch-certified block ends in the verdict-sized report that
    ``check`` prints after its header; ``--fronts`` swaps in every
    front's closed orders, as for ``check``."""
    recorded = generate(
        tree_topology(2, 2),
        WorkloadConfig(seed=3, roots=3, conflict_probability=0.2),
    )
    system_file = tmp_path / "system.json"
    save(recorded, system_file)
    log = tmp_path / "stream.jsonl"
    assert main(["eventlog", str(system_file), str(log)]) == 0
    capsys.readouterr()

    def final_block(argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        block = out.split("final verdict (batch-certified)", 1)[1]
        return block.splitlines()[2:-1]  # past the banner's rule

    def check_body(argv):
        assert main(argv) == 0
        return capsys.readouterr().out.splitlines()[1:]  # past the header

    report = final_block(["watch", str(log)])
    assert report == check_body(["check", str(system_file)])
    assert not any("observed order:" in line for line in report)
    fronts = final_block(["watch", "--fronts", str(log)])
    assert fronts == check_body(["check", "--fronts", str(system_file)])
    assert any("observed order:" in line for line in fronts)
