"""The streaming resume contract, through the CLI: a watch resumed with
``--from-offset k`` re-reads the whole log and announces exactly the
uninterrupted run's transitions past ``k``, with canonical telemetry
byte-identical to a batch ``check``.  End to end: SIGKILL a following
``composite-tx watch`` mid-log, resume it from the last offset it
announced, and the two outputs together are the uninterrupted run's
announcements, none twice."""

import contextlib
import io
import os
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.io import save
from repro.io.eventlog import (
    dumps_event,
    events_from_recorded,
    interleave_by_commit,
)
from repro.obs import canonical_dumps, read_records
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import stack_topology

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run_cli(args, cwd, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _offset(line):
    """N for an ``[offset N] ...`` transition line, else None."""
    if not line.startswith("[offset "):
        return None
    return int(line[len("[offset "):line.index("]")])


def _announcements(stdout):
    """The transition lines, as (N, line) pairs."""
    return [
        (_offset(line), line)
        for line in stdout.splitlines()
        if _offset(line) is not None
    ]


def _write_log(path, events):
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(dumps_event(event) + "\n")


def _main(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = main(args)
    return code, out.getvalue()


SEEDS = range(8)


@pytest.fixture(scope="module")
def references(tmp_path_factory):
    """seed -> (log path, line-boundary offsets, uninterrupted watch
    stdout, canonical check telemetry), for commit-interleaved logs."""
    out = {}
    for seed in SEEDS:
        tmp_path = tmp_path_factory.mktemp(f"seed{seed}")
        recorded = generate(
            stack_topology(3),
            WorkloadConfig(seed=seed, roots=3, conflict_probability=0.2),
        )
        exec_path = tmp_path / "exec.json"
        save(recorded, str(exec_path))
        check_out = tmp_path / "check.jsonl"
        _main(["check", str(exec_path), "--telemetry-out", str(check_out)])
        log = tmp_path / "log.jsonl"
        events = interleave_by_commit(events_from_recorded(recorded))
        _write_log(log, events)
        offsets = [0]
        for event in events:
            offsets.append(offsets[-1] + len(dumps_event(event)) + 1)
        code, stdout = _main(["watch", str(log)])
        assert code == 0
        out[seed] = (
            log,
            offsets,
            stdout,
            canonical_dumps(read_records(str(check_out))),
        )
    return out


@settings(max_examples=25, deadline=None)
@given(seed=st.sampled_from(SEEDS), data=st.data())
def test_any_offset_resume_announces_exactly_the_suffix(
    references, seed, data
):
    """The headline property: resume at any line boundary ``k`` and
    the watch prints the uninterrupted run's transitions at offsets
    ``> k`` and nothing else, and its verdict, witness and canonical
    telemetry are indistinguishable from never having stopped."""
    log, offsets, full, check_canonical = references[seed]
    # every line boundary, with the ones at and just before a
    # transition drawn as often as all the others together
    edges = []
    for offset, _ in _announcements(full):
        edges += [offset, offsets[offsets.index(offset) - 1]]
    k = data.draw(
        st.sampled_from(offsets) | st.sampled_from(edges), label="k"
    )
    telemetry = log.parent / f"watch-{k}.jsonl"
    code, resumed = _main(
        [
            "watch", str(log),
            "--from-offset", str(k),
            "--telemetry-out", str(telemetry),
        ]
    )
    assert code == 0
    expected = [
        line for line in full.splitlines(keepends=True)
        if _offset(line) is None or _offset(line) > k
    ]
    assert resumed == "".join(expected)
    assert canonical_dumps(read_records(str(telemetry))) == check_canonical


def test_from_offset_past_the_end_is_ctx502(tmp_path):
    """A resume offset the log does not reach cannot be trusted: it
    would silently suppress every transition below it, a REJECTED
    alert included.  One CTX502 error line, exit 1, no traceback."""
    log = tmp_path / "short.jsonl"
    _write_log(
        log,
        events_from_recorded(
            generate(stack_topology(2), WorkloadConfig(seed=1, roots=2))
        ),
    )
    size = log.stat().st_size
    for extra in ([], ["--follow"]):
        completed = _run_cli(
            ["watch", str(log), "--from-offset", str(size + 1), *extra],
            cwd=str(tmp_path),
        )
        assert completed.returncode == 1
        assert completed.stdout == ""
        assert completed.stderr.startswith("repro watch: error: CTX502")
        assert f"{size} bytes" in completed.stderr
        assert "Traceback" not in completed.stderr
        assert len(completed.stderr.splitlines()) == 1
    # exactly the log's length is still a valid resume point
    completed = _run_cli(
        ["watch", str(log), "--from-offset", str(size)], cwd=str(tmp_path)
    )
    assert completed.returncode == 0, completed.stderr


def test_missing_log_is_an_error_unless_following(tmp_path):
    """Without ``--follow`` nothing will ever append to a missing log,
    so a typo in its path is an OSError line and exit 1 -- not an
    empty stream that ``--strict`` would pass.  ``--follow`` waits for
    the log to appear."""
    log = tmp_path / "late.jsonl"
    for extra in ([], ["--strict"]):
        completed = _run_cli(["watch", str(log), *extra], cwd=str(tmp_path))
        assert completed.returncode == 1
        assert completed.stdout == ""
        assert completed.stderr == (
            f"repro watch: error: [Errno 2] No such file or directory: "
            f"'{log}'\n"
        )
    events = events_from_recorded(
        generate(stack_topology(2), WorkloadConfig(seed=1, roots=2))
    )
    writer = threading.Timer(0.2, _write_log, args=(log, events))
    writer.start()
    try:
        code, out = _main(
            ["watch", str(log), "--follow", "--interval", "0.02"]
        )
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert code == 0
    assert f"{len(events)} event(s)" in out


def test_sigkilled_watch_resumes_byte_identical(tmp_path):
    recorded = generate(
        stack_topology(3),
        WorkloadConfig(seed=11, roots=4, conflict_probability=0.2),
    )
    events = events_from_recorded(recorded)
    exec_path = tmp_path / "exec.json"
    save(recorded, str(exec_path))

    # uninterrupted references: the batch check's canonical telemetry
    # and a plain watch's announcements over the complete log
    ref = _run_cli(
        ["check", str(exec_path), "--telemetry-out",
         str(tmp_path / "ref.jsonl")],
        cwd=str(tmp_path),
    )
    assert ref.returncode in (0, 2), ref.stderr
    full_log = tmp_path / "full.jsonl"
    _write_log(full_log, events)
    uninterrupted = _run_cli(["watch", str(full_log)], cwd=str(tmp_path))
    assert uninterrupted.returncode == 0, uninterrupted.stderr
    reference = _announcements(uninterrupted.stdout)
    assert len(reference) == 2  # ACCEPTED at once, REJECTED near the end

    # a live writer appends the log while a following watch tails it
    log = tmp_path / "log.jsonl"
    victim_out = tmp_path / "victim.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    with open(victim_out, "w", encoding="utf-8") as sink:
        victim = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "watch", str(log),
                "--follow", "--interval", "0.01",
            ],
            cwd=str(tmp_path),
            env=env,
            stdout=sink,
            stderr=subprocess.DEVNULL,
        )
        try:
            half = len(events) // 2
            _write_log(log, events[:half])
            # SIGKILL once the watch has announced something
            deadline = time.time() + 60
            while time.time() < deadline:
                if victim.poll() is not None:
                    break
                if _announcements(victim_out.read_text()):
                    break
                time.sleep(0.005)
            killed_mid_watch = victim.poll() is None
            victim.kill()
        finally:
            victim.wait(timeout=60)
    assert killed_mid_watch, "watch exited before the kill landed"
    killed = _announcements(victim_out.read_text())
    assert killed and "final verdict" not in victim_out.read_text()

    # the writer finishes the log; the resumed watch re-reads it and
    # announces only past the last offset the killed watch printed
    _write_log(log, events)
    resumed = _run_cli(
        [
            "watch", str(log),
            "--from-offset", str(killed[-1][0]),
            "--telemetry-out", str(tmp_path / "watch.jsonl"),
        ],
        cwd=str(tmp_path),
    )
    assert resumed.returncode == 0, resumed.stderr
    combined = killed + _announcements(resumed.stdout)
    assert combined == reference
    assert len({offset for offset, _ in combined}) == len(combined)

    # canonical telemetry byte-identity with the uninterrupted check
    ours = canonical_dumps(read_records(str(tmp_path / "watch.jsonl")))
    theirs = canonical_dumps(read_records(str(tmp_path / "ref.jsonl")))
    assert ours == theirs


@pytest.mark.parametrize("fault", ["corrupt-line", "duplicate-commit"])
def test_watch_fault_names_its_line_and_resumes(tmp_path, fault):
    """A fault in the log stops ``watch`` with one error line naming its
    ``FILE:LINE``, after announcing exactly the uninterrupted run's
    transitions before the fault.  Once the bytes are repaired,
    ``--from-offset N`` (N = the last offset announced) announces only
    the later transitions, with canonical telemetry byte-identical to
    ``check``."""
    recorded = generate(
        stack_topology(3),
        WorkloadConfig(seed=6, roots=4, conflict_probability=0.2),
    )
    exec_path = tmp_path / "exec.json"
    save(recorded, str(exec_path))
    ref = _run_cli(
        ["check", str(exec_path), "--telemetry-out",
         str(tmp_path / "check.jsonl")],
        cwd=str(tmp_path),
    )
    assert ref.returncode in (0, 2), ref.stderr
    events = interleave_by_commit(events_from_recorded(recorded))
    lines = [dumps_event(event) + "\n" for event in events]
    log = tmp_path / "log.jsonl"
    log.write_text("".join(lines), encoding="utf-8")
    uninterrupted = _run_cli(["watch", str(log)], cwd=str(tmp_path))
    assert uninterrupted.returncode == 0, uninterrupted.stderr
    reference = _announcements(uninterrupted.stdout)

    # the fault lands on the line just past the first commit
    first_commit = next(
        i for i, event in enumerate(events) if event.kind == "commit"
    )
    bad = first_commit + 1
    if fault == "corrupt-line":
        faulty = lines[:bad] + ["{broken\n"] + lines[bad + 1:]
        message = "invalid JSON in event log"
    else:
        faulty = lines[:bad] + [lines[first_commit]] + lines[bad:]
        message = f"duplicate commit of root {events[first_commit].root!r}"
    log.write_text("".join(faulty), encoding="utf-8")
    failed = _run_cli(["watch", str(log)], cwd=str(tmp_path))
    assert failed.returncode == 1
    assert failed.stderr.startswith(
        f"repro watch: error: {log}:{bad + 1}: {message}"
    )
    assert len(failed.stderr.splitlines()) == 1
    assert "Traceback" not in failed.stderr
    assert "final verdict" not in failed.stdout
    fault_offset = len("".join(lines[:bad]).encode())
    announced = _announcements(failed.stdout)
    assert announced == [a for a in reference if a[0] <= fault_offset]
    assert announced, "nothing announced before the fault"

    # repair the bytes and resume past the last announced offset
    log.write_text("".join(lines), encoding="utf-8")
    resumed = _run_cli(
        [
            "watch", str(log),
            "--from-offset", str(announced[-1][0]),
            "--telemetry-out", str(tmp_path / "watch.jsonl"),
        ],
        cwd=str(tmp_path),
    )
    assert resumed.returncode == 0, resumed.stderr
    later = _announcements(resumed.stdout)
    assert later and announced + later == reference
    ours = canonical_dumps(read_records(str(tmp_path / "watch.jsonl")))
    theirs = canonical_dumps(read_records(str(tmp_path / "check.jsonl")))
    assert ours == theirs
