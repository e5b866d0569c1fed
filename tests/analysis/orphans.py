"""Find processes a killed CLI run left behind.

A SIGKILLed ``python -m repro`` runs no cleanup, so its pool workers
must notice the dead parent on their own.  Forked workers keep
the parent's command line, so a run started with paths under a test's
``tmp_path`` is found by searching command lines for that directory.
"""

import os
import subprocess
import time
from typing import List


def _command_lines() -> List[str]:
    """Every visible process's command line, arguments space-joined."""
    if os.path.isdir("/proc"):
        lines = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as handle:
                    raw = handle.read()
            except OSError:
                continue  # exited meanwhile, or not ours to read
            lines.append(raw.replace(b"\0", b" ").decode(errors="replace"))
        return lines
    listing = subprocess.run(
        ["ps", "-A", "-o", "args="], capture_output=True, text=True
    )
    return listing.stdout.splitlines()


def processes_naming(text: str) -> List[str]:
    """Command lines of the live processes that contain ``text``."""
    return [line for line in _command_lines() if text in line]


def assert_no_process_names(text: str, within: float = 10.0) -> None:
    """Fail unless every process whose command line contains ``text``
    is gone within ``within`` seconds."""
    deadline = time.monotonic() + within
    left = processes_naming(text)
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = processes_naming(text)
    assert not left, f"processes outlived their killed parent: {left}"
