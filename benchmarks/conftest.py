"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one paper artifact (figure / theorem /
comparison claim).  Besides the pytest-benchmark timing, each test emits
its artifact table through the ``emit`` fixture, which both prints it
(visible with ``pytest -s`` or on failure) and persists it under
``benchmarks/out/`` so EXPERIMENTS.md can reference stable outputs.
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture()
def emit():
    """``emit(name, text)``: print an artifact table and save it as
    ``benchmarks/out/<name>.txt``."""

    def _emit(name: str, text: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n[{name}] (saved to {path})")
        print(text)

    return _emit
