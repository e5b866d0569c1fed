"""Run profiles: aggregate a telemetry stream into time tables.

The ``composite-tx profile`` subcommand renders what this module
computes: a per-phase inclusive-time table (spans grouped by name), the
per-level reduction breakdown when ``reduce.level`` spans are present,
the top-N slowest individual spans, and every counter total.

Span times are **inclusive** — a parent span's duration contains its
children's — so the per-phase percentage column describes where wall
time was *observed*, not a partition of it.  The reduction table reads
the structured fields the engine notes onto each ``reduce.level`` exit
(closure calls/rows, front size, observed pairs), giving the same
numbers as ``check --profile`` from a file instead of a live run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple


@dataclass
class PhaseStat:
    """Aggregate of every exit record sharing one span name."""

    name: str
    count: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


@dataclass
class RunProfile:
    """Everything the renderer needs, precomputed from raw records."""

    phases: List[PhaseStat] = field(default_factory=list)
    slowest: List[Dict[str, Any]] = field(default_factory=list)
    counters: List[Tuple[str, Dict[str, Any], float]] = field(
        default_factory=list
    )
    reduce_levels: List[Dict[str, Any]] = field(default_factory=list)
    streams: int = 0
    records: int = 0


def build_profile(
    records: Sequence[Dict[str, Any]], *, top: int = 10
) -> RunProfile:
    """Fold raw telemetry records into a :class:`RunProfile`."""
    profile = RunProfile(records=len(records))
    by_name: Dict[str, PhaseStat] = {}
    exits: List[Dict[str, Any]] = []
    counters: Dict[Tuple[str, Tuple[Tuple[str, Any], ...]], float] = {}
    streams = set()
    for record in records:
        streams.add(record.get("stream", ""))
        kind = record.get("kind")
        if kind == "exit":
            exits.append(record)
            dur = float(record.get("dur_s") or 0.0)
            stat = by_name.setdefault(
                record["name"], PhaseStat(name=record["name"])
            )
            stat.count += 1
            stat.total_s += dur
            stat.max_s = max(stat.max_s, dur)
            if record["name"] == "reduce.level":
                profile.reduce_levels.append(record)
        elif kind == "counter":
            fields = dict(record.get("fields", {}))
            value = float(fields.pop("value", 0))
            key = (record["name"], tuple(sorted(fields.items())))
            counters[key] = counters.get(key, 0.0) + value
    profile.streams = len(streams)
    profile.phases = sorted(
        by_name.values(), key=lambda s: (-s.total_s, s.name)
    )
    profile.slowest = sorted(
        exits,
        key=lambda r: (-(float(r.get("dur_s") or 0.0)), r["stream"], r["seq"]),
    )[:top]
    profile.counters = [
        (name, dict(fields), value)
        for (name, fields), value in sorted(counters.items())
    ]
    return profile


def _fields_cell(fields: Dict[str, Any], *, skip: Sequence[str] = ()) -> str:
    shown = [
        f"{k}={v}" for k, v in sorted(fields.items()) if k not in skip
    ]
    return " ".join(shown) if shown else "-"


def render_profile(
    records: Sequence[Dict[str, Any]], *, top: int = 10
) -> str:
    """Render a telemetry record list as the ``profile`` CLI report."""
    # Imported lazily: obs stays import-light so the instrumented core
    # never drags the analysis layer in at import time.
    from repro.analysis.tables import banner, format_table

    profile = build_profile(records, top=top)
    out: List[str] = [
        f"{profile.records} records across {profile.streams} stream(s)"
    ]
    total = sum(p.total_s for p in profile.phases)
    out.append(banner("per-phase time (inclusive)"))
    out.append(
        format_table(
            ["phase", "spans", "total ms", "%", "mean ms", "max ms"],
            [
                [
                    p.name,
                    p.count,
                    f"{p.total_s * 1000:.2f}",
                    f"{(p.total_s / total * 100) if total else 0.0:.1f}",
                    f"{p.mean_s * 1000:.2f}",
                    f"{p.max_s * 1000:.2f}",
                ]
                for p in profile.phases
            ],
        )
    )
    if profile.reduce_levels:
        out.append(banner("reduction levels"))
        out.append(
            format_table(
                ["stream", "level", "ms", "closures", "rows", "nodes",
                 "obs pairs"],
                [
                    [
                        r["stream"],
                        r.get("fields", {}).get("level", "?"),
                        f"{float(r.get('dur_s') or 0.0) * 1000:.2f}",
                        r.get("fields", {}).get("closure_calls", "-"),
                        r.get("fields", {}).get("closure_rows", "-"),
                        r.get("fields", {}).get("nodes", "-"),
                        r.get("fields", {}).get("observed_pairs", "-"),
                    ]
                    for r in profile.reduce_levels
                ],
            )
        )
    out.append(banner(f"slowest spans (top {top})"))
    out.append(
        format_table(
            ["span", "ms", "stream", "fields"],
            [
                [
                    r["name"],
                    f"{float(r.get('dur_s') or 0.0) * 1000:.2f}",
                    r["stream"],
                    _fields_cell(dict(r.get("fields", {}))),
                ]
                for r in profile.slowest
            ],
        )
    )
    if profile.counters:
        out.append(banner("counters"))
        out.append(
            format_table(
                ["counter", "fields", "total"],
                [
                    [
                        name,
                        _fields_cell(fields),
                        f"{value:g}",
                    ]
                    for name, fields, value in profile.counters
                ],
            )
        )
    return "\n".join(out)
