"""ASCII execution lanes: who did what, where, in which order.

Renders a recorded execution as one lane per component, each operation
shown as the composite transaction that issued it — the quickest way to
*see* an interleaving pattern (and to spot a wrapped transaction at a
glance).  Used by the CLI's ``info`` command and handy in notebooks.

::

    DB  | T1 T2 T2 T1 | 4 ops, 2 transactions
        | r_stock w_stock w_order ...
"""

from __future__ import annotations

from typing import Dict, List

from repro.io.recorded import RecordedExecution


def render_lanes(
    recorded: RecordedExecution,
    *,
    max_width: int = 72,
    show_ops: bool = False,
) -> str:
    """One lane per schedule: the sequence of root transactions whose
    work executed, in temporal order (consecutive duplicates merged when
    the lane would overflow ``max_width``)."""
    system = recorded.system
    lines: List[str] = []
    name_width = max((len(n) for n in recorded.executions), default=0)
    for sname in sorted(recorded.executions):
        sequence = recorded.executions[sname]
        roots = [system.root_of(op) for op in sequence]
        cells = roots
        rendered = " ".join(cells)
        if len(rendered) > max_width:
            # Merge consecutive repeats: T1 T1 T1 -> T1x3
            merged: List[str] = []
            for root in roots:
                if merged and merged[-1].split("x")[0] == root:
                    head, _x, count = merged[-1].partition("x")
                    merged[-1] = f"{head}x{int(count or 1) + 1}"
                else:
                    merged.append(root)
            rendered = " ".join(merged)
        if len(rendered) > max_width:
            rendered = rendered[: max_width - 3] + "..."
        distinct = len(set(roots))
        lines.append(
            f"{sname.ljust(name_width)} | {rendered}"
            f"  ({len(sequence)} ops, {distinct} transactions)"
        )
        if show_ops:
            ops = " ".join(sequence)
            if len(ops) > max_width:
                ops = ops[: max_width - 3] + "..."
            lines.append(f"{' ' * name_width} | {ops}")
    return "\n".join(lines)


def interleaving_profile(recorded: RecordedExecution) -> Dict[str, int]:
    """Per schedule: how many *switches* between different composite
    transactions the execution contains (0 = serial layout there)."""
    system = recorded.system
    profile: Dict[str, int] = {}
    for sname, sequence in recorded.executions.items():
        roots = [system.root_of(op) for op in sequence]
        switches = sum(1 for a, b in zip(roots, roots[1:]) if a != b)
        runs_lower_bound = len(set(roots)) - 1
        profile[sname] = max(0, switches - runs_lower_bound)
    return profile
