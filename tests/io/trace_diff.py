"""Human-readable differences between two reduction traces (a test
helper: the library only writes and reads traces)."""

from typing import List

from repro.io.trace import ReductionTrace


def diff_traces(a: ReductionTrace, b: ReductionTrace) -> List[str]:
    """Human-readable differences between two traces.

    Compares verdicts, front structure, and witnesses — not the
    ``profile`` timings, which vary run to run by construction.  An
    empty list means the reductions were equivalent."""
    out: List[str] = []
    if a.succeeded != b.succeeded:
        out.append(f"verdict: {a.succeeded} vs {b.succeeded}")
    if a.serial_witness != b.serial_witness:
        out.append(
            f"serial witness: {a.serial_witness} vs {b.serial_witness}"
        )
    levels_a = {front.level: front for front in a.fronts}
    levels_b = {front.level: front for front in b.fronts}
    for level in sorted(set(levels_a) | set(levels_b)):
        fa, fb = levels_a.get(level), levels_b.get(level)
        if fa is None or fb is None:
            out.append(
                f"level {level}: present only in "
                f"{'second' if fa is None else 'first'} trace"
            )
            continue
        if fa.nodes != fb.nodes:
            out.append(
                f"level {level} nodes: {list(fa.nodes)} vs {list(fb.nodes)}"
            )
        for attr in ("observed", "input_weak", "input_strong"):
            pa = list(getattr(fa, attr).pairs())
            pb = list(getattr(fb, attr).pairs())
            if pa != pb:
                out.append(
                    f"level {level} {attr}: {len(pa)} pair(s) vs "
                    f"{len(pb)} pair(s)"
                )
    if a.witnesses != b.witnesses:
        out.append("witness sequences differ")
    return out
