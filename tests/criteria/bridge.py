"""Bridge between flat read/write histories and composite systems.

The composite theory must degenerate gracefully: a single-schedule
system whose transactions are flat read/write programs is exactly a
textbook history, and on those Comp-C coincides with classical conflict
serializability.  :func:`flat_to_composite` performs the embedding and
``test_bridge.py`` property-tests the agreement — a useful sanity
anchor for both sides.  It is a test oracle: no command reads it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.builder import SystemBuilder
from repro.core.system import CompositeSystem
from repro.criteria.classical import FlatHistory


def flat_to_composite(
    history: FlatHistory, *, schedule: str = "DB"
) -> CompositeSystem:
    """Embed a flat history as a one-schedule composite system.

    Each operation becomes a uniquely named leaf; conflicts are the
    read/write conflicts of the history; the execution sequence is the
    history's total order; transactions carry their program order as a
    weak intra-transaction order.
    """
    builder = SystemBuilder()
    op_names: List[str] = []
    per_txn: Dict[str, List[str]] = {}
    for index, op in enumerate(history.operations):
        name = f"{op.txn}.{op.kind}{index}[{op.item}]"
        op_names.append(name)
        per_txn.setdefault(op.txn, []).append(name)
    for txn, ops in per_txn.items():
        builder.transaction(
            txn, schedule, ops, weak_order=list(zip(ops, ops[1:]))
        )
    for i, j in history.conflict_pairs():
        builder.conflict(schedule, op_names[i], op_names[j])
    builder.executed(schedule, op_names)
    return builder.build()


def comp_c_of_flat(history: FlatHistory) -> bool:
    """Comp-C of the embedded history (should equal classical CSR)."""
    from repro.core.correctness import is_composite_correct

    return is_composite_correct(flat_to_composite(history))
