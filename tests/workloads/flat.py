"""Flat read/write workload generation (for the classical baselines).

Random single-schedule histories over data items with tunable write
ratio and zipf hot-spot skew, used by the flat-history bridge test
(Comp-C equals CSR on one schedule) and its own unit tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.criteria.classical import FlatHistory, FlatOp
from repro.exceptions import WorkloadError


@dataclass(frozen=True)
class FlatWorkloadConfig:
    seed: int = 0
    transactions: int = 4
    ops_per_transaction: int = 4
    items: int = 8
    write_probability: float = 0.5
    item_skew: float = 0.0
    serial: bool = False


def random_flat_history(config: FlatWorkloadConfig) -> FlatHistory:
    """One random flat history; ``serial`` lays transactions end to end."""
    if config.transactions < 1 or config.ops_per_transaction < 1:
        raise WorkloadError("need at least one transaction and operation")
    rng = random.Random(config.seed)
    per_txn: List[List[FlatOp]] = []
    for t in range(1, config.transactions + 1):
        ops = []
        for _ in range(config.ops_per_transaction):
            if config.item_skew > 0:
                weights = [
                    1.0 / (i + 1) ** config.item_skew
                    for i in range(config.items)
                ]
                item_index = rng.choices(
                    range(config.items), weights=weights, k=1
                )[0]
            else:
                item_index = rng.randrange(config.items)
            mode = "w" if rng.random() < config.write_probability else "r"
            ops.append(FlatOp(f"T{t}", mode, f"x{item_index}"))
        per_txn.append(ops)
    if config.serial:
        flat = [op for ops in per_txn for op in ops]
        return FlatHistory(flat)
    # Random fair interleaving.
    cursors = [0] * len(per_txn)
    sequence: List[FlatOp] = []
    while any(c < len(ops) for c, ops in zip(cursors, per_txn)):
        candidates = [
            i for i, (c, ops) in enumerate(zip(cursors, per_txn)) if c < len(ops)
        ]
        pick = rng.choice(candidates)
        sequence.append(per_txn[pick][cursors[pick]])
        cursors[pick] += 1
    return FlatHistory(sequence)


def flat_history_batch(
    config: FlatWorkloadConfig, count: int
) -> List[FlatHistory]:
    """``count`` histories with consecutive seeds."""
    return [
        random_flat_history(
            FlatWorkloadConfig(
                seed=config.seed + i,
                transactions=config.transactions,
                ops_per_transaction=config.ops_per_transaction,
                items=config.items,
                write_probability=config.write_probability,
                item_skew=config.item_skew,
                serial=config.serial,
            )
        )
        for i in range(count)
    ]
