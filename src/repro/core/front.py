"""Computational fronts (Def. 12, 13 and 17).

A front is a horizontal cut through the computational forest: a maximal
set of independent nodes (none a descendant of another) together with
the observed order, the generalized conflicts, and the input orders
between its members.  The reduction (Def. 16) walks a chain of fronts
from the leaves (level 0, Def. 15) to the roots (level ``N``).

*Conflict consistency* of a front (Def. 13) — acyclicity of the union of
its observed order and its input orders — generalizes per-schedule
conflict consistency, and *serial* fronts (Def. 17, strong input order
total) are the correctness yardstick of Def. 20.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.core.conflicts import conflict_pairs
from repro.core.orders import (
    Relation,
    find_cycle_in_union,
    total_order_relation,
)
from repro.core.system import CompositeSystem


@dataclass
class Front:
    """A level-``i`` computational front.

    Attributes
    ----------
    level:
        The reduction step that produced this front (0 = all leaves).
    nodes:
        The independent node set ``Ô``.
    observed:
        The observed order ``<_o`` restricted to (and transitively
        closed over) the nodes.
    input_weak / input_strong:
        The input orders ``→`` / ``↠`` between front nodes included so
        far (Def. 16 step 6); strong pairs are also weak pairs.
    """

    level: int
    nodes: Tuple[str, ...]
    observed: Relation
    input_weak: Relation
    input_strong: Relation

    def __post_init__(self) -> None:
        node_set = set(self.nodes)
        for relation, label in (
            (self.observed, "observed order"),
            (self.input_weak, "weak input order"),
            (self.input_strong, "strong input order"),
        ):
            # Fast path: when every carrier element is a front node, no
            # pair can mention a non-member — O(carrier) instead of a
            # pair scan over the dense closed observed order.
            if node_set.issuperset(relation.elements):
                continue
            for a, b in relation.pairs():
                if a not in node_set or b not in node_set:
                    raise ValueError(
                        f"front {label} pair ({a}, {b}) mentions a "
                        "non-member node"
                    )

    # ------------------------------------------------------------------
    @classmethod
    def level0(cls, nodes: Tuple[str, ...], observed: Relation) -> "Front":
        """The level-0 front over ``nodes`` with a caller-supplied
        (closed) observed order and the empty input orders Def. 15
        prescribes — no schedule has contributed input orders yet at
        the leaves.  This is the injection point of the streaming
        checker: it maintains the leaf observed order incrementally
        across commits and hands the finished relation to
        :meth:`repro.core.reduction.ReductionEngine.run` via its
        ``level0`` parameter instead of re-closing it from scratch.
        """
        return cls(
            level=0,
            nodes=nodes,
            observed=observed,
            input_weak=Relation(elements=nodes),
            input_strong=Relation(elements=nodes),
        )

    def combined_order(self) -> Relation:
        """``<_o ∪ →`` — the relation Def. 13 requires to be acyclic."""
        return self.observed.union(self.input_weak)

    def is_conflict_consistent(self) -> bool:
        """Def. 13."""
        return self.consistency_violation() is None

    def consistency_violation(self) -> Optional[List[str]]:
        """A witness cycle through ``<_o ∪ →``, or ``None`` when CC.

        Reflexive pairs (which the transitive closure of a cyclic
        observed order contains) are dropped so the witness is the
        underlying multi-node cycle rather than a bare self-loop.
        :func:`find_cycle_in_union` builds ``<_o ∪ →`` once with
        :meth:`Relation.union`, decides acyclicity on its rows and runs
        the sorted witness DFS only when there is a cycle.
        """
        return find_cycle_in_union(
            (self.observed, self.input_weak), skip_self_loops=True
        )

    def is_serial(self) -> bool:
        """Def. 17: the strong input order is total over the nodes."""
        return self.input_strong.is_total_over(self.nodes)

    def serialization(self) -> List[str]:
        """A total node order extending ``<_o ∪ →`` (exists iff CC)."""
        return self.combined_order().topological_sort()

    def conflicts(self, system: CompositeSystem) -> Set[FrozenSet[str]]:
        """The generalized-conflict pairs among the front nodes."""
        return conflict_pairs(system, self.observed, self.nodes)

    def as_serial_front(self) -> "Front":
        """The serial front obtained by topologically sorting this front
        (the construction in the Theorem 1 proof): same nodes, strong
        input order = a total order containing ``<_o ∪ →``."""
        order = self.serialization()
        total = total_order_relation(order)
        return Front(
            level=self.level,
            nodes=tuple(order),
            observed=self.observed.copy(),
            input_weak=total.copy(),
            input_strong=total,
        )

    def __repr__(self) -> str:
        return (
            f"Front(level={self.level}, nodes={list(self.nodes)}, "
            f"|obs|={len(self.observed)}, |inp|={len(self.input_weak)})"
        )


#: The front with no nodes, which a reduction step extends when it has
#: no earlier front (``added_since`` of its orders is the whole
#: relation).  Shared, so never mutated.
EMPTY_FRONT = Front.level0((), Relation())


@dataclass
class ReductionFailure:
    """Why a level-``i`` front could not be constructed.

    ``stage`` is ``"calculation"`` (Def. 16 step 1 — some level-``i``
    transaction cannot be isolated) or ``"cc"`` (Def. 16 step 6 — the
    reduced front is not conflict consistent).  ``cycle`` is the witness
    cycle in the relevant constraint graph and ``blocked`` names the
    transactions involved when the stage is ``"calculation"``.
    """

    level: int
    stage: str
    cycle: List[str]
    blocked: Tuple[str, ...] = field(default_factory=tuple)
    rejected_front: "Optional[Front]" = None

    def describe(self) -> str:
        path = " -> ".join(self.cycle)
        if self.stage == "calculation":
            who = ", ".join(self.blocked) or "some transaction"
            return (
                f"level {self.level}: no calculation exists for {who} "
                f"(constraint cycle {path})"
            )
        return f"level {self.level}: reduced front is not CC (cycle {path})"
