"""Calculations (Def. 14) and the feasibility test of Def. 16 step 1.

A *calculation* of a transaction ``T`` in a front is an isolated,
contiguous execution of ``T``'s operations consistent with the observed
order.  Def. 16 step 1 asks for a re-ordering of the front (changing
only commuting pairs, never pairs ordered by the strong input order) in
which **every** level-``i`` transaction appears as a calculation.

Such a re-ordering exists exactly when the *constraint digraph* —

* observed pairs (these are forced: they hold between conflicting or
  cross-schedule-dependent nodes),
* input orders between front nodes (a serial front must contain them,
  Def. 19, so they may not be flipped),
* each grouped transaction's intra-transaction weak order

— is acyclic inside every group **and** its quotient by the groups is
acyclic.  Acyclicity inside a group gives an internal execution order;
quotient acyclicity lets whole groups be laid out one after another,
which is precisely contiguity.  This is the classical reducibility
condition (cf. the isolated-tree test for nested transactions), and the
equivalence is property-tested against a brute-force search in
``tests/core/test_calculation_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.front import EMPTY_FRONT, Front, ReductionFailure
from repro.core.observed import commuting_successors
from repro.core.orders import Relation
from repro.core.system import CompositeSystem


@dataclass
class Grouping:
    """The level-``i`` grouping of a front.

    ``representative`` maps every front node to the transaction that
    absorbs it this step (or to itself when it survives).  ``groups``
    maps each absorbing transaction to its member nodes.
    """

    level: int
    representative: Dict[str, str]
    groups: Dict[str, List[str]]

    def rep(self, node: str) -> str:
        return self.representative[node]

    def new_nodes(self, old_nodes: Tuple[str, ...]) -> Tuple[str, ...]:
        """Front nodes after the reduction step, in deterministic order:
        survivors keep their position, each group collapses into its
        transaction at the position of its first member."""
        seen = set()
        ordered: List[str] = []
        for node in old_nodes:
            rep = self.representative[node]
            if rep not in seen:
                seen.add(rep)
                ordered.append(rep)
        return tuple(ordered)


def grouping_for_level(
    system: CompositeSystem,
    nodes: Tuple[str, ...],
    level: int,
    *,
    base: Optional[Grouping] = None,
) -> Grouping:
    """Group the front nodes whose parent is a level-``level`` transaction.

    ``base`` is the grouping of an earlier front these nodes extend,
    whose nodes keep their parents: only the nodes it lacks are placed.
    """
    representative: Dict[str, str] = {}
    groups: Dict[str, List[str]] = {}
    if base is not None:
        representative.update(base.representative)
        groups.update(base.groups)
    for node in nodes:
        if node in representative:
            continue
        if system.grouping_level(node) == level:
            parent = system.parent(node)
            representative[node] = parent
            groups.setdefault(parent, []).append(node)
        else:
            representative[node] = node
    return Grouping(level=level, representative=representative, groups=groups)


def calculation_constraints(
    system: CompositeSystem,
    front: Front,
    grouping: Grouping,
    *,
    base: "Optional[Tuple[Front, Relation]]" = None,
) -> Relation:
    """The constraint digraph described in the module docstring.

    Observed pairs constrain the re-ordering only when the endpoints
    *generally conflict* (Def. 11): operations of a common schedule must
    actually conflict there — the schedule vouches for commutativity
    otherwise, so Def. 16 step 1 may swap them — while cross-schedule
    observed pairs always bind (pessimism).  Input orders always bind: a
    serial front must contain them (Def. 19).

    Built subtractively on the bitset rows: an observed pair between
    *different* schedules always generally conflicts (``observed.orders``
    holds by membership), so the constraints start as a whole-row copy of
    the observed order onto the front carrier and only the diagonal and
    the commuting same-schedule pairs are discarded — per-pair work is
    proportional to the (small) same-schedule blocks, not to the dense
    closed observed order.

    ``base`` is ``(earlier, its constraints)`` for a front that extends
    ``earlier`` on an append-only carrier with every old pair keeping
    its fate (the step of
    :meth:`repro.core.reduction.ReductionEngine.next_front`): the
    digraph is the earlier one plus the constraints of the observed and
    input pairs the front gained and of its new groups.  No ``base`` is
    the empty one: every pair is gained.  The front's observed order
    must list the front's nodes as its carrier (an engine invariant).
    """
    if base is None:
        base = (EMPTY_FRONT, EMPTY_FRONT.observed)
    earlier, built = base
    constraints = front.observed.added_since(earlier.observed)
    inputs = tuple(
        now.added_since(then)
        for now, then in (
            (front.input_weak, earlier.input_weak),
            (front.input_strong, earlier.input_strong),
        )
        if len(now) != len(then)
    )
    known = set(earlier.nodes)
    groups = {
        parent: members
        for parent, members in grouping.groups.items()
        if members[0] not in known
    }
    constraints.remove_self_loops()
    masks: Dict[str, int] = {}
    for a, row in constraints.nonempty_rows():
        drop = commuting_successors(system, constraints, a, row, masks)
        if drop:
            constraints.discard_row_bits(a, drop)
    constraints = built.union(constraints, *inputs)
    for parent, members in groups.items():
        schedule = system.schedule(system.schedule_of_transaction(parent))
        txn = schedule.transaction(parent)
        if not txn.ordered:
            continue
        member_set = set(members)
        for a, b in txn.weak_order.pairs():
            if a in member_set and b in member_set:
                constraints.add(a, b)
    return constraints


def find_isolation_failure(
    constraints: Relation,
    grouping: Grouping,
    quotient: Optional[Relation] = None,
) -> Optional[ReductionFailure]:
    """Check Def. 16 step 1 feasibility; return a failure witness or None.

    The groups are decided together, on the constraint rows each masked
    to its own group; only when that finds a cycle is each group decided
    on its member mask, and the first cyclic one restricted out to build
    its witness cycle.  ``quotient`` is ``constraints.mapped(grouping.rep)``
    when the caller has already built it (built here otherwise).
    """
    masks = {
        parent: constraints.mask_of(members)
        for parent, members in grouping.groups.items()
    }
    for parent, members in (
        () if constraints.blocks_acyclic(masks.values()) else grouping.groups.items()
    ):
        if constraints.is_acyclic(masks[parent]):
            continue
        cycle = constraints.restricted_to(members).find_cycle()
        assert cycle is not None
        return ReductionFailure(
            level=grouping.level,
            stage="calculation",
            cycle=cycle,
            blocked=(parent,),
        )
    if quotient is None:
        quotient = constraints.mapped(grouping.rep)
    cycle = quotient.find_cycle()
    if cycle is not None:
        blocked = tuple(node for node in cycle[:-1] if node in grouping.groups)
        return ReductionFailure(
            level=grouping.level,
            stage="calculation",
            cycle=cycle,
            blocked=blocked,
        )
    return None


def witness_sequence(
    constraints: Relation,
    grouping: Grouping,
    nodes: Tuple[str, ...],
    quotient: Optional[Relation] = None,
) -> List[str]:
    """A concrete ``F**`` witness: a linearization of the front in which
    every group is contiguous and all constraints are respected.

    Each group's members are ordered on the constraint rows under the
    group's member mask, lowest constraint index first.

    Only call after :func:`find_isolation_failure` returned ``None``,
    with ``constraints`` over every front node (as
    :func:`calculation_constraints` builds them).  ``quotient`` is as
    for :func:`find_isolation_failure`; it gains the nodes' elements.
    """
    if quotient is None:
        quotient = constraints.mapped(grouping.rep)
    for node in nodes:
        quotient.add_element(grouping.rep(node))
    sequence: List[str] = []
    for rep in quotient.topological_sort():
        members = grouping.groups.get(rep)
        if members is None:
            sequence.append(rep)
        else:
            sequence.extend(
                constraints.topological_sort(constraints.mask_of(members))
            )
    return sequence


def is_contiguous(sequence: List[str], members: List[str]) -> bool:
    """True when ``members`` occupy consecutive positions of ``sequence``
    (diagnostic helper for tests and examples)."""
    positions = sorted(sequence.index(m) for m in members)
    return all(
        later == earlier + 1 for earlier, later in zip(positions, positions[1:])
    )
