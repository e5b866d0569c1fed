"""The observed order ``<_o`` (Def. 10).

The observed order is the device that relates transactions which share
no schedule: execution dependencies observed at lower levels are pulled
up the execution trees until they meet.  Its rules:

1. leaf atomicity — the order a schedule gives its operations is
   observed (Def. 10.1);
2. conflicting, ordered operations of one schedule induce an observed
   order between their *parents* (Def. 10.2);
3. an observed pair whose endpoints are **not** operations of a common
   schedule propagates to the parents unconditionally (Def. 10.3) —
   but when the endpoints *are* operations of a common schedule that
   declares them non-conflicting, the pair is **forgotten**: that
   schedule knows the operations commute, and its knowledge overrides
   orders incidental at lower levels (the §3.7 "forgotten orders" step);
4. transitive closure (Def. 10.4).

Operational notes (documented in DESIGN.md §2.1):

* Seeding is conflict-gated: a schedule's ordered pair enters the
  observed order when the operations conflict there.  Def. 15/16
  quantify over re-orderings of commuting pairs (the front ``F**``), so
  an ordered-but-commuting pair is not a *fact* worth recording; the
  ``seed_leaf_order`` option restores the verbatim Def.-10.1 reading
  (every ordered leaf pair) for the A1 ablation benchmark.
* Pull-up happens stepwise: grouping ``a`` into its parent rewrites the
  pair ``(a, b)`` to ``(parent(a), b)``; when ``b`` is grouped later the
  pair becomes ``(parent(a), parent(b))``, with the Def.-10.2/10.3 gate
  (inspecting the pre-rewrite endpoints) applied at each step.
  Composing the rewrites yields exactly the Def.-10 pairs.
* Whether an observed pair *constrains* a calculation is a separate
  question answered by the generalized conflict relation (Def. 11) in
  :mod:`repro.core.calculation` — commuting same-schedule pairs sit in
  the observed order (transitivity needs them) without restricting the
  re-ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.core.orders import Relation
from repro.core.system import CompositeSystem


@dataclass(frozen=True)
class ObservedOrderOptions:
    """Tuning knobs for the observed-order engine.

    ``forget_nonconflicting``
        Apply the §3.7 forgetting rule (Def. 10.2 gate).  Disabling it
        propagates every pulled-up pair, making the criterion strictly
        more conservative — the A1 ablation measures the cost.
    ``seed_leaf_order``
        Seed observed pairs from *all* ordered leaf pairs rather than
        only conflicting ones (the verbatim Def. 10.1 reading; see the
        module docstring for why the default restricts to conflicts).
    """

    forget_nonconflicting: bool = True
    seed_leaf_order: bool = False


def seed_observed_pairs(
    system: CompositeSystem,
    nodes: Iterable[str],
    options: ObservedOrderOptions = ObservedOrderOptions(),
) -> Iterator[Tuple[str, str]]:
    """Observed pairs among ``nodes`` sourced from schedule output orders.

    For every pair of nodes that are operations of a common schedule
    ``S`` and ordered by ``S``'s weak output order, the pair is observed
    when the operations conflict under ``CON_S`` (or, with
    ``seed_leaf_order``, when either endpoint is a leaf — Def. 10.1).
    """
    for sname, members in group_by_schedule(system, nodes).items():
        yield from schedule_seed_pairs(system, sname, members, options)


def group_by_schedule(
    system: CompositeSystem, nodes: Iterable[str]
) -> "dict[str, List[str]]":
    """Group front nodes by their owning schedule, insertion-ordered."""
    by_schedule: dict = {}
    for node in nodes:
        owner = system.schedule_of_operation(node)
        if owner is not None:
            by_schedule.setdefault(owner, []).append(node)
    return by_schedule


def schedule_seed_pairs(
    system: CompositeSystem,
    sname: str,
    members: Sequence[str],
    options: ObservedOrderOptions = ObservedOrderOptions(),
) -> Tuple[Tuple[str, str], ...]:
    """The seed pairs one schedule contributes for ``members``.

    This is the cacheable unit behind :func:`seed_observed_pairs`: the
    result depends only on ``(sname, members, options)``, so the
    reduction engine memoizes it per schedule across levels (a schedule
    whose member set did not change between fronts re-contributes the
    same — already closed-in — pairs).
    """
    schedule = system.schedule(sname)
    output = schedule.weak_output
    out: List[Tuple[str, str]] = []
    if options.seed_leaf_order:
        # The ablation path forces pairs by leaf-ness too, so every
        # member pair is a candidate — keep the quadratic scan.
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                forced = schedule.conflicting(a, b)
                if not forced:
                    forced = system.is_leaf(a) or system.is_leaf(b)
                if not forced:
                    continue
                if (a, b) in output:
                    out.append((a, b))
                if (b, a) in output:
                    out.append((b, a))
        return tuple(out)
    # Default path: only conflicting pairs can seed, so walk the
    # schedule's declared conflict set (sparse) instead of all member
    # pairs (quadratic).  Candidates are ordered by member positions —
    # exactly the order the pair scan visited them — so the emitted
    # tuple is unchanged.
    position = {member: i for i, member in enumerate(members)}
    candidates: List[Tuple[int, int]] = []
    for pair in schedule.conflicts:
        x, y = tuple(pair)
        ix = position.get(x)
        iy = position.get(y)
        if ix is None or iy is None:
            continue
        candidates.append((ix, iy) if ix < iy else (iy, ix))
    candidates.sort()
    for ia, ib in candidates:
        a, b = members[ia], members[ib]
        if (a, b) in output:
            out.append((a, b))
        if (b, a) in output:
            out.append((b, a))
    return tuple(out)


def carried_restriction(
    observed: Relation,
    representative: Callable[[str], str],
    grouped: "frozenset[str]",
) -> Relation:
    """The carried part of one pull-up step: ``observed`` restricted to
    the ungrouped nodes, with the parents of the ``grouped`` nodes put
    on the carrier at their Def.-16 positions (first grouped child).
    For a transitively closed ``observed`` the result is closed — it is
    the delta-closure base of the reduction engine."""
    return observed.restricted_to(
        (n for n in observed.elements if n not in grouped),
        carrier=(representative(n) for n in observed.elements),
    )


def pull_up_delta(
    system: CompositeSystem,
    observed: Relation,
    representative: Callable[[str], str],
    options: ObservedOrderOptions = ObservedOrderOptions(),
    *,
    grouped: "frozenset[str] | None" = None,
    carry: bool = False,
) -> List[Tuple[str, str]]:
    """The *rewritten* pairs of one pull-up step (Def. 10.2/10.3).

    ``representative`` maps each current node either to itself (not
    grouped this step) or to its parent transaction (grouped).  Pairs
    internal to one group vanish.  Pairs with at least one grouped
    endpoint are rewritten to the representatives, gated per Def. 10:

    * endpoints that are operations of a **common schedule** propagate
      only when that schedule declares them conflicting (Def. 10.2) —
      otherwise the schedule vouches for commutativity and the order is
      *forgotten* (the §3.7 walk-through);
    * endpoints on **different schedules** propagate unconditionally
      (Def. 10.3) — nobody can vouch, so the dependency is kept
      pessimistically.

    The gate inspects the *old* endpoints: a pair between commuting
    operations of one schedule can only have entered the observed order
    through transitivity (seeding and propagation are both
    conflict-gated), and while it stays in the front it still witnesses
    a chain of forced orders — only its propagation past the vouching
    schedule is blocked.

    The untouched pairs (both endpoints ungrouped) are exactly
    :func:`carried_restriction` — closed whenever ``observed`` is.  The
    reduction engine keeps that restriction as the closed base and
    feeds the pairs returned here (plus the level's seeds) to
    :meth:`repro.core.orders.Relation.add_closed`, instead of
    re-closing the whole front.  With ``carry`` the untouched pairs are
    returned too, unchanged: the streaming step pulls up only the pairs
    a front gained since the previous commit, onto the previous
    commit's closed front, which has no restriction to carry them.

    Only rows touching a grouped node are visited: a pair needs
    rewriting iff one endpoint is grouped, so ungrouped rows are masked
    against the ``grouped`` bitmap (one AND each) and grouped rows
    contribute everything.  The Def.-10.2 forgetting gate is likewise
    applied row-at-a-time: the successors sharing ``a``'s schedule are
    selected with the schedule's member mask and intersected with
    ``a``'s conflict-neighbour mask, so no per-pair ``common_schedule``
    or ``conflicting`` call is made.  The returned order is the observed
    order's index order — callers only ever feed the delta into a
    :class:`Relation`, whose pair iteration is canonical regardless of
    insertion order.
    """
    if grouped is None:
        grouped = frozenset(
            n for n in observed.elements if representative(n) != n
        )
    delta: List[Tuple[str, str]] = []
    if not (grouped or carry):
        return delta
    forget = options.forget_nonconflicting
    grouped_mask = observed.mask_of(grouped)
    masks: Dict[str, int] = {}
    for a, mask in observed.nonempty_rows():
        if a not in grouped:
            if carry:
                delta.extend((a, b) for b in observed.unpack(mask & ~grouped_mask))
            mask &= grouped_mask
            if not mask:
                continue
        if forget:
            # Forget commuting same-schedule pairs wholesale.
            mask &= ~commuting_successors(system, observed, a, mask, masks)
            if not mask:
                continue
        ra = representative(a)
        for b in observed.unpack(mask):
            rb = representative(b)
            if ra == rb:
                continue  # internal to one calculation — reduced away
            delta.append((ra, rb))
    return delta


def commuting_successors(
    system: CompositeSystem,
    relation: Relation,
    a: str,
    row: int,
    masks: Dict[str, int],
) -> int:
    """The bits of ``row`` (successors of ``a`` in ``relation``) that
    are operations of ``a``'s own schedule and do not conflict with
    ``a`` there: the pairs that schedule vouches commute (the Def.-10.2
    gate, and Def. 11 for the calculation constraints).  ``masks``
    caches each schedule's operations as a mask over the carrier."""
    sname = system.schedule_of_operation(a)
    if sname is None:
        return 0
    schedule = system.schedule(sname)
    mask = masks.get(sname)
    if mask is None:
        mask = masks[sname] = relation.mask_of(schedule.operations)
    same = row & mask
    if not same:
        return 0
    return same & ~relation.mask_of(schedule.conflict_neighbours(a))


def observed_between_trees(
    system: CompositeSystem, observed: Relation, root_a: str, root_b: str
) -> bool:
    """True when any node of ``root_a``'s tree is observed-ordered with
    any node of ``root_b``'s tree (diagnostic helper used by examples)."""
    tree_a = system.composite_transaction(root_a)
    tree_b = system.composite_transaction(root_b)
    for a, b in observed.pairs():
        if (a in tree_a and b in tree_b) or (a in tree_b and b in tree_a):
            return True
    return False
