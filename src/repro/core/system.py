"""Composite systems (Def. 4–9 of the paper).

A composite system is a set of schedules whose operations may again be
transactions of other schedules.  This module derives and validates all
the structure the reduction needs:

* the *parent* function (Def. 5) — each operation/transaction node has a
  unique parent transaction; root transactions are their own parent;
* node classification (Def. 4.3–4.5) into **leaves** (operations that are
  nobody's transaction), **internal nodes** (transactions invoked as
  operations) and **roots** (transactions that are nobody's operation);
* the **invocation graph** (Def. 7–8) and its acyclicity, which is the
  recursion-freedom condition of Def. 4.6;
* schedule **levels** (Def. 9): ``level(S) = (longest IG path from S) + 1``;
* the order-propagation condition of Def. 4.7 (output orders of a caller
  appear as input orders of the callee when both operations go to the
  same callee);
* composite transactions / execution trees (Def. 6).
"""

from __future__ import annotations

from itertools import chain, islice
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.orders import Relation
from repro.core.schedule import Schedule
from repro.exceptions import (
    CycleError,
    ModelError,
    OrderPropagationError,
    Report,
    report_or_raise,
)


#: a schedule's (roots, leaves, internal nodes), each in declaration order
_Parts = Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]
#: the parts of a schedule with no nodes yet
_NO_PARTS: _Parts = ((), (), ())


def assigned_twice(txn: str, first: str, second: str) -> ModelError:
    """Def. 4.1 broken: transaction ``txn`` of schedule ``first`` is
    declared again on ``second``."""
    return ModelError(
        f"transaction {txn!r} assigned to two schedules "
        f"({first!r} and {second!r})",
        code="CTX202",
        schedule=second,
        nodes=(txn,),
        hint="a transaction belongs to exactly one schedule (Def. 4.1)",
    )


class CompositeSystem:
    """An immutable, validated composite system (Def. 4).

    Without ``report`` the first violation of Defs. 4.1-4.6 raises
    :class:`ModelError`; with it, each is reported and the system keeps
    what is usable (see :func:`repro.exceptions.report_or_raise`).
    Def. 4.7 is checked only when ``validate`` is true.
    """

    def __init__(
        self,
        schedules: Sequence[Schedule],
        *,
        validate: bool = True,
        report: Optional[Report] = None,
    ) -> None:
        if not schedules:
            raise ModelError("a composite system needs at least one schedule")
        # A new system is the empty one grown by every schedule.
        self._schedules: Dict[str, Schedule] = {}
        self._schedule_of_txn: Dict[str, str] = {}
        self._parent_of: Dict[str, str] = {}
        # node -> owning schedule (None for roots), precomputed: the
        # Def. 10/11 gates ask this for every candidate observed pair.
        self._op_schedule: Dict[str, Optional[str]] = {}
        self._parts: Dict[str, _Parts] = {}
        self._invocation_graph = Relation()
        self._levels: Dict[str, int] = {}
        self._at_level: Dict[int, Tuple[str, ...]] = {}
        self._order = 0
        self._grow(schedules, report)
        if validate:
            self._validate_order_propagation()

    def extended(self, schedules: Sequence[Schedule]) -> "CompositeSystem":
        """The system of ``schedules``, as the constructor builds it
        with ``validate=False``, indexed from this system's indexes.

        ``schedules`` lists this system's schedules in its order, each
        the same object or grown from it by :meth:`Schedule.extended`,
        then any new ones; only the transactions and operations they
        gained are indexed, and the invocation graph and levels are
        redone only when it gains a schedule or an edge.  This system
        is left as it is.  When ``schedules`` do not fit that shape or
        break Defs. 4.1-4.6, the constructor builds the system instead
        (and raises the violation as such)."""
        grown = CompositeSystem.__new__(CompositeSystem)
        grown._schedules = dict(self._schedules)
        grown._schedule_of_txn = dict(self._schedule_of_txn)
        grown._parent_of = dict(self._parent_of)
        grown._op_schedule = dict(self._op_schedule)
        grown._parts = dict(self._parts)
        grown._invocation_graph = self._invocation_graph
        grown._levels = self._levels
        grown._at_level = dict(self._at_level)
        grown._order = self._order
        try:
            grown._grow(schedules, None)
        except ModelError:
            return CompositeSystem(schedules, validate=False)
        if list(grown._schedules) != [schedule.name for schedule in schedules]:
            return CompositeSystem(schedules, validate=False)
        return grown

    # ------------------------------------------------------------------
    # structural indexing
    # ------------------------------------------------------------------
    def _grow(
        self, schedules: Sequence[Schedule], report: Optional[Report]
    ) -> None:
        """The one construction body: index ``schedules``, each new to
        this system or grown from its schedule of that name, and check
        Defs. 4.1-4.6 on what they add.

        Every pass goes over the gained schedules in order, and each
        schedule keeps its own roots, leaves and internal nodes in its
        declaration order, so the node tuples are those of a
        construction from scratch; grown from the empty system, the
        violations come out in the order of the earlier passes that
        indexed every schedule at once."""
        gained: List[Tuple[Schedule, int, int]] = []
        new: List[str] = []
        listed: Set[str] = set()
        for schedule in schedules:
            if schedule.name in listed:
                report_or_raise(
                    report,
                    ModelError(
                        f"two schedules named {schedule.name!r} in the system",
                        code="CTX201",
                        schedule=schedule.name,
                        hint="rename one of the schedules",
                    ),
                )
                continue
            listed.add(schedule.name)
            before = self._schedules.get(schedule.name)
            if before is schedule:
                continue
            self._schedules[schedule.name] = schedule
            if before is None:
                new.append(schedule.name)
                gained.append((schedule, 0, 0))
            else:
                gained.append(
                    (schedule, len(before._transactions), len(before._owner_of))
                )

        # Def. 4.1: a transaction belongs to exactly one schedule.
        schedule_of_txn = self._schedule_of_txn
        txns_of: Dict[str, List[str]] = {}
        for schedule, txns, _ in gained:
            sname = schedule.name
            added: List[str] = []
            txns_of[sname] = added
            for tname in islice(schedule._transactions, txns, None):
                if tname in schedule_of_txn:
                    report_or_raise(
                        report,
                        assigned_twice(tname, schedule_of_txn[tname], sname),
                    )
                    continue
                schedule_of_txn[tname] = sname
                added.append(tname)

        # An operation of the last build declared a transaction now
        # becomes internal (the indexes still hold the last build).
        parent_of = self._parent_of
        op_schedule = self._op_schedule
        moved: Set[str] = set()  # schedules with a node that changed role
        callers: List[Tuple[str, str]] = []
        for sname, added in txns_of.items() if op_schedule else ():
            for tname in added:
                caller = op_schedule.get(tname)
                if caller is not None:
                    moved.add(caller)
                    callers.append((caller, sname))

        # Def. 5: unique parents.  An operation name appearing in two
        # transactions (across any schedules) would make `parent`
        # ambiguous; a schedule has already refused one in two of its
        # own transactions.  A root invoked now becomes an operation.
        # Def. 4.3-4.4: an operation is a leaf or an internal node.
        grouped: Dict[str, Tuple[List[str], List[str]]] = {}
        for schedule, _, ops in gained:
            sname = schedule.name
            leaves: List[str] = []
            internal: List[str] = []
            grouped[sname] = (leaves, internal)
            for op, tname in islice(schedule._owner_of.items(), ops, None):
                known = parent_of.get(op)
                if known is not None:
                    if known != op:
                        report_or_raise(
                            report,
                            ModelError(
                                f"node {op!r} is an operation of both "
                                f"{known!r} and {tname!r}",
                                code="CTX203",
                                schedule=sname,
                                nodes=(op,),
                                hint="operation names must be globally "
                                "unique (Def. 5)",
                            ),
                        )
                        continue
                    moved.add(schedule_of_txn[op])
                parent_of[op] = tname
                op_schedule[op] = schedule_of_txn[tname]
                (internal if op in schedule_of_txn else leaves).append(op)

        # Def. 4.5: roots, transactions that are operations of nobody
        # (their own parent).
        roots: List[str] = []
        parts = self._parts
        for schedule, _, _ in gained:
            sname = schedule.name
            new_roots = [t for t in txns_of[sname] if t not in parent_of]
            roots.extend(new_roots)
            if sname not in moved:
                old_roots, old_leaves, old_internal = parts.get(sname, _NO_PARTS)
                new_leaves, new_internal = grouped[sname]
                parts[sname] = (
                    old_roots + tuple(new_roots),
                    old_leaves + tuple(new_leaves),
                    old_internal + tuple(new_internal),
                )
        for sname in moved:
            schedule = self._schedules[sname]
            parts[sname] = (
                tuple(t for t in schedule._transactions if parent_of.get(t, t) == t),
                tuple(o for o in schedule._owner_of if o not in schedule_of_txn),
                tuple(o for o in schedule._owner_of if o in schedule_of_txn),
            )
        for root in roots:
            parent_of[root] = root
            op_schedule[root] = None
        ordered = [parts[sname] for sname in self._schedules]
        self._roots: Tuple[str, ...] = tuple(chain.from_iterable(p[0] for p in ordered))
        self._leaves: Tuple[str, ...] = tuple(chain.from_iterable(p[1] for p in ordered))
        self._internal: Tuple[str, ...] = tuple(
            chain.from_iterable(p[2] for p in ordered)
        )
        if not self._roots:
            report_or_raise(
                report,
                ModelError(
                    "system has no root transaction (every transaction is "
                    "invoked by another one — the invocation structure is "
                    "cyclic)",
                    code="CTX204",
                    hint="at least one transaction must be nobody's "
                    "operation (Def. 4.5)",
                ),
            )

        # Def. 8's graph, its acyclicity (Def. 4.6) and the levels
        # (Def. 9), redone when it gains a schedule or an edge.
        acyclic = True
        edges: List[Tuple[str, str]] = []
        for schedule, _, ops in gained:
            sname = schedule.name
            for op in islice(schedule._owner_of, ops, None):
                target = schedule_of_txn.get(op)
                if target is None:
                    continue
                if target == sname:
                    acyclic = False
                    report_or_raise(
                        report,
                        CycleError(
                            f"schedule {sname!r} invokes itself through {op!r}",
                            [sname, sname],
                            code="CTX205",
                            schedule=sname,
                            nodes=(op,),
                            hint="a transaction cannot run on the schedule "
                            "that invokes it",
                        ),
                    )
                else:
                    edges.append((sname, target))
        edges.extend(callers)
        graph = self._invocation_graph
        size = len(graph)
        if new or edges:
            graph = self._invocation_graph = graph.grown(new)
            graph.add_all(edges)
        if not new and len(graph) == size:
            return
        cycle = graph.find_cycle()
        if cycle is not None:
            report_or_raise(
                report,
                CycleError(
                    "recursion in the invocation graph (violates Def. 4.6)",
                    cycle,
                    code="CTX206",
                    hint="invocations must form a DAG (Def. 4.6)",
                ),
            )
        elif acyclic:
            self._compute_levels()

    def _compute_levels(self) -> None:
        # level(S) = longest path starting at S in the IG, plus one.
        levels: Dict[str, int] = {}
        order = self._invocation_graph.topological_sort()
        for sname in reversed(order):
            succ = self._invocation_graph.successors(sname)
            levels[sname] = 1 + max((levels[c] for c in succ), default=0)
        self._levels = levels
        self._at_level = {}
        self._order = max(levels.values())

    def _validate_order_propagation(self) -> None:
        """Def. 4.7: raise on the first missing input-order propagation.

        The checks live in :meth:`iter_order_propagation_violations` so
        the lint layer reports exactly what the constructor enforces.
        """
        for violation in self.iter_order_propagation_violations():
            raise violation

    def iter_order_propagation_violations(self) -> Iterator[OrderPropagationError]:
        """Yield every Def. 4.7 violation as a structured (unraised)
        :class:`OrderPropagationError`: a caller's output orders between
        two operations that are transactions of the *same* callee must
        appear as the callee's input orders.

        Row-wise: per caller, one bitmask per callee selects the caller
        operations that are that callee's transactions, and each such
        ``a`` visits only the bits of its output rows inside its
        callee's mask, so the membership probes are bounded by the
        ordered same-callee pairs, not by ``ops²``.  Both output orders
        are built over ``schedule.operations`` (bit ``j`` is
        ``operations[j]``), so violations come out by ``(a, b)`` in
        operation order, weak before strong for the same pair.
        """
        schedule_of_txn = self._schedule_of_txn
        for sname, schedule in self._schedules.items():
            ops = schedule.operations
            masks: Dict[str, int] = {}
            invoking: List[Tuple[int, str, str]] = []
            for i, a in enumerate(ops):
                sa = schedule_of_txn.get(a)
                if sa is not None:
                    masks[sa] = masks.get(sa, 0) | (1 << i)
                    invoking.append((i, a, sa))
            if not invoking:
                continue
            weak = schedule.weak_output
            strong = schedule.strong_output
            for i, a, sa in invoking:
                weak_row = weak.row_bits(a)
                strong_row = strong.row_bits(a)
                hits = (weak_row | strong_row) & masks[sa] & ~(1 << i)
                if not hits:
                    continue
                callee = self._schedules[sa]
                while hits:
                    low = hits & -hits
                    hits ^= low
                    b = ops[low.bit_length() - 1]
                    if weak_row & low and (a, b) not in callee.weak_input:
                        yield OrderPropagationError(
                            f"Def. 4.7 violated: {a} < {b} in the output of "
                            f"{sname!r} but {a} -> {b} missing from the "
                            f"input order of {sa!r}",
                            caller=sname,
                            callee=sa,
                            pair=(a, b),
                            kind="weak",
                        )
                    if strong_row & low and (a, b) not in callee.strong_input:
                        yield OrderPropagationError(
                            f"Def. 4.7 violated: {a} << {b} in the output of "
                            f"{sname!r} but {a} ->> {b} missing from the "
                            f"strong input order of {sa!r}",
                            caller=sname,
                            callee=sa,
                            pair=(a, b),
                            kind="strong",
                        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def schedules(self) -> Mapping[str, Schedule]:
        return dict(self._schedules)

    def schedule(self, name: str) -> Schedule:
        try:
            return self._schedules[name]
        except KeyError:
            raise ModelError(f"no schedule named {name!r}") from None

    @property
    def invocation_graph(self) -> Relation:
        """Def. 8: schedule-to-schedule invocation edges (acyclic)."""
        return self._invocation_graph.copy()

    @property
    def levels(self) -> Mapping[str, int]:
        """Def. 9: schedule name → level."""
        return dict(self._levels)

    def level_of(self, schedule_name: str) -> int:
        return self._levels[schedule_name]

    @property
    def order(self) -> int:
        """The order ``N`` of the system: the highest schedule level."""
        return self._order

    def schedules_at_level(self, level: int) -> Tuple[str, ...]:
        at = self._at_level.get(level)
        if at is None:
            at = self._at_level[level] = tuple(
                s for s, l in self._levels.items() if l == level
            )
        return at

    @property
    def roots(self) -> Tuple[str, ...]:
        """Def. 4.5: root transactions."""
        return self._roots

    @property
    def leaves(self) -> Tuple[str, ...]:
        """Def. 4.3: leaf operations."""
        return self._leaves

    @property
    def internal_nodes(self) -> Tuple[str, ...]:
        """Def. 4.4: transactions invoked as operations."""
        return self._internal

    # ------------------------------------------------------------------
    # node-level structure
    # ------------------------------------------------------------------
    def parent(self, node: str) -> str:
        """Def. 5: the parent transaction (roots are their own parent)."""
        try:
            return self._parent_of[node]
        except KeyError:
            raise ModelError(f"unknown node {node!r}") from None

    def is_root(self, node: str) -> bool:
        return self._parent_of.get(node) == node and node in self._schedule_of_txn

    def is_leaf(self, node: str) -> bool:
        return node in self._parent_of and node not in self._schedule_of_txn

    def is_transaction(self, node: str) -> bool:
        return node in self._schedule_of_txn

    def schedule_of_transaction(self, txn: str) -> str:
        """The unique schedule having ``txn`` among its transactions."""
        try:
            return self._schedule_of_txn[txn]
        except KeyError:
            raise ModelError(f"{txn!r} is not a transaction") from None

    def schedule_of_operation(self, node: str) -> Optional[str]:
        """The schedule that ``node`` is an *operation of* — i.e. the
        schedule owning ``parent(node)`` — or ``None`` for roots."""
        try:
            return self._op_schedule[node]
        except KeyError:
            raise ModelError(f"unknown node {node!r}") from None

    def common_schedule(self, a: str, b: str) -> Optional[str]:
        """The schedule both nodes are operations of, if any.

        This is the gate of Def. 10.2/Def. 11.1: when two nodes are
        operations of a common schedule, that schedule's own conflict
        predicate is authoritative.
        """
        table = self._op_schedule
        try:
            sa = table[a]
            return sa if sa is not None and sa == table[b] else None
        except KeyError as exc:
            raise ModelError(f"unknown node {exc.args[0]!r}") from None

    def conflicting(self, a: str, b: str) -> bool:
        """Schedule-local conflict between two nodes that are operations
        of a common schedule (``False`` otherwise; cross-schedule
        conflicts are the business of Def. 11, see
        :mod:`repro.core.conflicts`)."""
        shared = self.common_schedule(a, b)
        if shared is None:
            return False
        return self._schedules[shared].conflicting(a, b)

    # ------------------------------------------------------------------
    # execution trees (Def. 6)
    # ------------------------------------------------------------------
    def children(self, txn: str) -> Tuple[str, ...]:
        """The operations of transaction ``txn``."""
        schedule = self._schedules[self.schedule_of_transaction(txn)]
        return schedule.transaction(txn).operations

    def activity(self, txn: str) -> Set[str]:
        """``Act(T)``: every descendant node of ``txn`` (excluding it)."""
        seen: Set[str] = set()
        stack = list(self.children(txn))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if self.is_transaction(node):
                stack.extend(self.children(node))
        return seen

    def composite_transaction(self, root: str) -> Set[str]:
        """Def. 6: a root and all its descendants (the execution tree)."""
        if not self.is_root(root):
            raise ModelError(f"{root!r} is not a root transaction")
        tree = self.activity(root)
        tree.add(root)
        return tree

    def leaves_of(self, txn: str) -> Set[str]:
        """The leaf operations in the execution (sub)tree of ``txn``."""
        if self.is_leaf(txn):
            return {txn}
        return {n for n in self.activity(txn) if self.is_leaf(n)}

    def ancestors(self, node: str) -> List[str]:
        """Proper ancestors of ``node`` from parent up to its root."""
        chain: List[str] = []
        cursor = node
        while True:
            parent = self.parent(cursor)
            if parent == cursor:
                break
            chain.append(parent)
            cursor = parent
        return chain

    def root_of(self, node: str) -> str:
        """The root transaction of the execution tree containing ``node``."""
        chain = self.ancestors(node)
        return chain[-1] if chain else node

    def depth(self, node: str) -> int:
        """Distance from ``node`` to its root (root has depth 0)."""
        return len(self.ancestors(node))

    # ------------------------------------------------------------------
    # reduction support
    # ------------------------------------------------------------------
    def materialization_level(self, node: str) -> int:
        """The reduction step after which ``node`` exists as a front node:
        0 for leaves, ``level(S)`` for transactions of schedule ``S``."""
        if self.is_leaf(node):
            return 0
        return self._levels[self.schedule_of_transaction(node)]

    def grouping_level(self, node: str) -> Optional[int]:
        """The reduction step at which ``node`` is folded into its parent:
        ``level(schedule_of(parent))``; ``None`` for roots (kept to the
        end by Def. 16.5)."""
        parent = self.parent(node)
        if parent == node:
            return None
        return self._levels[self._schedule_of_txn[parent]]

    def all_nodes(self) -> Iterator[str]:
        """Every node: leaves, internal transactions and roots."""
        seen: Set[str] = set()
        for leaf in self._leaves:
            seen.add(leaf)
            yield leaf
        for schedule in self._schedules.values():
            for txn in schedule._transactions:
                if txn not in seen:
                    seen.add(txn)
                    yield txn

    def __repr__(self) -> str:
        return (
            f"CompositeSystem(order={self._order}, "
            f"schedules={list(self._schedules)}, roots={list(self._roots)})"
        )
