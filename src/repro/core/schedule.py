"""Schedules (Def. 3 of the paper).

A schedule abstracts one transactional component: the set of
transactions it executed, which of its operations conflict, the weak and
strong *input* orders it was asked to respect (between transactions),
and the weak and strong *output* orders it produced (between
operations).  Def. 3 constrains the outputs:

1. for conflicting operations ``o ∈ O_t``, ``o' ∈ O_t'`` of distinct
   transactions:
   (a) ``t → t'`` implies ``o ≺ o'``;
   (b) ``t' → t`` implies ``o' ≺ o``;
   (c) otherwise they must still be ordered one way or the other;
2. intra-transaction orders are honoured: (a) ``o ≺_t o'`` implies
   ``o ≺ o'`` and (b) ``o ≪_t o'`` implies ``o ≪ o'``;
3. a strong input order ``t ↠ t'`` sequences *every* operation pair
   across the two transactions strongly;
4. ``≪ ⊆ ≺``.

The key subtlety (and the source of the extra parallelism the model
offers): *weak orders propagate only through conflicts*.  A schedule
that knows two operations commute may execute them in either order no
matter how their parent transactions were weakly ordered.

A ``Schedule`` records one concrete (already happened or simulated)
behaviour; it is the static input to the Comp-C checker.
"""

from __future__ import annotations

from itertools import islice
from typing import (
    AbstractSet,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.orders import Relation, closed_orders
from repro.core.transaction import Transaction
from repro.exceptions import (
    CycleError,
    ModelError,
    Report,
    ScheduleAxiomError,
    report_or_raise,
)

# Shared empty adjacency row for operations with no declared conflicts.
_NO_NEIGHBOURS: FrozenSet[str] = frozenset()

# The orders of a schedule with nothing declared yet (only ever grown).
_NO_ORDER = Relation()

ConflictPair = FrozenSet[str]

#: The ``mode`` of a recorded execution sequence (see
#: :meth:`repro.core.builder.SystemBuilder.executed`).
EXECUTION_MODES = ("conflicts", "temporal")


def execution_mode_error(schedule: str, mode: object) -> Optional[ModelError]:
    """Why ``mode`` is no execution mode for ``schedule``, or ``None``."""
    if mode in EXECUTION_MODES:
        return None
    return ModelError(
        f"unknown execution mode {mode!r} on schedule {schedule!r}",
        schedule=schedule,
        hint="use 'conflicts' or 'temporal'",
    )


def execution_pairs(
    sequence: Sequence[str],
    mode: str,
    conflicts: Iterable[Tuple[str, str]],
) -> List[Tuple[str, str]]:
    """The weak-output pairs a recorded execution ``sequence`` commits:
    the whole sequence in ``"temporal"`` mode, else each conflict
    between two of its operations, in the order they ran."""
    if mode == "temporal":
        return list(zip(sequence, sequence[1:]))
    position = {op: i for i, op in enumerate(sequence)}
    return [
        (a, b) if position[a] < position[b] else (b, a)
        for a, b in conflicts
        if a in position and b in position
    ]


def listing_mismatch(
    operations: Collection[str], sequence: Sequence[str]
) -> Optional[Tuple[List[str], List[str]]]:
    """``(missing, extra)``, each sorted, when ``sequence`` does not
    list each of ``operations`` exactly once; ``None`` when it does."""
    declared = set(operations)
    listed = set(sequence)
    if listed == declared and len(sequence) == len(declared):
        return None
    return sorted(declared - listed), sorted(listed - declared)


def executed_sequence_error(
    schedule: str, sequence: Sequence[str], operations: Collection[str]
) -> Optional[ModelError]:
    """Why the recorded execution ``sequence`` of ``schedule`` does not
    fit its declared ``operations`` (CTX302, its nodes the missing and
    the extra ones), or ``None`` when it lists each exactly once."""
    mismatch = listing_mismatch(operations, sequence)
    if mismatch is None:
        return None
    missing, extra = mismatch
    return ModelError(
        f"execution sequence of {schedule!r} does not match the declared "
        f"operations (missing={missing}, extra={extra})",
        code="CTX302",
        schedule=schedule,
        nodes=missing + extra,
        hint="the sequence must list every declared operation exactly once",
    )


def _grown(
    weak: Relation, strong: Relation, elements: List[str]
) -> Tuple[Relation, Relation]:
    """Copies of a schedule's ``(weak, strong)`` orders with
    ``elements`` appended to their carrier, for
    :func:`~repro.core.orders.closed_orders` to grow."""
    grown = weak.grown(elements)
    return grown, grown.copy() if strong is weak else strong.grown(elements)


class Schedule:
    """One component's recorded behaviour (Def. 3).

    Without ``report`` the first violation of Def. 3's well-formedness
    raises :class:`ModelError`; with it, each is reported and the
    schedule keeps what is usable (see
    :func:`repro.exceptions.report_or_raise`).  The axioms are checked
    only when ``validate`` is true.
    """

    def __init__(
        self,
        name: str,
        transactions: Sequence[Transaction],
        *,
        conflicts: Iterable[Tuple[str, str]] = (),
        weak_input: Iterable[Tuple[str, str]] = (),
        strong_input: Iterable[Tuple[str, str]] = (),
        weak_output: Iterable[Tuple[str, str]] = (),
        strong_output: Iterable[Tuple[str, str]] = (),
        validate: bool = True,
        report: Optional[Report] = None,
    ) -> None:
        if not name:
            report_or_raise(
                report, ModelError("schedule name must be non-empty")
            )
        self.name = name
        # A new schedule is the empty one grown by every declaration.
        self._transactions: Dict[str, Transaction] = {}
        self._owner_of: Dict[str, str] = {}
        # The conflict set and its adjacency view: `conflicting` sits on
        # the observed-order and constraint hot paths, and a per-call
        # frozenset construction dominated it.
        self._conflicts: Set[ConflictPair] = set()
        self._conflict_adj: Dict[str, Set[str]] = {}
        self._weak_input = self._strong_input = _NO_ORDER
        self._weak_output = self._strong_output = _NO_ORDER
        self._declare(
            transactions,
            conflicts,
            weak_input,
            strong_input,
            weak_output,
            strong_output,
            report,
        )
        if validate:
            self.validate_axioms()

    def extended(
        self,
        transactions: Sequence[Transaction],
        *,
        conflicts: Iterable[Tuple[str, str]] = (),
        weak_input: Iterable[Tuple[str, str]] = (),
        strong_input: Iterable[Tuple[str, str]] = (),
        weak_output: Iterable[Tuple[str, str]] = (),
        strong_output: Iterable[Tuple[str, str]] = (),
    ) -> Optional["Schedule"]:
        """This schedule grown by more declarations, as
        :class:`Schedule` would construct it from all of them, or
        ``None`` when they break Def. 3's well-formedness (a cyclic
        order, an unknown or repeated name): construct it from scratch
        then to have the violation raised as such.

        This schedule is left as it is.  Its closed orders are copied,
        the new transactions and operations appended to their carriers
        in declaration order (so every element order is the one a
        construction from scratch gives) and the new pairs closed in.
        The axioms are not checked (see :meth:`validate_axioms`).
        """
        grown = Schedule.__new__(Schedule)
        grown.name = self.name
        grown._transactions = dict(self._transactions)
        grown._owner_of = dict(self._owner_of)
        grown._conflicts = set(self._conflicts)
        # The adjacency rows are shared until a new conflict touches one.
        conflicts = list(conflicts)
        adj = grown._conflict_adj = dict(self._conflict_adj)
        for pair in conflicts:
            for op in pair:
                row = adj.get(op)
                if row is not None and row is self._conflict_adj.get(op):
                    adj[op] = set(row)
        grown._weak_input = self._weak_input
        grown._strong_input = self._strong_input
        grown._weak_output = self._weak_output
        grown._strong_output = self._strong_output
        try:
            grown._declare(
                transactions,
                conflicts,
                weak_input,
                strong_input,
                weak_output,
                strong_output,
                None,
            )
        except ModelError:
            return None
        return grown

    def _declare(
        self,
        transactions: Sequence[Transaction],
        conflicts: Iterable[Tuple[str, str]],
        weak_input: Iterable[Tuple[str, str]],
        strong_input: Iterable[Tuple[str, str]],
        weak_output: Iterable[Tuple[str, str]],
        strong_output: Iterable[Tuple[str, str]],
        report: Optional[Report],
    ) -> None:
        """The one construction body: add the declarations to this
        schedule's.  The containers are this schedule's own (the
        conflict rows it adds to included); the orders are replaced,
        never changed in place."""
        name = self.name
        txns, ops = len(self._transactions), len(self._owner_of)
        for txn in transactions:
            if txn.name in self._transactions:
                report_or_raise(
                    report,
                    ModelError(
                        f"schedule {name!r} lists transaction {txn.name!r} "
                        "twice",
                        code="CTX202",
                        schedule=name,
                        nodes=(txn.name,),
                    ),
                )
                continue
            self._transactions[txn.name] = txn
            for op in txn.operations:
                if op in self._owner_of:
                    report_or_raise(
                        report,
                        ModelError(
                            f"operation {op!r} belongs to two transactions "
                            f"({self._owner_of[op]!r} and {txn.name!r}) of "
                            f"schedule {name!r}",
                            code="CTX203",
                            schedule=name,
                            nodes=(op,),
                            hint="operation names must be globally unique",
                        ),
                    )
                    continue
                self._owner_of[op] = txn.name

        owner_of = self._owner_of
        for a, b in conflicts:
            if a != b and a in owner_of and b in owner_of:
                pair: ConflictPair = frozenset((a, b))
                if pair not in self._conflicts:
                    self._conflicts.add(pair)
                    self._conflict_adj.setdefault(a, set()).add(b)
                    self._conflict_adj.setdefault(b, set()).add(a)
                    continue
            self._drop_conflict(a, b, report)

        new_txns = list(islice(self._transactions, txns, None))
        new_ops = list(islice(self._owner_of, ops, None))

        self._weak_input, self._strong_input, input_cycle = closed_orders(
            *_grown(self._weak_input, self._strong_input, new_txns),
            strong_input,
            weak_input,
            self._not_transaction,
            report,
        )
        self._weak_output, self._strong_output, output_cycle = closed_orders(
            *_grown(self._weak_output, self._strong_output, new_ops),
            strong_output,
            weak_output,
            self._not_operation,
            report,
        )
        for cycle, label, code in (
            (input_cycle, "input", "CTX114"),
            (output_cycle, "output", "CTX115"),
        ):
            if cycle is not None:
                report_or_raise(
                    report,
                    CycleError(
                        f"weak {label} order of {name!r} is cyclic",
                        cycle,
                        code=code,
                        schedule=name,
                        hint=f"{label} orders must be strict partial orders",
                    ),
                )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _drop_conflict(self, a: str, b: str, report: Optional[Report]) -> None:
        """Why the declared ``CON(a, b)`` is not kept: a self-conflict,
        an end that is no operation of this schedule, or a repeat (a
        warning that only a collecting construction reports)."""
        if a != b and a in self._owner_of and b in self._owner_of:
            if report is not None:
                report(
                    ModelError(
                        f"conflict pair ({a!r}, {b!r}) declared twice on "
                        f"schedule {self.name!r}",
                        code="CTX111",
                        schedule=self.name,
                        nodes=(a, b),
                        hint="drop the duplicate declaration",
                    )
                )
        elif a == b:
            report_or_raise(
                report,
                ModelError(
                    f"operation {a!r} cannot conflict with itself",
                    code="CTX110",
                    schedule=self.name,
                    nodes=(a,),
                    hint="conflicts relate two distinct operations",
                ),
            )
        else:
            for op in (a, b):
                if op not in self._owner_of:
                    report_or_raise(
                        report,
                        ModelError(
                            f"conflict on {op!r} which is not an operation "
                            f"of schedule {self.name!r}",
                            code="CTX112",
                            schedule=self.name,
                            nodes=(op,),
                            hint="conflicts may only name declared operations",
                        ),
                    )

    def _not_transaction(self, t: object, kind: str) -> ModelError:
        return ModelError(
            f"{kind} input order of schedule {self.name!r} mentions "
            f"{t!r}, which is not one of its transactions",
            code="CTX113",
            schedule=self.name,
            nodes=(str(t),),
            hint="input orders relate the schedule's own transactions",
        )

    def _not_operation(self, o: object, kind: str) -> ModelError:
        return ModelError(
            f"{kind} output order of schedule {self.name!r} mentions "
            f"{o!r}, which is not one of its operations",
            code="CTX113",
            schedule=self.name,
            nodes=(str(o),),
            hint="output orders relate the schedule's own operations",
        )

    @classmethod
    def from_sequence(
        cls,
        name: str,
        transactions: Sequence[Transaction],
        execution: Sequence[str],
        *,
        conflicts: Iterable[Tuple[str, str]] = (),
        weak_input: Iterable[Tuple[str, str]] = (),
        strong_input: Iterable[Tuple[str, str]] = (),
        validate: bool = True,
        mode: str = "conflicts",
    ) -> "Schedule":
        """Build a schedule from an execution sequence.

        With ``mode="conflicts"`` (default) only conflicting pairs of the
        sequence are committed to the weak output order — the paper's
        reading of Def. 3, under which weak orders between commuting
        operations "disappear".  ``mode="temporal"`` commits the whole
        sequence.  Intra-transaction weak orders are always included
        (axiom 2a requires them).

        The strong output order is left minimal (only what axioms 2b/3
        force is added via intra-transaction strong orders or strong
        inputs; pure interleaved histories have no incidental strong
        sequencing).
        """
        ops = [op for txn in transactions for op in txn.operations]
        for error in (
            execution_mode_error(name, mode),
            executed_sequence_error(name, execution, ops),
        ):
            if error is not None:
                raise error
        # A conflict the constructor drops is its to report.
        weak_output = execution_pairs(execution, mode, conflicts)
        # Intra-transaction weak orders (axiom 2a) must surface in the
        # weak output regardless of mode.
        for txn in transactions:
            weak_output.extend(txn.weak_order.pairs())
        # Strong obligations from strong inputs / intra strong orders are
        # honoured automatically because the sequence is total; emit the
        # required strong output pairs so axiom 2b/3 validation passes.
        strong_pairs: List[Tuple[str, str]] = []
        position = {op: i for i, op in enumerate(execution)}
        strong_in = Relation()
        strong_in.add_all(strong_input)
        strong_in = strong_in.transitive_closure()
        by_name = {txn.name: txn for txn in transactions}
        for txn in transactions:
            for a, b in txn.strong_order.pairs():
                strong_pairs.append((a, b) if position[a] < position[b] else (b, a))
        for t, t2 in strong_in.pairs():
            for a in by_name[t].operations:
                for b in by_name[t2].operations:
                    strong_pairs.append((a, b))
        return cls(
            name,
            transactions,
            conflicts=conflicts,
            weak_input=weak_input,
            strong_input=strong_input,
            weak_output=weak_output,
            strong_output=strong_pairs,
            validate=validate,
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def transactions(self) -> Mapping[str, Transaction]:
        """``T_S`` keyed by transaction name."""
        return dict(self._transactions)

    def transaction(self, name: str) -> Transaction:
        """The transaction ``name`` of ``T_S`` (a lookup: the
        :attr:`transactions` mapping is a copy)."""
        return self._transactions[name]

    @property
    def transaction_names(self) -> Tuple[str, ...]:
        return tuple(self._transactions)

    @property
    def operations(self) -> Tuple[str, ...]:
        """``O_S`` — every operation of every transaction of this schedule."""
        return tuple(self._owner_of)

    @property
    def conflicts(self) -> Set[ConflictPair]:
        """The symmetric conflict predicate ``CON_S`` as a pair set."""
        return set(self._conflicts)

    @property
    def weak_input(self) -> Relation:
        """``→`` over ``T_S`` (transitively closed, includes strong input)."""
        return self._weak_input

    @property
    def strong_input(self) -> Relation:
        """``↠`` over ``T_S`` (transitively closed)."""
        return self._strong_input

    @property
    def weak_output(self) -> Relation:
        """``≺`` over ``O_S`` (transitively closed, includes strong output)."""
        return self._weak_output

    @property
    def strong_output(self) -> Relation:
        """``≪`` over ``O_S`` (transitively closed)."""
        return self._strong_output

    def transaction_of(self, op: str) -> str:
        """The (schedule-local) transaction owning ``op``."""
        try:
            return self._owner_of[op]
        except KeyError:
            raise ModelError(
                f"{op!r} is not an operation of schedule {self.name!r}"
            ) from None

    def conflicting(self, a: str, b: str) -> bool:
        """``CON_S(a, b)`` — symmetric, irreflexive."""
        adj = self._conflict_adj.get(a)
        return adj is not None and b in adj

    def conflict_neighbours(self, op: str) -> "AbstractSet[str]":
        """All operations ``b`` with ``CON_S(op, b)`` — the whole-row
        form of :meth:`conflicting`, used by the bitset kernels to gate
        an entire successor row with one mask intersection."""
        return self._conflict_adj.get(op, _NO_NEIGHBOURS)

    def __repr__(self) -> str:
        return (
            f"Schedule({self.name!r}, txns={list(self._transactions)}, "
            f"{len(self._conflicts)} conflicts)"
        )

    # ------------------------------------------------------------------
    # Def. 3 axioms
    # ------------------------------------------------------------------
    def validate_axioms(self) -> None:
        """Raise :class:`ScheduleAxiomError` on the first violated axiom.

        The engine's fail-fast entry point.  The checks themselves live
        in :meth:`iter_axiom_violations` so the lint layer collects the
        *same* violations the constructor would raise — the two can
        never disagree.
        """
        for violation in self.iter_axiom_violations():
            raise violation

    def iter_axiom_violations(self) -> Iterator[ScheduleAxiomError]:
        """Yield every Def. 3 axiom violation as a structured
        (unraised) :class:`ScheduleAxiomError`, in axiom order.

        Axiom 1 is decided on the output rows first
        (:meth:`_axiom1_holds`); the sorted per-pair walk below runs
        only to word the violations of a schedule that breaks it."""
        axiom1 = () if self._axiom1_holds() else sorted(self._conflicts, key=sorted)
        for pair in axiom1:
            a, b = sorted(pair)
            ta, tb = self._owner_of[a], self._owner_of[b]
            if ta == tb:
                continue  # axiom 1 quantifies over distinct transactions
            if (ta, tb) in self._weak_input:
                if (a, b) not in self._weak_output:
                    yield ScheduleAxiomError(
                        "1a",
                        f"{self.name}: {ta} -> {tb} but conflicting "
                        f"{a},{b} not weakly ordered {a} < {b}",
                        schedule=self.name,
                        operations=(a, b),
                        transactions=(ta, tb),
                    )
            elif (tb, ta) in self._weak_input:
                if (b, a) not in self._weak_output:
                    yield ScheduleAxiomError(
                        "1b",
                        f"{self.name}: {tb} -> {ta} but conflicting "
                        f"{b},{a} not weakly ordered {b} < {a}",
                        schedule=self.name,
                        operations=(b, a),
                        transactions=(tb, ta),
                    )
            elif not self._weak_output.orders(a, b):
                yield ScheduleAxiomError(
                    "1c",
                    f"{self.name}: conflicting operations {a},{b} of "
                    "unordered transactions are not output-ordered",
                    schedule=self.name,
                    operations=(a, b),
                    transactions=(ta, tb),
                )
        for txn in self._transactions.values():
            if not txn.ordered:
                continue
            for a, b in txn.weak_order.missing_pairs(self._weak_output):
                yield ScheduleAxiomError(
                    "2a",
                    f"{self.name}: intra order {a} < {b} of {txn.name} "
                    "not reflected in the weak output order",
                    schedule=self.name,
                    operations=(a, b),
                    transactions=(txn.name,),
                )
            for a, b in txn.strong_order.missing_pairs(self._strong_output):
                yield ScheduleAxiomError(
                    "2b",
                    f"{self.name}: strong intra order {a} << {b} of "
                    f"{txn.name} not reflected in the strong output",
                    schedule=self.name,
                    operations=(a, b),
                    transactions=(txn.name,),
                )
        for t, t2 in self._strong_input.pairs():
            for a in self._transactions[t].operations:
                for b in self._transactions[t2].operations:
                    if (a, b) not in self._strong_output:
                        yield ScheduleAxiomError(
                            "3",
                            f"{self.name}: {t} >> {t2} but {a} << {b} "
                            "missing from the strong output order",
                            schedule=self.name,
                            operations=(a, b),
                            transactions=(t, t2),
                        )
        # Axiom 4 (strong ⊆ weak) holds by construction, but re-check so a
        # future refactor cannot silently break it.  Row-wise: one
        # AND-NOT per element instead of a membership test per pair.
        for a, b in self._strong_output.missing_pairs(self._weak_output):
            yield ScheduleAxiomError(
                "4",
                f"{self.name}: {a} << {b} but not {a} < {b}",
                schedule=self.name,
                operations=(a, b),
            )

    def _axiom1_holds(self) -> bool:
        """Decide Def. 3 axiom 1 on the rows, with no sort and no
        violation built.

        The weak output is acyclic, so each conflicting pair is ordered
        one way, or not at all.  An ordered pair ``a ≺ b`` breaks the
        axiom only when ``b``'s transaction precedes ``a``'s in the weak
        input (1a or 1b); an unordered one when its operations belong
        to distinct transactions (1a, 1b or 1c alike).
        """
        out = self._weak_output
        rows = out._rows
        index = out._index
        owner = self._owner_of
        inputs = self._weak_input
        input_rows = inputs._rows
        input_index = inputs._index
        ordered_inputs = bool(inputs)
        for a, b in self._conflicts:
            i = index[a]
            j = index[b]
            if (rows[i] >> j) & 1:
                first, then = a, b
            elif (rows[j] >> i) & 1:
                first, then = b, a
            elif owner[a] != owner[b]:
                return False
            else:
                continue
            if ordered_inputs and (
                input_rows[input_index[owner[then]]]
                >> input_index[owner[first]]
            ) & 1:
                return False
        return True

    # ------------------------------------------------------------------
    # per-schedule conflict consistency (used by SCC / FCC / JCC)
    # ------------------------------------------------------------------
    def serialization_order(self) -> Relation:
        """The serialization (observed) order over ``T_S``: ``t ⇝ t'``
        whenever some operation of ``t`` precedes a conflicting operation
        of ``t'`` in the weak output order."""
        order = Relation(elements=self._transactions)
        for pair in self._conflicts:
            a, b = sorted(pair)
            ta, tb = self._owner_of[a], self._owner_of[b]
            if ta == tb:
                continue
            if (a, b) in self._weak_output:
                order.add(ta, tb)
            if (b, a) in self._weak_output:
                order.add(tb, ta)
        return order

    def is_conflict_consistent(self) -> bool:
        """Conflict consistency of a single schedule: the union of its
        serialization order and its weak input order is acyclic.

        This is the building block of SCC (Def. 22), FCC (Def. 24) and
        JCC (Def. 27); Def. 13 is the front-level generalization.
        """
        return self.consistency_violation() is None

    def consistency_violation(self) -> Optional[List[str]]:
        """A witness cycle for CC failure, or ``None`` if consistent."""
        return self.serialization_order().union(self._weak_input).find_cycle()

    def serializable_total_order(self) -> List[str]:
        """A serial transaction order compatible with the serialization
        and input orders.  Raises :class:`CycleError` when not CC."""
        combined = self.serialization_order().union(self._weak_input)
        return combined.topological_sort()
