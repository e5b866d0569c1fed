"""Transactions (Def. 2 of the paper).

A transaction is a triple ``(O_t, ≺_t, ≪_t)``: a finite set of
operations together with a weak and a strong intra-transaction order,
with ``≪_t ⊆ ≺_t``.  Operation names are plain strings; whether a name
denotes an elementary (leaf) operation or a subtransaction executed by
another schedule is a property of the *composite system* (Def. 4), not
of the transaction itself — the same ``Transaction`` object works in
both roles.

Strong intra-order means strict temporal sequencing ("must complete
before the next starts"); weak intra-order means the *net effect* must
be as if sequential (data flows in order), which still admits concurrent
execution of non-conflicting pieces (Def. 1).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.orders import Relation, closed_orders
from repro.exceptions import CycleError, ModelError, Report, report_or_raise


def _distinct_operations(
    name: str, ops: Tuple[str, ...], report: Optional[Report]
) -> Tuple[str, ...]:
    """``ops`` without the repeats and without ``name`` itself, each
    one a Def.-2 violation: ``O_t`` is a set of the transaction's
    subordinate operations."""
    kept: List[str] = []
    for op in ops:
        if op in kept:
            message = f"transaction {name!r} lists operation {op!r} twice"
            nodes: Tuple[str, ...] = (op, name)
            hint: Optional[str] = "list each operation once"
        elif op == name:
            message = f"transaction {name!r} cannot contain itself"
            nodes, hint = (name,), None
        else:
            kept.append(op)
            continue
        report_or_raise(
            report, ModelError(message, code="CTX203", nodes=nodes, hint=hint)
        )
    return tuple(kept)


class Transaction:
    """An immutable Def.-2 transaction.

    Parameters
    ----------
    name:
        Globally unique transaction name.
    operations:
        The operation names of ``O_t`` (order of mention is kept for
        display but carries no semantics).
    weak_order:
        Pairs ``(a, b)`` asserting ``a ≺_t b``.
    strong_order:
        Pairs ``(a, b)`` asserting ``a ≪_t b``.  Automatically included
        in the weak order (the paper requires ``≪_t ⊆ ≺_t``).
    sequential:
        Convenience flag: when true, the mention order of ``operations``
        becomes a total *strong* order (a fully sequential program).
    report:
        Without it, the first Def.-2 violation raises
        :class:`ModelError`; with it, each is reported and the
        transaction keeps what is usable: every operation once, the
        pairs over its operations, and no order at all if they are
        cyclic (see :func:`repro.exceptions.report_or_raise`).
    """

    __slots__ = ("name", "_operations", "_weak", "_strong")

    def __init__(
        self,
        name: str,
        operations: Sequence[str],
        weak_order: Iterable[Tuple[str, str]] = (),
        strong_order: Iterable[Tuple[str, str]] = (),
        *,
        sequential: bool = False,
        report: Optional[Report] = None,
    ) -> None:
        if not name:
            report_or_raise(
                report, ModelError("transaction name must be non-empty")
            )
        ops = tuple(operations)
        if len(set(ops)) != len(ops) or name in ops:
            ops = _distinct_operations(name, ops, report)
        self.name = name
        self._operations = ops
        # An order-free transaction cannot be cyclic: its two empty
        # relations are built on first read (most documents declare no
        # intra order at all, so most never are).
        self._weak: Optional[Relation] = None
        self._strong: Optional[Relation] = None
        strong_pairs = list(zip(ops, ops[1:])) if sequential else []
        strong_pairs.extend(strong_order)
        weak_pairs = list(weak_order)
        if not (strong_pairs or weak_pairs):
            return
        weak, strong, cycle = closed_orders(
            Relation(elements=ops),
            Relation(elements=ops),
            strong_pairs,
            weak_pairs,
            self._not_member,
            report,
        )
        if cycle is not None:
            report_or_raise(
                report,
                CycleError(
                    f"intra-transaction order of {name!r} is cyclic",
                    cycle,
                    code="CTX115",
                    hint="intra-transaction orders must be acyclic",
                ),
            )
            return
        self._weak = weak
        self._strong = strong

    def _not_member(self, op: object, kind: str) -> ModelError:
        return ModelError(
            f"operation {op!r} ordered by transaction {self.name!r} "
            "but not in its operation set",
            code="CTX113",
            nodes=(str(op), self.name),
            hint="order only declared operations",
        )

    # ------------------------------------------------------------------
    @property
    def operations(self) -> Tuple[str, ...]:
        """``O_t`` in mention order."""
        return self._operations

    @property
    def ordered(self) -> bool:
        """True iff ``≺_t`` relates some pair.  An order-free
        transaction contributes nothing to Def. 3 axiom 2 or to the
        Def.-14 intra-order constraints, so those loops skip it."""
        return bool(self._weak)

    @property
    def weak_order(self) -> Relation:
        """``≺_t``, transitively closed."""
        weak = self._weak
        if weak is None:
            weak = self._weak = Relation(elements=self._operations)
        return weak

    @property
    def strong_order(self) -> Relation:
        """``≪_t``, transitively closed (always ``⊆ weak_order``)."""
        strong = self._strong
        if strong is None:
            strong = self._strong = Relation(elements=self._operations)
        return strong

    def weakly_ordered(self, a: str, b: str) -> bool:
        """True iff ``a ≺_t b``."""
        return (a, b) in self.weak_order

    def strongly_ordered(self, a: str, b: str) -> bool:
        """True iff ``a ≪_t b``."""
        return (a, b) in self.strong_order

    def is_sequential(self) -> bool:
        """True iff the strong order is total over the operations."""
        return self.strong_order.is_total_over(self._operations)

    def __len__(self) -> int:
        return len(self._operations)

    def __repr__(self) -> str:
        return f"Transaction({self.name!r}, ops={list(self._operations)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transaction):
            return NotImplemented
        return (
            self.name == other.name
            and self._operations == other._operations
            and self.weak_order == other.weak_order
            and self.strong_order == other.strong_order
        )

    def __hash__(self) -> int:
        return hash((self.name, self._operations))
