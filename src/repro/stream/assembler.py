"""Fold a typed event stream into the committed composite system.

The assembler is the state machine between the wire format
(:mod:`repro.io.eventlog`) and the model layer: it stages declarations
under their roots, tracks root lifecycle (begin / commit / abort), and
materializes the committed composite system on demand.

Two build paths share one activation rule:

:meth:`StreamAssembler.build`
    replays every activated declaration — in original arrival order —
    through a fresh :class:`~repro.core.builder.SystemBuilder`.
    Replaying in arrival order is what makes the streaming path
    byte-compatible with the batch path: the builder interns
    schedules, transactions and operations in call order, so a log
    produced by :func:`repro.io.eventlog.events_from_recorded`
    reassembles into a system whose element orders (and hence every
    packed-bitset ``Relation``, witness, and telemetry byte
    downstream) are identical to the original's.  ``finalize`` uses
    this path, so the certified verdict stays byte-pinned.

:meth:`StreamAssembler.build_incremental`
    maintains one *persistent* builder across commits and only feeds
    it the declarations each commit newly activated, making
    per-commit assembly cost O(changes) instead of O(all
    declarations): staged ``conflict``/``order`` declarations wait
    under a node whose root has not committed, so a commit visits only
    those waiting on its own nodes, and the builder grows its last
    build by them (see :meth:`~repro.core.builder.SystemBuilder.build`).
    The result saves to the same :func:`~repro.io.text_format.dumps`
    document as a full rebuild and gets the same verdict, though not
    always with the same element order: the persistent builder meets
    a schedule when its first declaration activates, the full rebuild
    in declaration order, so the two may list the schedules (and the
    internal nodes grouped by schedule) differently — ``dumps`` sorts
    both away.  Within a schedule the order is the same, because a
    :class:`~repro.core.schedule.Schedule` lists its relation carriers
    in transaction order — pair *sets* are order-insensitive — so only
    the per-schedule transaction application order matters, and that
    is guarded: a transaction
    activating *out of declaration order* within its schedule (a
    later-staged transaction committing first) triggers one full
    rebuild of the persistent builder, after which incremental
    appends resume.  Logs laid out by
    :func:`~repro.io.eventlog.events_from_recorded` (and its
    :func:`~repro.io.eventlog.interleave_by_commit` live re-layout)
    activate in declaration order per schedule, so the guard never
    fires on them.  Temporal-derive logs always take the full
    rebuild: later commits splice arrivals *into* earlier sequences,
    so nothing about them is append-only, and every operation of a
    committed root needs an arrival to be placed.

Activation rule: a ``txn`` declaration folds in when its root commits;
a ``conflict``/``order`` declaration folds in once *every* node it
mentions belongs to a committed root.  Because declarations only ever
activate (commits are permanent; aborts discard whole staged roots
before they commit), the committed system grows monotonically — the
property the checker's incremental observed order relies on, and the
reason the persistent builder never has to *remove* anything.

Declarations carry stable monotone integer ids (list positions shift
when an abort discards a staged root; ids never do), which is what the
persistent builder's applied set and per-schedule watermark key on.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.builder import SystemBuilder
from repro.exceptions import StreamError
from repro.io.eventlog import Event
from repro.io.recorded import RecordedExecution

__all__ = ["CommitDelta", "StreamAssembler"]


@dataclass(frozen=True)
class CommitDelta:
    """What a ``commit`` event added to the committed system."""

    root: str
    ordinal: int
    txns: Tuple[str, ...]


#: One staged declaration: its stable id and its ``txn``,
#: ``conflict`` or ``order`` event.
_Decl = Tuple[int, Event]


class StreamAssembler:
    """Incremental event-log consumer (see module docstring)."""

    def __init__(self) -> None:
        self.derive: Optional[str] = None
        #: staged declarations by id (ids grow, so in declaration order)
        self._decls: Dict[int, Event] = {}
        self._next_decl = 0
        self._root_of: Dict[str, str] = {}
        #: root -> its staged ``txn`` declarations, in declaration order
        self._txns_of: Dict[str, List[_Decl]] = {}
        #: operation -> the transaction that declares it
        self._txn_of_op: Dict[str, str] = {}
        #: node -> the ``conflict``/``order`` declarations waiting for
        #: its root to commit (each waits on one node at a time)
        self._waiting: Dict[str, List[_Decl]] = {}
        #: declarations activated since the persistent builder last
        #: took them
        self._ready: List[_Decl] = []
        self._committed: Set[str] = set()
        self._begun: Set[str] = set()
        self._commit_order: List[str] = []
        #: root -> the ``access``/``call`` events of its current attempt,
        #: each with its arrival index
        self._arrived: Dict[str, List[Tuple[int, Event]]] = {}
        self._next_arrival = 0
        #: schedule -> the arrivals of committed roots, in arrival order
        self._lanes: Dict[str, _Lane] = {}
        self._ended = False
        # -- persistent-builder state (build_incremental) --------------
        #: the maintained builder; ``None`` means "start a fresh one on
        #: next use" (nothing applied yet, or invalidated by an
        #: out-of-order activation)
        self._builder: Optional[SystemBuilder] = None
        #: declarations fed to the builder so far
        self._applied = 0
        #: per schedule, the largest txn decl id applied — the
        #: byte-identity guard (see module docstring)
        self._txn_watermark: Dict[str, int] = {}
        #: commits the persistent builder has taken in
        self._built_commits = 0
        #: full rebuilds forced by out-of-order activation
        self.rebuilds = 0
        #: whether the last :meth:`build_incremental` activated a
        #: conflict between operations of roots committed before it
        self.late_conflict = False
        self._cache: Optional[Tuple[Tuple[int, int], RecordedExecution]] = (
            None
        )

    # ------------------------------------------------------------------
    @property
    def committed_roots(self) -> Tuple[str, ...]:
        return tuple(self._commit_order)

    @property
    def ended(self) -> bool:
        return self._ended

    # ------------------------------------------------------------------
    def apply(self, event: Event) -> Optional[CommitDelta]:
        """Consume one event; returns a delta for ``commit`` events."""
        if self._ended:
            raise StreamError(
                f"event {event.kind!r} after the end of stream"
            )
        if self.derive is None and event.kind != "log":
            raise StreamError(
                f"event {event.kind!r} before the 'log' header"
            )
        return _HANDLERS[event.kind](self, event)

    def _stage(self, event: Event) -> _Decl:
        decl = (self._next_decl, event)
        self._decls[self._next_decl] = event
        self._next_decl += 1
        return decl

    def _apply_log(self, event: Event) -> None:
        if self.derive is not None:
            raise StreamError("duplicate 'log' header")
        self.derive = event.derive

    def _apply_txn(self, event: Event) -> None:
        assert event.root is not None and event.txn is not None
        known = self._root_of.get(event.txn)
        if known is not None and known != event.root:
            raise StreamError(
                f"transaction {event.txn!r} declared under two roots "
                f"({known!r} and {event.root!r})"
            )
        if event.root in self._committed:
            raise StreamError(
                f"declaration for already-committed root {event.root!r}"
            )
        self._root_of[event.txn] = event.root
        for op in event.ops:
            self._root_of[op] = event.root
            self._txn_of_op[op] = event.txn
        self._txns_of.setdefault(event.root, []).append(self._stage(event))

    def _apply_pair(self, event: Event) -> None:
        """A ``conflict`` or ``order`` declaration."""
        self._wait((self._stage(event),))

    def _apply_begin(self, event: Event) -> None:
        assert event.root is not None
        if event.root in self._committed:
            raise StreamError(
                f"begin of already-committed root {event.root!r}"
            )
        if event.root in self._begun:
            # A retry: the previous (unfinished) attempt is discarded,
            # recorder-style.  Declarations staged *before* the first
            # begin (the converter's layout) are untouched.
            self._discard_root(event.root)
        self._begun.add(event.root)

    def _apply_arrival(self, event: Event) -> None:
        """An ``access`` or ``call`` event, kept as its own arrival
        record: it names the schedule, root, operation, item and
        mode."""
        assert (
            event.root is not None
            and event.schedule is not None
            and event.op is not None
        )
        if event.root in self._committed:
            raise StreamError(
                f"operation {event.op!r} for already-committed root "
                f"{event.root!r}"
            )
        self._arrived.setdefault(event.root, []).append(
            (self._next_arrival, event)
        )
        self._next_arrival += 1

    def _apply_commit(self, event: Event) -> CommitDelta:
        root = event.root
        assert root is not None
        if root in self._committed:
            raise StreamError(f"duplicate commit of root {root!r}")
        decls = self._txns_of.get(root)
        if not decls:
            raise StreamError(
                f"commit of root {root!r} with no staged transactions"
            )
        if self.derive == "temporal":
            # Temporal derivation reads each schedule's execution off
            # the arrivals, so every committed operation needs one.
            arrived = {arrival.op for _, arrival in self._arrived.get(root, ())}
            for _, txn_event in decls:
                for op in txn_event.ops:
                    if op not in arrived:
                        raise StreamError(
                            f"commit of root {root!r}: operation {op!r} "
                            "has no access or call event, which a "
                            "temporal-derive log needs to place it"
                        )
        self._committed.add(root)
        self._commit_order.append(root)
        lanes = self._lanes
        for index, arrival in self._arrived.pop(root, ()):
            assert arrival.schedule is not None
            lane = lanes.get(arrival.schedule)
            if lane is None:
                lane = lanes[arrival.schedule] = _Lane()
            lane.add(index, arrival)
        self._ready.extend(decls)
        txns: List[str] = []
        waiting = self._waiting
        for _, txn_event in decls:
            txn = txn_event.txn
            assert txn is not None
            txns.append(txn)
            for node in (txn, *txn_event.ops):
                if node in waiting:
                    self._wait(waiting.pop(node))
        return CommitDelta(
            root=root, ordinal=len(self._commit_order), txns=tuple(txns)
        )

    def _apply_abort(self, event: Event) -> None:
        assert event.root is not None
        if event.root in self._committed:
            raise StreamError(f"abort of committed root {event.root!r}")
        self._discard_root(event.root)
        self._begun.discard(event.root)

    def _apply_end(self, event: Event) -> None:
        self._ended = True

    # ------------------------------------------------------------------
    def _discard_root(self, root: str) -> None:
        """Drop the root's staged attempt (abort, or begin of a retry).

        Only *uncommitted* roots can reach here (commit is permanent),
        and activation implies a committed root, so a discarded
        declaration was never applied to the persistent builder —
        discarding never invalidates it.
        """
        discarded = self._txns_of.pop(root, None)
        if discarded:
            for _, event in discarded:
                if event.txn is not None:
                    self._root_of.pop(event.txn, None)
                for op in event.ops:
                    self._root_of.pop(op, None)
                    self._txn_of_op.pop(op, None)
            for ident, _ in discarded:
                del self._decls[ident]
        self._arrived.pop(root, None)

    def _active(self, decl: Event) -> bool:
        """A conflict/order pair activates when both mentioned nodes
        belong to committed roots."""
        assert decl.a is not None and decl.b is not None
        committed = self._committed
        return (
            self._root_of.get(decl.a) in committed
            and self._root_of.get(decl.b) in committed
        )

    def _wait(self, decls: Iterable[_Decl]) -> None:
        """File each ``conflict``/``order`` declaration under the first
        of its nodes whose root has not committed, or as ready when none
        is left: a commit then visits only the declarations that wait
        on its own nodes."""
        root_of = self._root_of
        committed = self._committed
        waiting = self._waiting
        for decl in decls:
            event = decl[1]
            a, b = event.a, event.b
            assert a is not None and b is not None
            if root_of.get(a) not in committed:
                waiting.setdefault(a, []).append(decl)
            elif root_of.get(b) not in committed:
                waiting.setdefault(b, []).append(decl)
            else:
                self._ready.append(decl)

    # ------------------------------------------------------------------
    def executions(self) -> Dict[str, List[str]]:
        """Per-schedule arrival sequences of committed operations, the
        schedules in the order of their first such arrival."""
        lanes = sorted(self._lanes.items(), key=lambda item: item[1].index[0])
        return {schedule: list(lane.ops) for schedule, lane in lanes}

    # ------------------------------------------------------------------
    def _apply_decl(self, builder: SystemBuilder, decl: Event) -> None:
        """Feed one activated declaration to a builder."""
        if decl.kind == "txn":
            assert decl.schedule is not None and decl.txn is not None
            builder.transaction(
                decl.txn,
                decl.schedule,
                decl.ops,
                weak_order=decl.weak,
                strong_order=decl.strong,
            )
        elif decl.kind == "conflict":
            assert (
                decl.schedule is not None
                and decl.a is not None
                and decl.b is not None
            )
            builder.conflict(decl.schedule, decl.a, decl.b)
        else:
            assert (
                decl.schedule is not None
                and decl.order_kind is not None
                and decl.a is not None
                and decl.b is not None
            )
            getattr(builder, decl.order_kind)(decl.schedule, decl.a, decl.b)

    def _finish_build(self, builder: SystemBuilder) -> RecordedExecution:
        """Assemble, without checking the Def.-3 axioms.

        Mid-stream prefixes may violate axioms the finished system
        satisfies (e.g. an unordered conflict whose ordering pair has
        not activated yet), and a violation would not change the system
        built, so none is checked.  A cyclic weak order, by contrast,
        can never appear in a prefix of a well-formed log (closed
        suborders of an acyclic order are acyclic), so
        :class:`~repro.exceptions.CycleError` propagates.
        """
        return RecordedExecution(
            system=builder.build(validate=False), executions=self.executions()
        )

    def _activated(self) -> List[_Decl]:
        """Every activated declaration, in declaration order."""
        return [
            (ident, event)
            for ident, event in self._decls.items()
            if (
                event.root in self._committed
                if event.kind == "txn"
                else self._active(event)
            )
        ]

    def build(self) -> Optional[RecordedExecution]:
        """The committed composite system via a *full* replay of every
        activated declaration in declaration order, or ``None`` before
        the first commit.  The byte-pinned certification path."""
        if not self._committed:
            return None
        builder = SystemBuilder()
        for _, event in self._activated():
            self._apply_decl(builder, event)
        if self.derive == "temporal":
            self._derive_temporal(builder)
        return self._finish_build(builder)

    # ------------------------------------------------------------------
    def build_incremental(self) -> Optional[RecordedExecution]:
        """The committed composite system via the persistent builder:
        per-commit cost proportional to the declarations the commit
        activated, with the same ``dumps`` document and verdict as
        :meth:`build`, though its schedules may come in another order
        (see the module docstring for why, and for the out-of-order
        guard).  Sets :attr:`late_conflict`."""
        if not self._committed:
            return None
        if self.derive == "temporal":
            return self.build()
        fresh = sorted(self._ready)  # by id: ids are unique
        self._ready = []
        new_roots = set(self._commit_order[self._built_commits:])
        self._built_commits = len(self._commit_order)
        watermark = self._txn_watermark
        self.late_conflict = out_of_order = False
        root_of = self._root_of
        for ident, event in fresh:
            if event.kind == "txn":
                assert event.schedule is not None
                if ident < watermark.get(event.schedule, -1):
                    out_of_order = True
            elif event.kind == "conflict":
                assert event.a is not None and event.b is not None
                if root_of[event.a] not in new_roots and (
                    root_of[event.b] not in new_roots
                ):
                    self.late_conflict = True
        if out_of_order:
            # A later-staged transaction committed before an
            # earlier-staged one of the same schedule: appending would
            # intern it out of declaration order and break byte
            # identity with the full rebuild.  Pay one full replay.
            self._builder = None
            self._applied = 0
            watermark.clear()
            self._cache = None
            self.rebuilds += 1
            fresh = self._activated()
        if self._builder is None:
            self._builder = SystemBuilder()
        builder = self._builder
        for ident, event in fresh:
            self._apply_decl(builder, event)
            if event.kind == "txn":
                assert event.schedule is not None
                watermark[event.schedule] = ident
        self._applied += len(fresh)
        key = (self._applied, len(self._commit_order))
        if self._cache is not None and self._cache[0] == key:
            return self._cache[1]
        recorded = self._finish_build(builder)
        self._cache = (key, recorded)
        return recorded

    # ------------------------------------------------------------------
    def _derive_temporal(self, builder: SystemBuilder) -> None:
        """Temporal mode: derive conflicts from item/mode overlap and
        weak output orders from arrival order (recorder semantics)."""
        sequences = self.executions()
        parent = self._txn_of_op.get
        for sname in sequences:
            lane = self._lanes[sname]
            arrivals = list(zip(lane.ops, lane.events))
            for i, (op, first) in enumerate(arrivals):
                if first.item is None:
                    continue
                for other, second in arrivals[i + 1 :]:
                    if (
                        second.item == first.item
                        and other != op
                        and parent(op) != parent(other)
                        and "w" in ((first.mode or "") + (second.mode or ""))
                    ):
                        builder.conflict(sname, op, other)
        for sname, sequence in sequences.items():
            builder.executed(sname, sequence, mode="conflicts")


class _Lane:
    """The committed arrivals at one schedule, in arrival order: a root
    that commits merges its own in by arrival index."""

    __slots__ = ("index", "events", "ops")

    def __init__(self) -> None:
        self.index: List[int] = []
        self.events: List[Event] = []
        self.ops: List[str] = []

    def add(self, index: int, event: Event) -> None:
        assert event.op is not None
        at = len(self.index)
        if at and index < self.index[-1]:
            at = bisect(self.index, index)
        self.index.insert(at, index)
        self.events.insert(at, event)
        self.ops.insert(at, event.op)


#: ``apply``'s dispatch: event kind -> handler
_HANDLERS: Dict[
    str, Callable[[StreamAssembler, Event], Optional[CommitDelta]]
] = {
    "log": StreamAssembler._apply_log,
    "txn": StreamAssembler._apply_txn,
    "conflict": StreamAssembler._apply_pair,
    "order": StreamAssembler._apply_pair,
    "begin": StreamAssembler._apply_begin,
    "access": StreamAssembler._apply_arrival,
    "call": StreamAssembler._apply_arrival,
    "commit": StreamAssembler._apply_commit,
    "abort": StreamAssembler._apply_abort,
    "end": StreamAssembler._apply_end,
}
