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
    declarations).  The result is byte-identical to a full rebuild
    because a :class:`~repro.core.schedule.Schedule` interns its
    relation carriers up front from transaction order — pair *sets*
    are order-insensitive — so only the per-schedule transaction
    application order matters, and that is guarded: a transaction
    activating *out of declaration order* within its schedule (a
    later-staged transaction committing first) triggers one full
    rebuild of the persistent builder, after which incremental
    appends resume.  Logs laid out by
    :func:`~repro.io.eventlog.events_from_recorded` (and its
    :func:`~repro.io.eventlog.interleave_by_commit` live re-layout)
    activate in declaration order per schedule, so the guard never
    fires on them.  Temporal-derive logs always take the full
    rebuild: later commits splice arrivals *into* earlier sequences,
    so nothing about them is append-only.

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

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.builder import SystemBuilder
from repro.exceptions import ModelError, ScheduleAxiomError, StreamError
from repro.io.eventlog import Event
from repro.io.recorded import RecordedExecution

__all__ = ["CommitDelta", "StreamAssembler"]


@dataclass(frozen=True)
class CommitDelta:
    """What a ``commit`` event added to the committed system."""

    root: str
    ordinal: int
    txns: Tuple[str, ...]


@dataclass
class _Arrival:
    schedule: str
    root: str
    op: str
    item: Optional[str]
    mode: Optional[str]


@dataclass(frozen=True)
class _Decl:
    """One staged declaration with its stable id."""

    ident: int
    event: Event


class StreamAssembler:
    """Incremental event-log consumer (see module docstring)."""

    def __init__(self) -> None:
        self.derive: Optional[str] = None
        self._decls: List[_Decl] = []
        self._next_decl = 0
        self._root_of: Dict[str, str] = {}
        self._committed: Set[str] = set()
        self._begun: Set[str] = set()
        self._commit_order: List[str] = []
        self._arrivals: List[_Arrival] = []
        self._ended = False
        # -- persistent-builder state (build_incremental) --------------
        #: the maintained builder; ``None`` means "start a fresh one on
        #: next use" (nothing applied yet, or invalidated by an
        #: out-of-order activation)
        self._builder: Optional[SystemBuilder] = None
        #: decl ids already fed to the builder
        self._applied: Set[int] = set()
        #: per schedule, the largest txn decl id applied — the
        #: byte-identity guard (see module docstring)
        self._txn_watermark: Dict[str, int] = {}
        #: full rebuilds forced by out-of-order activation
        self.rebuilds = 0
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
        handler = getattr(self, f"_apply_{event.kind}")
        result = handler(event)
        return result  # type: ignore[no-any-return]

    def _stage(self, event: Event) -> None:
        self._decls.append(_Decl(ident=self._next_decl, event=event))
        self._next_decl += 1

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
        self._stage(event)

    def _apply_conflict(self, event: Event) -> None:
        self._stage(event)

    _apply_order = _apply_conflict

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

    def _apply_access(self, event: Event) -> None:
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
        self._arrivals.append(
            _Arrival(
                schedule=event.schedule,
                root=event.root,
                op=event.op,
                item=event.item,
                mode=event.mode,
            )
        )

    _apply_call = _apply_access

    def _apply_commit(self, event: Event) -> CommitDelta:
        assert event.root is not None
        if event.root in self._committed:
            raise StreamError(f"duplicate commit of root {event.root!r}")
        txns = tuple(
            d.event.txn
            for d in self._decls
            if d.event.kind == "txn"
            and d.event.root == event.root
            and d.event.txn is not None
        )
        if not txns:
            raise StreamError(
                f"commit of root {event.root!r} with no staged transactions"
            )
        self._committed.add(event.root)
        self._commit_order.append(event.root)
        return CommitDelta(
            root=event.root, ordinal=len(self._commit_order), txns=txns
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
        kept: List[_Decl] = []
        for decl in self._decls:
            event = decl.event
            if event.kind == "txn" and event.root == root:
                if event.txn is not None:
                    self._root_of.pop(event.txn, None)
                for op in event.ops:
                    self._root_of.pop(op, None)
            else:
                kept.append(decl)
        self._decls = kept
        self._arrivals = [a for a in self._arrivals if a.root != root]

    def _active(self, decl: Event) -> bool:
        """A conflict/order pair activates when both mentioned nodes
        belong to committed roots."""
        for node in (decl.a, decl.b):
            assert node is not None
            root = self._root_of.get(node)
            if root is None or root not in self._committed:
                return False
        return True

    # ------------------------------------------------------------------
    def executions(self) -> Dict[str, List[str]]:
        """Per-schedule arrival sequences of committed operations."""
        result: Dict[str, List[str]] = {}
        for arrival in self._arrivals:
            if arrival.root in self._committed:
                result.setdefault(arrival.schedule, []).append(arrival.op)
        return result

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
        """Assemble, falling back to ``validate=False`` on prefixes.

        Mid-stream prefixes may violate validation-only axioms the
        finished system satisfies (e.g. an unordered conflict whose
        ordering pair has not activated yet); those fall back exactly
        like the simulator's recorder does.  A cyclic weak order, by
        contrast, can never appear in a prefix of a well-formed log
        (closed suborders of an acyclic order are acyclic), so
        :class:`~repro.exceptions.CycleError` propagates.
        """
        try:
            system = builder.build()
        except (ScheduleAxiomError, ModelError):
            system = builder.build(validate=False)
        return RecordedExecution(system=system, executions=self.executions())

    def build(self) -> Optional[RecordedExecution]:
        """The committed composite system via a *full* replay of every
        activated declaration in declaration order, or ``None`` before
        the first commit.  The byte-pinned certification path."""
        if not self._committed:
            return None
        builder = SystemBuilder()
        for decl in self._decls:
            event = decl.event
            if event.kind == "txn":
                if event.root not in self._committed:
                    continue
            elif not self._active(event):
                continue
            self._apply_decl(builder, event)
        if self.derive == "temporal":
            self._derive_temporal(builder)
        return self._finish_build(builder)

    # ------------------------------------------------------------------
    def _reset_builder(self) -> None:
        self._builder = None
        self._applied = set()
        self._txn_watermark = {}
        self._cache = None

    def build_incremental(self) -> Optional[RecordedExecution]:
        """The committed composite system via the persistent builder:
        per-commit cost proportional to the declarations the commit
        activated, byte-identical to :meth:`build` (see module
        docstring for why, and for the out-of-order guard)."""
        if not self._committed:
            return None
        if self.derive == "temporal":
            return self.build()
        for _attempt in range(2):
            if self._builder is None:
                self._builder = SystemBuilder()
            builder = self._builder
            fresh: List[_Decl] = []
            out_of_order = False
            for decl in self._decls:
                if decl.ident in self._applied:
                    continue
                event = decl.event
                if event.kind == "txn":
                    if event.root not in self._committed:
                        continue
                    assert event.schedule is not None
                    if decl.ident < self._txn_watermark.get(
                        event.schedule, -1
                    ):
                        out_of_order = True
                        break
                elif not self._active(event):
                    continue
                fresh.append(decl)
            if not out_of_order:
                break
            # A later-staged transaction committed before an
            # earlier-staged one of the same schedule: appending would
            # intern it out of declaration order and break byte
            # identity with the full rebuild.  Pay one full replay.
            self._reset_builder()
            self.rebuilds += 1
        for decl in fresh:
            event = decl.event
            self._apply_decl(builder, event)
            self._applied.add(decl.ident)
            if event.kind == "txn":
                assert event.schedule is not None
                self._txn_watermark[event.schedule] = decl.ident
        key = (len(self._applied), len(self._commit_order))
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
        by_schedule: Dict[str, List[_Arrival]] = {}
        for arrival in self._arrivals:
            if arrival.root in self._committed:
                by_schedule.setdefault(arrival.schedule, []).append(arrival)
        for sname, arrivals in by_schedule.items():
            for i, first in enumerate(arrivals):
                if first.item is None:
                    continue
                for second in arrivals[i + 1 :]:
                    if (
                        second.item == first.item
                        and second.op != first.op
                        and self._parent(first.op) != self._parent(second.op)
                        and "w" in ((first.mode or "") + (second.mode or ""))
                    ):
                        builder.conflict(sname, first.op, second.op)
        for sname, sequence in sequences.items():
            builder.executed(sname, sequence, mode="conflicts")

    def _parent(self, op: str) -> Optional[str]:
        for decl in self._decls:
            if decl.event.kind == "txn" and op in decl.event.ops:
                return decl.event.txn
        return None
