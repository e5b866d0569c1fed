"""The level-by-level reduction (Def. 15–16) and Theorem 1.

Starting from the level-0 front (all leaves), each step ``i``:

1. checks that every level-``i`` transaction admits a *calculation*
   (Def. 14) in some legal re-ordering of the front — the quotient
   acyclicity test of :mod:`repro.core.calculation`;
2. replaces the operations of each level-``i`` transaction by the
   transaction itself (the reduction step);
3. pulls the observed order up (Def. 10) and re-seeds it from schedule
   output orders that have become visible;
4. drops relations internal to reduced transactions;
5. keeps root transactions in the front (they are their own parent, so
   they are simply never grouped);
6. includes the input orders of the level-``i`` schedules and checks the
   new front is conflict consistent (Def. 13).

By Theorem 1, the composite execution is Comp-C **iff** all ``N`` steps
succeed.  On failure the engine returns a
:class:`repro.core.front.ReductionFailure` carrying a witness cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.calculation import (
    Grouping,
    calculation_constraints,
    find_isolation_failure,
    grouping_for_level,
    witness_sequence,
)
from repro.core.front import EMPTY_FRONT, Front, ReductionFailure
from repro.core.observed import (
    ObservedOrderOptions,
    carried_restriction,
    group_by_schedule,
    pull_up_delta,
    schedule_seed_pairs,
)
from repro.core.orders import Relation, closed_union, closure_counters
from repro.core.system import CompositeSystem
from repro.exceptions import ReductionError
from repro.obs.telemetry import Span, Telemetry, current


@dataclass
class LevelProfile:
    """Cost accounting for one reduction step (``check --profile``).

    ``closure_calls`` / ``closure_rows`` are deltas of the module-level
    counters in :mod:`repro.core.orders`: how many closure invocations
    the step made and how many bitset rows they actually (re)computed:
    rows whose reachability the level's delta changed, or every row
    when a delta past the size cutoff re-closes the relation whole.
    """

    level: int
    seconds: float
    closure_calls: int
    closure_rows: int
    nodes: int
    observed_pairs: int


@dataclass
class ReductionResult:
    """The outcome of running the reduction on a composite system.

    ``fronts`` holds every successfully constructed front, level 0
    upward.  When ``failure`` is ``None`` the last front is the level-N
    front over the root transactions and the execution is Comp-C
    (Theorem 1).
    """

    system: CompositeSystem
    options: ObservedOrderOptions
    fronts: List[Front] = field(default_factory=list)
    failure: Optional[ReductionFailure] = None
    #: per-level cost accounting, filled in by :meth:`ReductionEngine.run`
    #: (empty when the fronts were built by direct ``next_front`` calls)
    profile: List[LevelProfile] = field(default_factory=list)
    #: the witnesses a one-shot :meth:`ReductionEngine.run` built next
    #: to its steps; ``None`` for a commit run (``run(level0=...)``)
    _witnesses: Optional[List[List[str]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: each step's constraint digraph, its quotient and the grouping,
    #: which a later commit's run extends
    _steps: List[Tuple[Relation, Relation, Grouping]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    @property
    def succeeded(self) -> bool:
        return self.failure is None

    @property
    def witnesses(self) -> List[List[str]]:
        """One ``F**`` witness per successful reduction step: a
        linearization of ``fronts[i]`` in which every level-``i+1``
        transaction is a calculation (Def. 16 step 1).

        A one-shot run builds them after each step.  A streaming commit
        run (``run(level0=...)``) builds none — the verdict needs only
        :func:`find_isolation_failure`'s decision that the re-ordering
        exists — so for it they are derived from the stored steps on
        each read.
        """
        if self._witnesses is not None:
            return self._witnesses
        return [
            # a copy: the witness puts the nodes on the quotient's carrier
            witness_sequence(constraints, grouping, front.nodes, quotient.copy())
            for front, (constraints, quotient, grouping) in zip(
                self.fronts, self._steps
            )
        ]

    def profile_totals(self) -> Dict[str, float]:
        """Aggregate the per-level profile (zeroes when not profiled)."""
        return {
            "seconds": sum(p.seconds for p in self.profile),
            "closure_calls": sum(p.closure_calls for p in self.profile),
            "closure_rows": sum(p.closure_rows for p in self.profile),
        }

    @property
    def final_front(self) -> Front:
        if not self.fronts:
            raise ReductionError("reduction produced no fronts")
        return self.fronts[-1]

    def serial_order(self) -> List[str]:
        """A serial order of the root transactions witnessing correctness
        (Theorem 1's topological sort).  Raises when the reduction failed."""
        if not self.succeeded:
            raise ReductionError(
                "no serial order: the reduction failed "
                f"({self.failure.describe()})"
            )
        return self.final_front.serialization()

    def _verdict_line(self) -> str:
        """The last line of :meth:`narrative` and :meth:`report`: the
        serial witness, or the failure's counterexample."""
        if self.failure is not None:
            return f"REJECTED -- {self.failure.describe()}"
        return "ACCEPTED -- serial witness: " + " << ".join(
            self.serial_order()
        )

    def narrative(self) -> str:
        """A human-readable account of the whole reduction, front by
        front — the format the examples and the F3/F4 benchmarks print."""
        lines: List[str] = []
        for front in self.fronts:
            lines.append(
                f"level {front.level} front: "
                f"{{{', '.join(front.nodes)}}}"
            )
            obs = ", ".join(f"{a}<{b}" for a, b in front.observed.pairs())
            lines.append(f"  observed order: {obs or '(empty)'}")
            inp = ", ".join(f"{a}->{b}" for a, b in front.input_weak.pairs())
            lines.append(f"  input orders:   {inp or '(empty)'}")
        lines.append(self._verdict_line())
        return "\n".join(lines)

    def report(self) -> str:
        """The account sized to the verdict (``check``'s default): one
        line per :attr:`profile` row (front size and observed-pair
        count), then the verdict line — the serial witness or the
        failing cycle, which certify it (Theorem 1)."""
        lines = [
            f"level {row.level}: {row.nodes} nodes, "
            f"{row.observed_pairs} observed pairs"
            for row in self.profile
        ]
        lines.append(self._verdict_line())
        return "\n".join(lines)


class ReductionEngine:
    """Runs Def. 16 on one composite system.

    Every step (:meth:`next_front`) is one extension: an already-closed
    base front plus a delta closure over the pairs it gained (pulled
    up), the level's seeds and its schedule input pairs.  Only the base
    differs: alone it is the closed restriction of the front below to
    its carried nodes (restriction preserves closedness), and with a
    previous commit's result it is that commit's front.  Per-schedule
    seed pairs are memoized across levels.
    """

    def __init__(
        self,
        system: CompositeSystem,
        options: ObservedOrderOptions = ObservedOrderOptions(),
        *,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.system = system
        self.options = options
        #: explicit sink; ``None`` resolves to the ambient
        #: :func:`repro.obs.telemetry.current` at each ``run()``
        self.telemetry = telemetry
        #: the last :meth:`next_front` step's constraints, quotient and
        #: grouping
        self._step: Optional[Tuple[Relation, Relation, Grouping]] = None
        #: (schedule, members) -> seed pairs; see ``schedule_seed_pairs``
        self._seed_cache: Dict[
            Tuple[str, Tuple[str, ...]], Tuple[Tuple[str, str], ...]
        ] = {}

    # ------------------------------------------------------------------
    def _tele(self) -> Telemetry:
        """The engine's sink: explicit if given, else the ambient one."""
        return self.telemetry if self.telemetry is not None else current()

    # ------------------------------------------------------------------
    def _seeds(
        self,
        nodes: Tuple[str, ...],
        *,
        covered: "Optional[set]" = None,
        seeded: "Optional[Tuple[AbstractSet[str], AbstractSet[str]]]" = None,
    ) -> List[Tuple[str, str]]:
        """Seed pairs for ``nodes``, memoized per (schedule, members).

        Front nodes persist across levels (roots stay until the end), so
        without the cache every level redoes the full O(members²)
        conflict scan for every schedule that merely carried its members
        over.  ``covered`` marks nodes carried from the previous front:
        a schedule whose members are all covered re-contributes pairs
        that the previous level already seeded and closed in — pairs
        between two carried nodes survive the carried restriction — so
        the whole schedule is skipped.  ``seeded`` is ``(nodes,
        schedules)`` of a base front: a schedule the base was reduced
        with, none of whose members is new, seeded the base already.
        """
        out: List[Tuple[str, str]] = []
        for sname, members in group_by_schedule(self.system, nodes).items():
            if covered is not None and all(m in covered for m in members):
                continue  # already closed into the carried base
            if seeded is not None and sname in seeded[1]:
                if all(m in seeded[0] for m in members):
                    continue  # already closed into the base front
            key = (sname, tuple(members))
            cached = self._seed_cache.get(key)
            if cached is None:
                cached = schedule_seed_pairs(
                    self.system, sname, members, self.options
                )
                self._seed_cache[key] = cached
            out.extend(cached)
        return out

    def level0_front(self) -> Front:
        """Def. 15: the (unique) front over all leaves."""
        leaves = tuple(self.system.leaves)
        observed = Relation(elements=leaves)
        observed.add_all(self._seeds(leaves))
        return Front(
            level=0,
            nodes=leaves,
            observed=observed.transitive_closure(),
            input_weak=Relation(elements=leaves),
            input_strong=Relation(elements=leaves),
        )

    def next_front(
        self, front: Front, *, base: "Optional[ReductionResult]" = None
    ) -> Union[Front, ReductionFailure]:
        """One reduction step: construct the level-``i+1`` front, or
        explain why none exists.

        The step extends a closed *base* front by the pairs *gained*::

            observed = closure(base observed ∪ pull(gained) ∪ seeds)
            input    = closure(base input ∪ gained input pairs ∪
                               the input pairs of the level's schedules)

        and the base comes one of two ways:

        * alone, the base is the carried part of ``front``: its orders
          restricted to the nodes no level-``i+1`` transaction absorbs
          (closed, since restriction preserves closedness), and the
          gained pairs are the rewritten, Def.-10-gated ones;
        * ``base`` is the result of the previous commit of a stream, on
          a system this one grew from (see :meth:`run`).  When it holds
          fronts at levels ``i`` and ``i+1``, the base is its closed
          level-``i+1`` front, the gained pairs are those ``front`` has
          and the base's level-``i`` front lacks (pulled up, carried
          ones unchanged), and the schedules it was reduced with that
          the system kept are skipped.

        The constraint digraph of Def. 16 step 1 and its quotient grow
        the same way from the base's step (from nothing, alone), and
        are left with the grouping in ``self._step``; isolation and CC
        are decided on the whole front either way.
        """
        level = front.level + 1
        system = self.system
        tele = self._tele()
        # the base, when it holds this level's front to extend
        prior = base if base is not None and len(base.fronts) > level else None
        if prior is None:  # alone: extend the empty front from no step
            below = EMPTY_FRONT
            known_nodes: Tuple[str, ...] = ()
            built = mapped = EMPTY_FRONT.observed
            earlier: Optional[Grouping] = None
        else:
            below = prior.fronts[level - 1]
            known_nodes = prior.fronts[level].nodes
            built, mapped, earlier = prior._steps[level - 1]
        known = frozenset(known_nodes)
        self._check_materialization(front, level, known)
        grouping = grouping_for_level(system, front.nodes, level, base=earlier)
        constraints = calculation_constraints(
            system, front, grouping, base=(below, built)
        )
        quotient = mapped.union(
            constraints.added_since(built).mapped(grouping.rep)
        )
        self._step = (constraints, quotient, grouping)
        failure = find_isolation_failure(constraints, grouping, quotient)
        if failure is not None:
            tele.count("reduce.isolation_reject")
            return failure

        new_nodes = grouping.new_nodes(front.nodes)
        # A level-i transaction with no operations is grouped from
        # nothing, but it still becomes a front node (Def. 16 step 2 —
        # its calculation is the empty sequence, trivially isolated).
        present = set(new_nodes)
        empties = tuple(
            tname
            for sname in system.schedules_at_level(level)
            for tname in system.schedule(sname).transaction_names
            if tname not in present
        )
        new_nodes = new_nodes + empties
        rep = grouping.rep
        grouped = frozenset(
            n for n, parent in grouping.representative.items() if parent != n
        )
        carried = set(front.observed.elements) - grouped
        delta = pull_up_delta(
            system,
            front.observed.added_since(below.observed),
            rep,
            self.options,
            grouped=grouped,
            carry=prior is not None,
        )
        weak_delta: List[Tuple[str, str]] = []
        strong_delta: List[Tuple[str, str]] = []
        same: AbstractSet[str] = frozenset()
        if prior is None:
            # The carried part of the pull-up (pairs between two
            # ungrouped nodes) is front.observed restricted to those
            # nodes; front.input_* are closed (engine invariant) and so
            # are their restrictions.
            observed = carried_restriction(front.observed, rep, grouped)
            input_weak = front.input_weak.restricted_to(new_nodes)
            input_strong = front.input_strong.restricted_to(new_nodes)
        else:
            # Every front order is monotone in the activated
            # declarations, so the base's closed front is the closure
            # base and only what the level below gained is new.
            previous = prior.fronts[level]
            observed = previous.observed.copy()
            input_weak = previous.input_weak.copy()
            input_strong = previous.input_strong.copy()
            for now, then, gained in (
                (front.input_weak, below.input_weak, weak_delta),
                (front.input_strong, below.input_strong, strong_delta),
            ):
                if len(now) != len(then):  # grown, hence gained pairs
                    gained.extend(
                        now.added_since(then).restricted_to(new_nodes).pairs()
                    )
            kept = prior.system.schedules
            same = {
                sname
                for sname, schedule in system.schedules.items()
                if kept.get(sname) is schedule
            }
        delta.extend(
            self._seeds(new_nodes, covered=carried, seeded=(known, same))
        )
        # The base's nodes first: the front lists its carrier.
        added = tuple(n for n in new_nodes if n not in known)
        new_nodes = known_nodes + added
        for node in added:
            observed.add_element(node)
            input_weak.add_element(node)
            input_strong.add_element(node)
        observed = closed_union(observed, delta)
        for sname in system.schedules_at_level(level):
            if sname not in same:
                schedule = system.schedule(sname)
                weak_delta.extend(schedule.weak_input.pairs())
                strong_delta.extend(schedule.strong_input.pairs())
        # Only the new schedules' input pairs need propagating.
        input_weak = closed_union(input_weak, weak_delta)
        input_strong = closed_union(input_strong, strong_delta)

        candidate = Front(
            level=level,
            nodes=new_nodes,
            observed=observed,
            input_weak=input_weak,
            input_strong=input_strong,
        )
        tele.count("reduce.cc_check")
        cycle = candidate.consistency_violation()
        if cycle is not None:
            tele.count("reduce.cc_reject")
            return ReductionFailure(
                level=level, stage="cc", cycle=cycle, rejected_front=candidate
            )
        return candidate

    def _check_materialization(
        self, front: Front, level: int, known: AbstractSet[str] = frozenset()
    ) -> None:
        """Engine invariant: every operation of every level-``level``
        transaction must already be a front node (``known``
        transactions, already front nodes of a base, were checked)."""
        members = set(front.nodes)
        for sname in self.system.schedules_at_level(level):
            for tname in self.system.schedule(sname).transaction_names:
                if tname in known:
                    continue
                for op in self.system.children(tname):
                    if op not in members:
                        raise ReductionError(
                            f"operation {op!r} of level-{level} transaction "
                            f"{tname!r} is not in the level-{front.level} "
                            "front — reduction invariant broken"
                        )

    # ------------------------------------------------------------------
    def _note_level(
        self, span: Span, front: Front, before: Dict[str, int]
    ) -> None:
        """Attach the level's cost fields to its telemetry span (called
        inside the span, before the exit event is emitted)."""
        after = closure_counters()
        span.note(
            closure_calls=after["calls"] - before["calls"],
            closure_rows=after["rows"] - before["rows"],
            nodes=len(front.nodes),
            observed_pairs=len(front.observed),
        )

    def _record_level(
        self,
        result: ReductionResult,
        front: Front,
        span: Span,
    ) -> None:
        """Fill one :class:`LevelProfile` row from the finished span's
        duration and the cost fields noted by :meth:`_note_level`."""
        notes = span.notes
        result.profile.append(
            LevelProfile(
                level=front.level,
                seconds=span.seconds,
                closure_calls=int(notes.get("closure_calls", 0)),
                closure_rows=int(notes.get("closure_rows", 0)),
                nodes=len(front.nodes),
                observed_pairs=len(front.observed),
            )
        )

    def _record_failure(
        self,
        result: ReductionResult,
        failure: ReductionFailure,
        span: Span,
    ) -> ReductionResult:
        if failure.rejected_front is not None:
            self._record_level(result, failure.rejected_front, span)
        result.failure = failure
        return result

    def run(
        self,
        *,
        stop_level: Optional[int] = None,
        level0: Optional[Front] = None,
        base: Optional[ReductionResult] = None,
    ) -> ReductionResult:
        """Run the reduction up to ``stop_level`` (default: the system
        order ``N``, i.e. all the way to the roots).

        ``level0`` injects a pre-built level-0 front instead of calling
        :meth:`level0_front` — the streaming checker maintains the leaf
        observed order across commits with
        :meth:`~repro.core.orders.Relation.add_closed` deltas and feeds
        it here, skipping the from-scratch seed-and-close step that
        dominates the per-commit cost.  The injected front must cover
        exactly the system's leaves with a transitively closed observed
        order; the usual conflict-consistency check still runs on it,
        so verdicts cannot depend on the caller's maintenance being
        trusted.

        ``base`` (with ``level0`` only) is the previous commit's result:
        each level extends its front (:meth:`next_front`).  The caller
        vouches that this system grew from the base's by activating
        declarations only — every schedule keeps its level, every root
        stays a root, no conflict joins two operations the base already
        had, and ``level0`` extends the base's level-0 front by
        appending.  A system that did not passes no base.
        """
        result = ReductionResult(system=self.system, options=self.options)
        tele = self._tele()
        if base is not None and level0 is None:
            raise ReductionError("a base needs an injected level-0 front")
        target = self.system.order if stop_level is None else stop_level
        if target > self.system.order:
            raise ReductionError(
                f"requested level {target} exceeds the system order "
                f"{self.system.order}"
            )
        with tele.span("reduce.level", level=0) as span:
            before = closure_counters()
            if level0 is None:
                front = self.level0_front()
            else:
                if level0.level != 0:
                    raise ReductionError(
                        f"injected front has level {level0.level}, "
                        "expected 0"
                    )
                if set(level0.nodes) != set(self.system.leaves):
                    raise ReductionError(
                        "injected level-0 front does not cover the "
                        "system's leaves"
                    )
                front = level0
            tele.count("reduce.cc_check")
            cycle = front.consistency_violation()
            self._note_level(span, front, before)
        self._record_level(result, front, span)
        if cycle is not None:
            tele.count("reduce.cc_reject")
            result.failure = ReductionFailure(level=0, stage="cc", cycle=cycle)
            return result
        result.fronts.append(front)
        # A commit run's result is read for its verdict only: it builds
        # no witnesses, and ``ReductionResult.witnesses`` derives them.
        witnesses: Optional[List[List[str]]] = [] if level0 is None else None
        result._witnesses = witnesses
        while front.level < target:
            with tele.span("reduce.level", level=front.level + 1) as span:
                before = closure_counters()
                outcome = self.next_front(front, base=base)
                shown = (
                    outcome.rejected_front
                    if isinstance(outcome, ReductionFailure)
                    else outcome
                )
                if shown is not None:
                    self._note_level(span, shown, before)
            if isinstance(outcome, ReductionFailure):
                return self._record_failure(result, outcome, span)
            assert self._step is not None
            result._steps.append(self._step)
            if witnesses is not None:
                constraints, quotient, grouping = self._step
                witnesses.append(
                    witness_sequence(
                        constraints, grouping, front.nodes, quotient
                    )
                )
            front = outcome
            self._record_level(result, front, span)
            result.fronts.append(front)
        if target == self.system.order and result.succeeded:
            expected = set(self.system.roots)
            if set(front.nodes) != expected:  # pragma: no cover - invariant
                raise ReductionError(
                    "level-N front is not the root set: "
                    f"{set(front.nodes)} != {expected}"
                )
        return result


def reduce_to_roots(
    system: CompositeSystem,
    options: ObservedOrderOptions = ObservedOrderOptions(),
    *,
    telemetry: Optional[Telemetry] = None,
) -> ReductionResult:
    """Run the full reduction (Theorem 1 decision procedure)."""
    return ReductionEngine(system, options, telemetry=telemetry).run()
