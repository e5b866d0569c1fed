"""An independent oracle for the reduction's fronts (Def. 10, 13, 15, 16).

The oracle recomputes every front from the definitions on plain Python
sets.  It reads only the system's declared structure — each schedule's
transactions and their operations, its conflict pairs, and its output
and input order pairs — and imports no closure, pull-up, seeding or
grouping code from :mod:`repro.core`, so a slip in those helpers cannot
hide behind a second copy of itself.  Per level it computes:

* the Def.-10 seeds: output-ordered, conflicting operation pairs of one
  schedule among the front's nodes;
* the stepwise pull-up: a pair with a grouped endpoint is rewritten to
  the parents, unless both old endpoints are operations of one schedule
  that declares them non-conflicting (the Def.-10.2/10.3 forgetting
  gate); pairs internal to one parent vanish, others carry over;
* the input orders: the previous ones among carried nodes plus the
  input orders of the level's schedules;
* a naive transitive closure of each order;

and the Def.-13 verdict (``<_o ∪ →`` acyclic, self-loops aside).  Every
front the engine builds, including a front it rejects as not CC, must
equal the oracle's front as sets, and both must agree on CC.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.core.reduction import ReductionResult

Pair = Tuple[str, str]


def closure(pairs: Iterable[Pair]) -> Set[Pair]:
    """Warshall's algorithm over successor sets."""
    succ: Dict[str, Set[str]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
        succ.setdefault(b, set())
    for k in succ:
        for i in succ:
            if k in succ[i]:
                succ[i] |= succ[k]
    return {(a, b) for a, bs in succ.items() for b in bs}


def has_cycle(pairs: Iterable[Pair]) -> bool:
    """True when ``pairs`` has a cycle through two or more nodes."""
    closed = closure((a, b) for a, b in pairs if a != b)
    return any(a == b for a, b in closed)


class Declared:
    """The declared structure of a system, as plain dicts and sets."""

    def __init__(self, system) -> None:
        self.transactions: Dict[str, List[str]] = {}
        self.children: Dict[str, Tuple[str, ...]] = {}
        self.conflicts: Dict[str, Set[FrozenSet[str]]] = {}
        self.output: Dict[str, Set[Pair]] = {}
        self.weak_input: Dict[str, Set[Pair]] = {}
        self.strong_input: Dict[str, Set[Pair]] = {}
        owner: Dict[str, str] = {}
        for sname, schedule in system.schedules.items():
            self.transactions[sname] = list(schedule.transactions)
            for tname, txn in schedule.transactions.items():
                self.children[tname] = tuple(txn.operations)
                owner[tname] = sname
            self.conflicts[sname] = {frozenset(p) for p in schedule.conflicts}
            self.output[sname] = set(schedule.weak_output.pairs())
            self.weak_input[sname] = set(schedule.weak_input.pairs())
            self.strong_input[sname] = set(schedule.strong_input.pairs())
        #: operation -> the schedule whose transaction invokes it
        self.schedule_of_op: Dict[str, str] = {
            op: owner[t] for t, ops in self.children.items() for op in ops
        }
        self.leaves = {
            op for op in self.schedule_of_op if op not in self.children
        }
        # Def. 9: a schedule's level is one more than the highest level
        # of the schedules its operations are transactions of.
        self.level: Dict[str, int] = {}

        def level_of(sname: str) -> int:
            if sname not in self.level:
                below = [
                    level_of(owner[op])
                    for t in self.transactions[sname]
                    for op in self.children[t]
                    if op in owner
                ]
                self.level[sname] = 1 + max(below, default=0)
            return self.level[sname]

        for sname in self.transactions:
            level_of(sname)
        self.order = max(self.level.values())

    def schedules_at(self, level: int) -> List[str]:
        return [s for s, lv in self.level.items() if lv == level]

    def seeds(self, nodes: Set[str]) -> Set[Pair]:
        """Def. 10 seeds among ``nodes``: pairs a schedule orders and
        declares conflicting."""
        return {
            (a, b)
            for sname, output in self.output.items()
            for a, b in output
            if a in nodes
            and b in nodes
            and self.schedule_of_op.get(a) == sname
            and self.schedule_of_op.get(b) == sname
            and frozenset((a, b)) in self.conflicts[sname]
        }

    def forgotten(self, a: str, b: str) -> bool:
        """The Def.-10.2 gate: ``a`` and ``b`` are operations of one
        schedule, which declares them non-conflicting."""
        sname = self.schedule_of_op.get(a)
        return (
            sname is not None
            and sname == self.schedule_of_op.get(b)
            and frozenset((a, b)) not in self.conflicts[sname]
        )


@dataclass
class OracleFront:
    level: int
    nodes: Set[str]
    observed: Set[Pair]
    input_weak: Set[Pair]
    input_strong: Set[Pair]

    @property
    def consistent(self) -> bool:
        return not has_cycle(self.observed | self.input_weak)


def oracle_fronts(declared: Declared) -> Iterator[OracleFront]:
    """The level-0 front, then one front per reduction step up to the
    system order (whether or not each one is CC)."""
    nodes = set(declared.leaves)
    front = OracleFront(0, nodes, closure(declared.seeds(nodes)), set(), set())
    yield front
    for level in range(1, declared.order + 1):
        parent: Dict[str, str] = {}
        new_nodes: Set[str] = set()
        weak: Set[Pair] = set()
        strong: Set[Pair] = set()
        for sname in declared.schedules_at(level):
            for tname in declared.transactions[sname]:
                new_nodes.add(tname)
                for op in declared.children[tname]:
                    parent[op] = tname
            weak |= declared.weak_input[sname]
            strong |= declared.strong_input[sname]
        new_nodes |= {n for n in front.nodes if n not in parent}
        observed = declared.seeds(new_nodes)
        for a, b in front.observed:
            if a not in parent and b not in parent:
                observed.add((a, b))  # carried verbatim
                continue
            pa, pb = parent.get(a, a), parent.get(b, b)
            if pa != pb and not declared.forgotten(a, b):
                observed.add((pa, pb))
        front = OracleFront(
            level,
            new_nodes,
            closure(observed),
            closure(
                {p for p in front.input_weak if set(p) <= new_nodes} | weak
            ),
            closure(
                {p for p in front.input_strong if set(p) <= new_nodes}
                | strong
            ),
        )
        yield front


def disagreements(system, result: ReductionResult) -> List[str]:
    """Where the engine's fronts or verdict differ from the oracle's
    (empty when they agree)."""
    failure = result.failure
    shown = list(result.fronts)
    if failure is not None and failure.rejected_front is not None:
        shown.append(failure.rejected_front)
    last = shown[-1].level if shown else 0
    declared = Declared(system)
    oracle = []
    for front in oracle_fronts(declared):
        oracle.append(front)
        if front.level == last:
            break
    problems: List[str] = []
    for front in shown:
        expected = oracle[front.level]
        for field in ("observed", "input_weak", "input_strong"):
            ours = set(getattr(front, field).pairs())
            theirs = getattr(expected, field)
            if ours != theirs:
                problems.append(
                    f"level {front.level} {field}: engine-only "
                    f"{sorted(ours - theirs)[:5]}, oracle-only "
                    f"{sorted(theirs - ours)[:5]}"
                )
        if set(front.nodes) != expected.nodes:
            problems.append(f"level {front.level} nodes differ")
    for front in result.fronts:
        if not oracle[front.level].consistent:
            problems.append(f"level {front.level}: engine CC, oracle not")
    if failure is None:
        if last != declared.order:
            problems.append("engine stopped short of the roots")
    elif failure.stage == "cc" and oracle[failure.level].consistent:
        problems.append(f"level {failure.level}: oracle CC, engine not")
    return problems
