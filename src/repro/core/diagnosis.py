"""Root-cause diagnosis of rejected executions.

A :class:`repro.core.front.ReductionFailure` names a cycle over
transactions — correct, but far from actionable for someone debugging a
real system.  This module digs the cycle's edges back down to the
ground: for each edge it reconstructs a chain of *leaf-level conflicting
accesses* (the Def.-10 seeds) whose pull-up produced the dependency, and
names the schedule that adjudicated each link.

Example output for the Figure-3 rejection::

    T1 -> T2
      because x1 (under p, of T1) preceded conflicting x2 (under r, of T2) at SC
    T2 -> T1
      because y2 (under s, of T2) preceded conflicting y1 (under q, of T1) at SD

Chains are found by BFS over the seed graph (ordered conflicting pairs
of every schedule), restricted to nodes of the two subtrees at the
endpoints; input-order edges are reported as requirements instead.  The
seed graph is built one node at a time, as the search reaches it.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.core.reduction import ReductionResult
from repro.core.system import CompositeSystem
from repro.exceptions import ReductionError


class _SeedGraph:
    """All ordered conflicting pairs, across every schedule (the ground
    truth every observed pair descends from), read one node at a time:
    the successors of ``n`` are its conflict neighbours ``m`` in ``n``'s
    schedule with ``(n, m)`` in that schedule's weak output — the pairs
    :func:`repro.core.observed.seed_observed_pairs` seeds over every
    node.  Memoized, so the chain searches of one cycle share them."""

    def __init__(self, system: CompositeSystem) -> None:
        self._system = system
        self._successors: Dict[str, List[str]] = {}

    def _neighbours(self, node: str, *, forward: bool) -> List[str]:
        sname = self._system.schedule_of_operation(node)
        if sname is None:  # a root is nobody's operation
            return []
        schedule = self._system.schedule(sname)
        output = schedule.weak_output
        return [
            other
            for other in schedule.conflict_neighbours(node)
            if ((node, other) if forward else (other, node)) in output
        ]

    def successors(self, node: str) -> List[str]:
        """``node``'s seed successors, sorted by ``str``."""
        found = self._successors.get(node)
        if found is None:
            found = sorted(self._neighbours(node, forward=True), key=str)
            self._successors[node] = found
        return found

    def touches(self, node: str) -> bool:
        """True when ``node`` is an endpoint of some seed pair."""
        return bool(
            self.successors(node) or self._neighbours(node, forward=False)
        )


def _subtree(system: CompositeSystem, node: str) -> set:
    members = {node}
    if system.is_transaction(node):
        members |= system.activity(node)
    return members


def _find_chain(
    graph: _SeedGraph, sources: set, targets: set
) -> Optional[List[str]]:
    """Shortest seed-graph path from any source node into any target."""
    queue = deque((s,) for s in sorted(sources) if graph.touches(s))
    seen = set(sources)
    while queue:
        path = queue.popleft()
        node = path[-1]
        for succ in graph.successors(node):
            if succ in targets:
                return list(path) + [succ]
            if succ not in seen:
                seen.add(succ)
                queue.append(path + (succ,))
    return None


def _describe_node(system: CompositeSystem, node: str) -> str:
    root = system.root_of(node)
    parent = system.parent(node)
    if node == root:
        return node
    if parent == root:
        return f"{node} (of {root})"
    return f"{node} (under {parent}, of {root})"


def explain_edge(
    system: CompositeSystem, before: str, after: str
) -> List[str]:
    """Evidence lines for one dependency edge ``before -> after``."""
    return _explain_edge(system, _SeedGraph(system), before, after)


def _explain_edge(
    system: CompositeSystem, graph: _SeedGraph, before: str, after: str
) -> List[str]:
    chain = _find_chain(
        graph, _subtree(system, before), _subtree(system, after)
    )
    if chain is None:
        return [
            f"  (no direct conflict chain found between {before} and "
            f"{after}; the edge comes from required input orders)"
        ]
    lines = []
    for a, b in zip(chain, chain[1:]):
        shared = system.common_schedule(a, b)
        where = f" at {shared}" if shared else ""
        lines.append(
            f"  because {_describe_node(system, a)} preceded conflicting "
            f"{_describe_node(system, b)}{where}"
        )
    return lines


def explain_failure(result: ReductionResult) -> str:
    """A multi-line root-cause report for a failed reduction."""
    if result.succeeded:
        raise ReductionError("the execution is Comp-C; nothing to explain")
    failure = result.failure
    system = result.system
    lines = [failure.describe(), ""]
    cycle = failure.cycle
    # one seed graph serves every edge of the cycle
    graph = _SeedGraph(system)
    for before, after in zip(cycle, cycle[1:]):
        lines.append(f"{before} -> {after}")
        lines.extend(_explain_edge(system, graph, before, after))
    lines.append("")
    lines.append(
        "every arrow must be embedded in any equivalent serial order; "
        "together they form a cycle, so no serial order exists."
    )
    return "\n".join(lines)
