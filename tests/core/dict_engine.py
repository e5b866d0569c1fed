"""The pre-bitset dict-of-sets relation engine, kept for testing.

This is the ``Relation`` implementation exactly as it stood before the
packed-bitset rewrite (successor/predecessor dict-of-sets as native
storage, bitsets materialized per closure call), renamed to
``DictRelation``.  It exists solely as the differential-testing oracle:
the property tests drive identical operation sequences through both
engines and assert identical pairs, verdicts and witnesses, and the
micro benchmarks quantify the rewrite's closure speedup against it.

Not part of the library — never import this from ``src/``.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.exceptions import CycleError

Element = Hashable
Pair = Tuple[Element, Element]

#: Closure instrumentation: mutated by :meth:`Relation.transitive_closure`
#: and :meth:`Relation.add_closed`, snapshotted by the reduction
#: engine's profiler.  ``calls`` counts closure invocations; ``rows``
#: counts bitset rows actually (re)computed — the quantity the
#: incremental path saves.  Per-process (each pool worker has its own).
CLOSURE_COUNTERS = {"calls": 0, "rows": 0}


def closure_counters() -> Dict[str, int]:
    """A snapshot of the module-level closure counters."""
    return dict(CLOSURE_COUNTERS)


def reset_closure_counters() -> None:
    """Zero the closure counters (benchmark/test hygiene)."""
    CLOSURE_COUNTERS["calls"] = 0
    CLOSURE_COUNTERS["rows"] = 0


class DictRelation:
    """A finite binary relation ``R ⊆ E × E`` over a carrier set ``E``.

    The carrier set always contains every element mentioned by a pair,
    and may contain isolated elements (needed so that topological sorts
    enumerate unordered nodes too).

    >>> r = DictRelation([("a", "b"), ("b", "c")])
    >>> ("a", "c") in r
    False
    >>> ("a", "c") in r.transitive_closure()
    True
    >>> r.topological_sort()
    ['a', 'b', 'c']
    >>> r.add("c", "a")
    >>> r.find_cycle()
    ['a', 'b', 'c', 'a']
    """

    __slots__ = ("_succ", "_pred", "_elements", "_size")

    def __init__(
        self,
        pairs: Iterable[Pair] = (),
        elements: Iterable[Element] = (),
    ) -> None:
        self._succ: Dict[Element, Set[Element]] = {}
        self._pred: Dict[Element, Set[Element]] = {}
        self._elements: Dict[Element, None] = {}
        self._size = 0
        for element in elements:
            self.add_element(element)
        for a, b in pairs:
            self.add(a, b)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_element(self, element: Element) -> None:
        """Add ``element`` to the carrier set (idempotent)."""
        if element not in self._elements:
            self._elements[element] = None

    def add(self, a: Element, b: Element) -> None:
        """Add the pair ``(a, b)`` — i.e. assert ``a R b`` (idempotent)."""
        self.add_element(a)
        self.add_element(b)
        bucket = self._succ.setdefault(a, set())
        if b not in bucket:
            bucket.add(b)
            self._pred.setdefault(b, set()).add(a)
            self._size += 1

    def add_all(self, pairs: Iterable[Pair]) -> None:
        """Add every pair in ``pairs``."""
        for a, b in pairs:
            self.add(a, b)

    def discard(self, a: Element, b: Element) -> None:
        """Remove the pair ``(a, b)`` if present (carrier set unchanged)."""
        bucket = self._succ.get(a)
        if bucket and b in bucket:
            bucket.remove(b)
            self._pred[b].remove(a)
            self._size -= 1

    def copy(self) -> "DictRelation":
        """Return an independent copy."""
        clone = DictRelation(elements=self._elements)
        for a, bs in self._succ.items():
            for b in bs:
                clone.add(a, b)
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, pair: Pair) -> bool:
        a, b = pair
        return b in self._succ.get(a, ())

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DictRelation):
            return NotImplemented
        return (
            set(self._elements) == set(other._elements)
            and set(self.pairs()) == set(other.pairs())
        )

    def __hash__(self) -> int:  # pragma: no cover - relations are not hashed
        raise TypeError("DictRelation is unhashable (mutable)")

    def __repr__(self) -> str:
        shown = ", ".join(f"{a}<{b}" for a, b in list(self.pairs())[:8])
        more = "" if self._size <= 8 else f", ... ({self._size} pairs)"
        return f"DictRelation({shown}{more})"

    @property
    def elements(self) -> Tuple[Element, ...]:
        """The carrier set, in insertion order."""
        return tuple(self._elements)

    def pairs(self) -> Iterator[Pair]:
        """Iterate over all pairs in deterministic order."""
        for a in self._elements:
            bucket = self._succ.get(a)
            if bucket:
                for b in sorted(bucket, key=_sort_key):
                    yield (a, b)

    def successors(self, a: Element) -> Set[Element]:
        """All ``b`` with ``a R b``."""
        return set(self._succ.get(a, ()))

    def predecessors(self, b: Element) -> Set[Element]:
        """All ``a`` with ``a R b``."""
        return set(self._pred.get(b, ()))

    def orders(self, a: Element, b: Element) -> bool:
        """True if ``a`` and ``b`` are related in either direction."""
        return (a, b) in self or (b, a) in self

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def union(self, *others: "DictRelation") -> "DictRelation":
        """Union of this relation with ``others`` (carriers merged)."""
        result = self.copy()
        for other in others:
            for element in other._elements:
                result.add_element(element)
            for a, bs in other._succ.items():
                for b in bs:
                    result.add(a, b)
        return result

    def restricted_to(
        self,
        keep: Iterable[Element],
        *,
        carrier: "Optional[Iterable[Element]]" = None,
    ) -> "DictRelation":
        """The sub-relation induced on the elements of ``keep``.

        Rows are copied by whole-set intersection, not pair by pair —
        the restriction is the carried base of every incremental
        reduction step, and per-pair ``add`` calls dominated its cost.
        ``carrier`` optionally fixes the result's carrier (it must
        contain every kept element of ``self``; extra elements get
        empty rows) — the reduction uses this to place the parent
        transactions at their Def.-16 positions.  A restriction of a
        transitively closed relation is itself closed.
        """
        keep_set = set(keep)
        if carrier is None:
            carrier = (e for e in self._elements if e in keep_set)
        result = DictRelation(elements=carrier)
        size = 0
        for a, bucket in self._succ.items():
            if a not in keep_set:
                continue
            row = bucket & keep_set
            if not row:
                continue
            result._succ[a] = row
            size += len(row)
            for b in row:
                result._pred.setdefault(b, set()).add(a)
        result._size = size
        return result

    def mapped(
        self,
        representative: Callable[[Element], Element],
        *,
        drop_loops: bool = True,
    ) -> "DictRelation":
        """Quotient: replace every element by ``representative(element)``.

        This is the engine of the reduction step (Def. 16): grouping the
        operations of a level-*i* transaction collapses them to the
        transaction node.  Self-loops created by the collapse are dropped
        by default (pairs internal to a group carry no inter-node
        constraint).
        """
        result = DictRelation(
            elements=(representative(e) for e in self._elements)
        )
        for a, bs in self._succ.items():
            ra = representative(a)
            for b in bs:
                rb = representative(b)
                if drop_loops and ra == rb:
                    continue
                result.add(ra, rb)
        return result

    def inverse(self) -> "DictRelation":
        """The converse relation ``{(b, a) : (a, b) ∈ R}``."""
        result = DictRelation(elements=self._elements)
        for a, bs in self._succ.items():
            for b in bs:
                result.add(b, a)
        return result

    def transitive_closure(self) -> "DictRelation":
        """The smallest transitive relation containing this one.

        Implemented with integer bitsets: elements are indexed, each
        row is one arbitrary-precision int, and reachability propagates
        through the strongly-connected-component condensation in reverse
        topological order — ``O(V·E/w)`` word-packed, which keeps the
        checker's per-level closures cheap even on histories with
        thousands of operations.  (``source R source`` appears exactly
        when the source lies on a cycle, matching the DFS semantics the
        test suite pins down.)
        """
        elements = list(self._elements)
        index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        CLOSURE_COUNTERS["calls"] += 1
        CLOSURE_COUNTERS["rows"] += n
        rows = [0] * n
        for a, bs in self._succ.items():
            ia = index[a]
            for b in bs:
                rows[ia] |= 1 << index[b]

        # Tarjan SCC (iterative) to handle cycles; process components in
        # reverse topological order so each row is final when consumed.
        sccs = self._tarjan(elements, index)
        closure = [0] * n
        # Tarjan emits components in reverse topological order already
        # (a component is completed only after everything it reaches).
        for comp in sccs:
            comp_mask = 0
            for node in comp:
                comp_mask |= 1 << node
            direct = 0
            for node in comp:
                direct |= rows[node]
            # Successors outside the component are already closed, so one
            # union per external successor finishes the reachability set.
            external = direct & ~comp_mask
            reach = external
            remaining = external
            while remaining:
                low = remaining & -remaining
                reach |= closure[low.bit_length() - 1]
                remaining &= remaining - 1
            # Inside a (non-trivial) cycle every member reaches every
            # member, including itself when the component has an internal
            # edge (size > 1, or an explicit self-loop).
            internal = 0
            if len(comp) > 1:
                internal = comp_mask
            else:
                node = comp[0]
                if rows[node] & (1 << node):
                    internal = comp_mask
            total = reach | internal
            for node in comp:
                closure[node] = total

        result = DictRelation(elements=elements)
        for i, element in enumerate(elements):
            mask = closure[i]
            while mask:
                low = mask & -mask
                j = low.bit_length() - 1
                result.add(element, elements[j])
                mask &= mask - 1
        return result

    def add_closed(
        self,
        pairs: Iterable[Pair],
        elements: Iterable[Element] = (),
    ) -> int:
        """Closure of ``self ∪ pairs``, in place, for an **already
        closed** ``self``, touching only rows whose reachability
        changes.

        It never re-emits the unchanged part of the relation (the dominant cost of re-closing a
        dense observed order from scratch), because the predecessor index
        plays the role of the transposed bitset: in a closed relation
        ``predecessors(a)`` is exactly the set of rows an edge into ``a``
        can affect.  Returns the number of rows touched (also added to
        the module closure counters).
        """
        for element in elements:
            self.add_element(element)
        touched = 0
        for a, b in pairs:
            self.add_element(a)
            self.add_element(b)
            if b in self._succ.get(a, ()):
                continue  # already implied — closure is unchanged
            reach = set(self._succ.get(b, ()))
            reach.add(b)
            affected = set(self._pred.get(a, ()))
            affected.add(a)
            for x in affected:
                bucket = self._succ.setdefault(x, set())
                new = reach - bucket
                if not new:
                    continue
                touched += 1
                bucket |= new
                for y in new:
                    self._pred.setdefault(y, set()).add(x)
                self._size += len(new)
        CLOSURE_COUNTERS["calls"] += 1
        CLOSURE_COUNTERS["rows"] += touched
        return touched

    def _tarjan(self, elements: list, index: Dict[Element, int]):
        """Iterative Tarjan SCC over the indexed graph; components are
        emitted in reverse topological order."""
        n = len(elements)
        adjacency: List[List[int]] = [[] for _ in range(n)]
        for a, bs in self._succ.items():
            ia = index[a]
            for b in bs:
                adjacency[ia].append(index[b])
        index_counter = [0]
        lowlink = [0] * n
        number = [-1] * n
        on_stack = [False] * n
        stack: List[int] = []
        components: List[List[int]] = []

        for root in range(n):
            if number[root] != -1:
                continue
            work: List[Tuple[int, int]] = [(root, 0)]
            while work:
                node, child_pos = work[-1]
                if child_pos == 0:
                    number[node] = lowlink[node] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(node)
                    on_stack[node] = True
                advanced = False
                for pos in range(child_pos, len(adjacency[node])):
                    succ = adjacency[node][pos]
                    if number[succ] == -1:
                        work[-1] = (node, pos + 1)
                        work.append((succ, 0))
                        advanced = True
                        break
                    if on_stack[succ]:
                        lowlink[node] = min(lowlink[node], number[succ])
                if advanced:
                    continue
                work.pop()
                if lowlink[node] == number[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return components

    def _reachable_from(self, source: Element) -> Set[Element]:
        seen: Set[Element] = set()
        stack = list(self._succ.get(source, ()))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._succ.get(node, ()))
        return seen

    def reaches(self, a: Element, b: Element) -> bool:
        """True if ``b`` is reachable from ``a`` through one or more pairs."""
        if a not in self._elements:
            return False
        return b in self._reachable_from(a)

    # ------------------------------------------------------------------
    # order-theoretic properties
    # ------------------------------------------------------------------
    def find_cycle(self) -> Optional[List[Element]]:
        """Return one directed cycle ``[a, ..., a]`` or ``None`` if acyclic.

        Iterative three-colour DFS (no recursion: histories can be deep).
        """
        WHITE, GREY, BLACK = 0, 1, 2
        colour: Dict[Element, int] = {e: WHITE for e in self._elements}
        parent: Dict[Element, Element] = {}
        for root in self._elements:
            if colour[root] != WHITE:
                continue
            stack: List[Tuple[Element, Iterator[Element]]] = [
                (root, iter(sorted(self._succ.get(root, ()), key=_sort_key)))
            ]
            colour[root] = GREY
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if colour[child] == WHITE:
                        colour[child] = GREY
                        parent[child] = node
                        stack.append(
                            (
                                child,
                                iter(
                                    sorted(
                                        self._succ.get(child, ()),
                                        key=_sort_key,
                                    )
                                ),
                            )
                        )
                        advanced = True
                        break
                    if colour[child] == GREY:
                        # Found a back edge node -> child; unwind the path.
                        cycle = [child]
                        cursor = node
                        while cursor != child:
                            cycle.append(cursor)
                            cursor = parent[cursor]
                        cycle.append(child)
                        cycle.reverse()
                        return cycle
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return None

    def is_acyclic(self) -> bool:
        """True if the relation, viewed as a digraph, has no cycle."""
        return self.find_cycle() is None

    def is_irreflexive(self) -> bool:
        """True if no element is related to itself."""
        return all(a not in self._succ.get(a, ()) for a in self._elements)

    def is_transitive(self) -> bool:
        """True if ``a R b`` and ``b R c`` imply ``a R c``."""
        for a, bs in self._succ.items():
            for b in bs:
                for c in self._succ.get(b, ()):
                    if c not in self._succ.get(a, ()):
                        return False
        return True

    def is_strict_partial_order(self) -> bool:
        """True if the relation is irreflexive and acyclic.

        (An acyclic relation always has an irreflexive, transitive
        extension — its transitive closure — so this is the useful test
        for "can serve as a strict partial order".)
        """
        return self.is_irreflexive() and self.is_acyclic()

    def is_total_over(self, elements: Iterable[Element]) -> bool:
        """True if every distinct pair from ``elements`` is ordered."""
        pool = list(elements)
        for i, a in enumerate(pool):
            for b in pool[i + 1:]:
                if a != b and not self.orders(a, b):
                    return False
        return True

    # ------------------------------------------------------------------
    # linearization
    # ------------------------------------------------------------------
    def topological_sort(self) -> List[Element]:
        """A linear extension of the relation over its carrier set.

        Raises :class:`CycleError` (with a witness) when cyclic.  Ties
        are broken by carrier insertion order, which makes results
        deterministic across runs.
        """
        in_degree: Dict[Element, int] = {e: 0 for e in self._elements}
        for a, bs in self._succ.items():
            for b in bs:
                in_degree[b] += 1
        queue: List[Element] = [e for e in self._elements if in_degree[e] == 0]
        order: List[Element] = []
        head = 0
        position = {e: i for i, e in enumerate(self._elements)}
        while head < len(queue):
            # Pick the smallest-position ready element for determinism.
            best = min(range(head, len(queue)), key=lambda i: position[queue[i]])
            queue[head], queue[best] = queue[best], queue[head]
            node = queue[head]
            head += 1
            order.append(node)
            for child in sorted(self._succ.get(node, ()), key=_sort_key):
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    queue.append(child)
        if len(order) != len(self._elements):
            cycle = self.find_cycle()
            assert cycle is not None
            raise CycleError("relation is not linearizable", cycle)
        return order

    def all_topological_sorts(
        self, limit: Optional[int] = None
    ) -> Iterator[List[Element]]:
        """Enumerate every linear extension (optionally at most ``limit``).

        Exponential in general — used only by the brute-force oracle that
        cross-validates Theorem 1 on tiny instances.
        """
        elements = list(self._elements)
        in_degree: Dict[Element, int] = {e: 0 for e in elements}
        for a, bs in self._succ.items():
            for b in bs:
                in_degree[b] += 1
        emitted = 0
        prefix: List[Element] = []

        def backtrack() -> Iterator[List[Element]]:
            nonlocal emitted
            if limit is not None and emitted >= limit:
                return
            if len(prefix) == len(elements):
                emitted += 1
                yield list(prefix)
                return
            for node in elements:
                if in_degree[node] == 0 and node not in taken:
                    taken.add(node)
                    prefix.append(node)
                    for child in self._succ.get(node, ()):
                        in_degree[child] -= 1
                    yield from backtrack()
                    for child in self._succ.get(node, ()):
                        in_degree[child] += 1
                    prefix.pop()
                    taken.remove(node)
                    if limit is not None and emitted >= limit:
                        return

        taken: Set[Element] = set()
        yield from backtrack()


def _sort_key(element: Element) -> Tuple[str, str]:
    """Deterministic sort key for heterogeneous hashables."""
    return (type(element).__name__, str(element))


def find_cycle_in_union(
    relations: Iterable["DictRelation"],
    *,
    skip_self_loops: bool = False,
) -> Optional[List[Element]]:
    """One directed cycle of ``⋃ relations``, without materializing it.

    Behaviourally identical to ``relations[0].union(*relations[1:])``
    followed by :meth:`DictRelation.find_cycle` (same carrier order, same
    successor sort, hence the same witness cycle) — but it never copies
    the relations, which for the checker's dense closed observed orders
    is the dominant cost of the Def.-13 consistency test.  With
    ``skip_self_loops`` reflexive pairs are ignored, matching the
    self-loop discard of :meth:`repro.core.front.Front.consistency_violation`.
    """
    pool = list(relations)
    order: Dict[Element, None] = {}
    for relation in pool:
        for element in relation._elements:
            order.setdefault(element, None)

    def successors(node: Element) -> List[Element]:
        buckets = [b for b in (r._succ.get(node) for r in pool) if b]
        if not buckets:
            return []
        merged = buckets[0] if len(buckets) == 1 else set().union(*buckets)
        out = sorted(merged, key=_sort_key)
        if skip_self_loops and node in merged:
            out = [child for child in out if child != node]
        return out

    WHITE, GREY, BLACK = 0, 1, 2
    colour: Dict[Element, int] = {e: WHITE for e in order}
    parent: Dict[Element, Element] = {}
    for root in order:
        if colour[root] != WHITE:
            continue
        stack: List[Tuple[Element, Iterator[Element]]] = [
            (root, iter(successors(root)))
        ]
        colour[root] = GREY
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if colour[child] == WHITE:
                    colour[child] = GREY
                    parent[child] = node
                    stack.append((child, iter(successors(child))))
                    advanced = True
                    break
                if colour[child] == GREY:
                    cycle = [child]
                    cursor = node
                    while cursor != child:
                        cycle.append(cursor)
                        cursor = parent[cursor]
                    cycle.append(child)
                    cycle.reverse()
                    return cycle
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


def total_order_from_sequence(sequence: Iterable[Element]) -> DictRelation:
    """Build the total order induced by a sequence (adjacent pairs only;
    take the transitive closure when the full order matters)."""
    relation = DictRelation()
    previous: Optional[Element] = None
    first = True
    for element in sequence:
        relation.add_element(element)
        if not first:
            relation.add(previous, element)
        previous = element
        first = False
    return relation
