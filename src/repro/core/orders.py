"""Finite binary relations and strict partial orders.

Everything in the composite-transaction model — weak/strong input and
output orders (Def. 1, Def. 3), the observed order (Def. 10), the
invocation graph (Def. 8) and the constraint graphs of the reduction
(Def. 16) — is a finite binary relation over hashable node names.
:class:`Relation` is the single graph engine the rest of the library is
built on: it supports closure, acyclicity tests with witness cycles,
topological sorting, restriction, union, and quotienting by a grouping
function (the operation behind front reduction).

**Representation.**  Packed bitset rows are the *native* storage: the
carrier set is interned into an index (element → bit position, in
insertion order) and the successor set of each element is a single
arbitrary-precision Python ``int`` used as a bitmap.  Everything hot is
word-parallel on those rows — ``copy`` is a list copy, ``union`` is a
row-wise OR, ``inverse`` is a transpose swap, ``restricted_to`` is a
row mask, ``transitive_closure``/``add_closed``
propagate reachability as row ORs and build their results directly
from the closed rows (no per-pair materialization), and ``is_acyclic``
is a DFS over the rows' masks — the sorted witness DFS of
``find_cycle`` runs only once a cycle is known to exist.  The historical
dict-of-sets views ``_succ``/``_pred`` are synthesized lazily for
compatibility and are **read-only snapshots** — mutating them does not
write through.

The class is deliberately mutable-but-convertible: model-construction
code builds relations incrementally, then the checker works on frozen
copies.  Determinism matters for reproducible benchmarks, so iteration
orders are insertion orders (interning order of the carrier) and
topological sorts break ties by insertion order.
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

from repro.exceptions import CycleError, ModelError, Report, report_or_raise

Element = Hashable
Pair = Tuple[Element, Element]

#: Closure instrumentation: mutated by :meth:`Relation.transitive_closure`
#: and :meth:`Relation.add_closed`,
#: snapshotted by the reduction engine's profiler.  ``calls`` counts
#: closure invocations; ``rows`` counts packed bitset rows (one
#: word-packed bitmap each) actually (re)computed — the from-scratch
#: closure recomputes every row, the incremental path touches only the
#: rows whose reachability changed.  Per-process (each pool worker has
#: its own).
CLOSURE_COUNTERS = {"calls": 0, "rows": 0}


def closure_counters() -> Dict[str, int]:
    """A snapshot of the module-level closure counters."""
    return dict(CLOSURE_COUNTERS)


def reset_closure_counters() -> None:
    """Zero the closure counters (benchmark/test hygiene)."""
    CLOSURE_COUNTERS["calls"] = 0
    CLOSURE_COUNTERS["rows"] = 0


def _bin_popcount(mask: int) -> int:
    """The number of set bits of ``mask`` (Python 3.9 has no
    ``int.bit_count``)."""
    return bin(mask).count("1")


#: native popcount where there is one: a C call, also under ``map``
_popcount: Callable[[int], int] = getattr(int, "bit_count", _bin_popcount)


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def _source_columns(rows: List[int], src_mask: int) -> Dict[int, int]:
    """Predecessor bitmaps for the columns selected by ``src_mask`` only.

    The delta kernels need the predecessors of each inserted edge's
    *source* — never the whole transpose.  One word-AND per row finds
    the rows intersecting the sources, so the scan costs O(V) big-int
    ANDs plus one bit-iteration per (row, source) hit, instead of the
    O(E) per-bit scatter of a full transpose over a dense closed order.
    """
    cols: Dict[int, int] = {}
    get = cols.get
    for r, rowmask in enumerate(rows):
        m = rowmask & src_mask
        if m:
            bit_r = 1 << r
            while m:
                low = m & -m
                j = low.bit_length() - 1
                cols[j] = get(j, 0) | bit_r
                m &= m - 1
    return cols


class Relation:
    """A finite binary relation ``R ⊆ E × E`` over a carrier set ``E``.

    The carrier set always contains every element mentioned by a pair,
    and may contain isolated elements (needed so that topological sorts
    enumerate unordered nodes too).

    >>> r = Relation([("a", "b"), ("b", "c")])
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

    __slots__ = ("_index", "_nodes", "_rows", "_cols", "_size")

    def __init__(
        self,
        pairs: Iterable[Pair] = (),
        elements: Iterable[Element] = (),
    ) -> None:
        # Intern the carrier in bulk (no per-element add_element call):
        # every schedule and transaction builds its relations over all
        # of its operations, so this sits on the document-load path.
        #: bit position -> element
        nodes: List[Element] = list(dict.fromkeys(elements))
        self._nodes = nodes
        #: element -> bit position (insertion order)
        self._index: Dict[Element, int] = {e: i for i, e in enumerate(nodes)}
        #: successor bitmaps, one int per element
        self._rows: List[int] = [0] * len(nodes)
        #: predecessor bitmaps (the transpose); ``None`` when stale —
        #: bulk row operations invalidate it and :meth:`_transpose`
        #: rebuilds it on demand
        self._cols: Optional[List[int]] = [0] * len(nodes)
        self._size = 0
        if pairs:
            self.add_all(pairs)

    # ------------------------------------------------------------------
    # internal plumbing
    # ------------------------------------------------------------------
    @classmethod
    def _from_state(
        cls,
        nodes: List[Element],
        rows: List[int],
        cols: Optional[List[int]],
        size: Optional[int] = None,
    ) -> "Relation":
        """Assemble a relation directly from row state (no per-pair
        work).  ``nodes`` must be duplicate-free; ``size`` is recomputed
        from the rows when not supplied."""
        self = cls.__new__(cls)
        self._nodes = nodes
        self._index = {e: i for i, e in enumerate(nodes)}
        self._rows = rows
        self._cols = cols
        self._size = sum(map(_popcount, rows)) if size is None else size
        return self

    def _transpose(self) -> List[int]:
        """The predecessor bitmaps, rebuilt from the rows when stale."""
        cols = self._cols
        if cols is None:
            cols = [0] * len(self._nodes)
            for i, mask in enumerate(self._rows):
                bit = 1 << i
                while mask:
                    low = mask & -mask
                    cols[low.bit_length() - 1] |= bit
                    mask &= mask - 1
            self._cols = cols
        return cols

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_element(self, element: Element) -> None:
        """Add ``element`` to the carrier set (idempotent)."""
        if element not in self._index:
            self._index[element] = len(self._nodes)
            self._nodes.append(element)
            self._rows.append(0)
            if self._cols is not None:
                self._cols.append(0)

    def add(self, a: Element, b: Element) -> None:
        """Add the pair ``(a, b)`` — i.e. assert ``a R b`` (idempotent)."""
        if a not in self._index:
            self.add_element(a)
        if b not in self._index:
            self.add_element(b)
        ia = self._index[a]
        ib = self._index[b]
        bit = 1 << ib
        if not self._rows[ia] & bit:
            self._rows[ia] |= bit
            if self._cols is not None:
                self._cols[ib] |= 1 << ia
            self._size += 1

    def add_all(self, pairs: Iterable[Pair]) -> None:
        """Add every pair in ``pairs`` (:meth:`add` inlined: schedules
        load their declared orders through here)."""
        index = self._index
        rows = self._rows
        cols = self._cols
        size = self._size
        for a, b in pairs:
            ia = index.get(a)
            if ia is None:
                self.add_element(a)
                ia = index[a]
            ib = index.get(b)
            if ib is None:
                self.add_element(b)
                ib = index[b]
            bit = 1 << ib
            if not rows[ia] & bit:
                rows[ia] |= bit
                if cols is not None:
                    cols[ib] |= 1 << ia
                size += 1
        self._size = size

    def discard(self, a: Element, b: Element) -> None:
        """Remove the pair ``(a, b)`` if present (carrier set unchanged)."""
        ia = self._index.get(a)
        ib = self._index.get(b)
        if ia is None or ib is None:
            return
        bit = 1 << ib
        if self._rows[ia] & bit:
            self._rows[ia] ^= bit
            if self._cols is not None:
                self._cols[ib] ^= 1 << ia
            self._size -= 1

    def discard_row_bits(self, a: Element, mask: int) -> int:
        """Clear the successor bits of ``a``'s row selected by ``mask``;
        returns how many pairs were removed.  The word-parallel
        counterpart of repeated :meth:`discard` calls against one row."""
        ia = self._index.get(a)
        if ia is None:
            return 0
        hit = self._rows[ia] & mask
        if not hit:
            return 0
        self._rows[ia] ^= hit
        removed = _popcount(hit)
        self._size -= removed
        cols = self._cols
        if cols is not None:
            keep = ~(1 << ia)
            while hit:
                low = hit & -hit
                cols[low.bit_length() - 1] &= keep
                hit &= hit - 1
        return removed

    def remove_self_loops(self) -> int:
        """Drop every reflexive pair; returns how many were removed."""
        removed = 0
        rows = self._rows
        cols = self._cols
        for i in range(len(rows)):
            bit = 1 << i
            if rows[i] & bit:
                rows[i] ^= bit
                removed += 1
                if cols is not None:
                    cols[i] &= ~bit
        self._size -= removed
        return removed

    def copy(self) -> "Relation":
        """Return an independent copy (row-list copy — O(carrier))."""
        clone = Relation.__new__(Relation)
        clone._index = dict(self._index)
        clone._nodes = list(self._nodes)
        clone._rows = list(self._rows)
        clone._cols = None if self._cols is None else list(self._cols)
        clone._size = self._size
        return clone

    def grown(self, elements: Iterable[Element]) -> "Relation":
        """A copy whose carrier also lists ``elements``, which must be
        new and distinct, appended in order (their rows empty)."""
        clone = Relation.__new__(Relation)
        old = len(self._nodes)
        nodes = clone._nodes = self._nodes + list(elements)
        index = clone._index = dict(self._index)
        index.update(zip(nodes[old:], range(old, len(nodes))))
        grew = len(nodes) - old
        clone._rows = self._rows + [0] * grew
        clone._cols = None
        clone._size = self._size
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, pair: Pair) -> bool:
        a, b = pair
        index = self._index
        try:
            return (self._rows[index[a]] >> index[b]) & 1 == 1
        except KeyError:
            return False

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self._nodes == other._nodes:
            return self._rows == other._rows
        if self._size != other._size:
            return False
        if set(self._index) != set(other._index):
            return False
        shift = [self._index[e] for e in other._nodes]
        for oi, mask in enumerate(other._rows):
            remapped = 0
            while mask:
                low = mask & -mask
                remapped |= 1 << shift[low.bit_length() - 1]
                mask &= mask - 1
            if remapped != self._rows[shift[oi]]:
                return False
        return True

    # A mutable container: equality without identity-based hashing, so
    # the class is explicitly unhashable (``isinstance(r, Hashable)``
    # is False and ``hash(r)`` raises TypeError).
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        shown = ", ".join(f"{a}<{b}" for a, b in list(self.pairs())[:8])
        more = "" if self._size <= 8 else f", ... ({self._size} pairs)"
        return f"Relation({shown}{more})"

    @property
    def elements(self) -> Tuple[Element, ...]:
        """The carrier set, in insertion order."""
        return tuple(self._nodes)

    @property
    def _succ(self) -> Dict[Element, Set[Element]]:
        """Legacy dict-of-sets successor view (a read-only *snapshot*
        synthesized from the bitset rows; mutations do not write back)."""
        nodes = self._nodes
        return {
            nodes[i]: {nodes[j] for j in _iter_bits(mask)}
            for i, mask in enumerate(self._rows)
            if mask
        }

    @property
    def _pred(self) -> Dict[Element, Set[Element]]:
        """Legacy dict-of-sets predecessor view (read-only snapshot)."""
        nodes = self._nodes
        return {
            nodes[i]: {nodes[j] for j in _iter_bits(mask)}
            for i, mask in enumerate(self._transpose())
            if mask
        }

    def pairs(self) -> Iterator[Pair]:
        """Iterate over all pairs in deterministic order."""
        if not self._size:
            return
        nodes = self._nodes
        for i, a in enumerate(nodes):
            mask = self._rows[i]
            if mask:
                succ = [nodes[j] for j in _iter_bits(mask)]
                succ.sort(key=_sort_key)
                for b in succ:
                    yield (a, b)

    def successors(self, a: Element) -> Set[Element]:
        """All ``b`` with ``a R b``."""
        ia = self._index.get(a)
        if ia is None:
            return set()
        nodes = self._nodes
        return {nodes[j] for j in _iter_bits(self._rows[ia])}

    def predecessors(self, b: Element) -> Set[Element]:
        """All ``a`` with ``a R b``."""
        ib = self._index.get(b)
        if ib is None:
            return set()
        nodes = self._nodes
        return {nodes[j] for j in _iter_bits(self._transpose()[ib])}

    def orders(self, a: Element, b: Element) -> bool:
        """True if ``a`` and ``b`` are related in either direction."""
        return (a, b) in self or (b, a) in self

    # ------------------------------------------------------------------
    # bitset-row accessors (the native face of the engine)
    # ------------------------------------------------------------------
    def row_bits(self, a: Element) -> int:
        """The successor bitmap of ``a`` (0 when absent).  Bit ``j`` is
        set iff ``a R elements[j]`` — word-parallel AND/OR/NOT against
        :meth:`mask_of` masks replaces per-pair membership loops."""
        ia = self._index.get(a)
        return 0 if ia is None else self._rows[ia]

    def mask_of(self, elements: Iterable[Element]) -> int:
        """The bitmap of the given elements (absent ones are ignored)."""
        index = self._index
        mask = 0
        for e in elements:
            i = index.get(e)
            if i is not None:
                mask |= 1 << i
        return mask

    def nonempty_rows(self) -> Iterator[Tuple[Element, int]]:
        """``(a, row_bits(a))`` for each element with a successor, in
        carrier order."""
        nodes = self._nodes
        for i, row in enumerate(self._rows):
            if row:
                yield nodes[i], row

    def unpack(self, mask: int) -> List[Element]:
        """The elements whose bits are set in ``mask``, in index order."""
        nodes = self._nodes
        return [nodes[j] for j in _iter_bits(mask)]

    def pairs_within(
        self, mask: int, earlier: Optional["Relation"] = None
    ) -> List[Pair]:
        """The pairs between two elements of ``mask``, in row order,
        that ``earlier`` lacks: a relation this one grew from by
        appending elements (:meth:`added_since` restricted to ``mask``,
        with no relation built)."""
        nodes, rows = self._nodes, self._rows
        old: List[int] = [] if earlier is None else earlier._rows
        pairs: List[Pair] = []
        for i in _iter_bits(mask):
            row = rows[i] & mask
            if i < len(old):
                row &= ~old[i]
            if row:
                a = nodes[i]
                pairs.extend([(a, nodes[j]) for j in _iter_bits(row)])
        return pairs

    def missing_pairs(self, other: "Relation") -> Iterator[Pair]:
        """Pairs of ``self`` absent from ``other``, in :meth:`pairs`
        order — the row-wise containment check behind the Def.-19
        verifications (``self ⊆ other`` iff this yields nothing)."""
        if not self._size:
            return
        nodes = self._nodes
        aligned = nodes == other._nodes
        oindex = other._index
        for i, a in enumerate(nodes):
            mask = self._rows[i]
            if not mask:
                continue
            if aligned:
                missing = mask & ~other._rows[i]
            else:
                oi = oindex.get(a)
                if oi is None:
                    missing = mask
                else:
                    orow = other._rows[oi]
                    missing = 0
                    for j in _iter_bits(mask):
                        oj = oindex.get(nodes[j])
                        if oj is None or not (orow >> oj) & 1:
                            missing |= 1 << j
            if missing:
                succ = [nodes[j] for j in _iter_bits(missing)]
                succ.sort(key=_sort_key)
                for b in succ:
                    yield (a, b)

    def added_since(self, earlier: "Relation") -> "Relation":
        """The pairs of ``self`` that ``earlier`` lacks, on ``self``'s
        carrier, for a relation that grew from ``earlier`` by appending
        elements (``earlier``'s carrier is a prefix of ``self``'s): one
        AND-NOT per old row — the row bits gained."""
        nodes = self._nodes
        old = earlier._rows
        if nodes[: len(old)] != earlier._nodes:
            raise ValueError(
                "added_since: the earlier relation's carrier is not a "
                "prefix of this one's"
            )
        rows = [row & ~old[i] for i, row in enumerate(self._rows[: len(old)])]
        rows.extend(self._rows[len(old):])
        gained = Relation.__new__(Relation)
        gained._index = dict(self._index)
        gained._nodes = list(nodes)
        gained._rows = rows
        gained._cols = None
        gained._size = sum(map(_popcount, rows))
        return gained

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def union(self, *others: "Relation") -> "Relation":
        """Union of this relation with ``others`` (carriers merged).

        Row-wise OR when a carrier matches; otherwise the other rows are
        scattered through an index permutation.  An empty ``self`` (the
        base of a reduction step with nothing to extend) takes the first
        other's carrier whole instead of adding its elements one by one."""
        if not self._nodes and others:
            return others[0].union(*others[1:])
        result = self.copy()
        result._cols = None
        rows = result._rows
        index = result._index
        for other in others:
            if other._nodes != result._nodes:
                for e in other._nodes:
                    if e not in index:
                        result.add_element(e)
            if other._nodes == result._nodes:
                for i, mask in enumerate(other._rows):
                    rows[i] |= mask
            else:
                shift = [index[e] for e in other._nodes]
                for oi, mask in enumerate(other._rows):
                    if not mask:
                        continue
                    acc = rows[shift[oi]]
                    while mask:
                        low = mask & -mask
                        acc |= 1 << shift[low.bit_length() - 1]
                        mask &= mask - 1
                    rows[shift[oi]] = acc
        result._size = sum(map(_popcount, rows))
        return result

    def restricted_to(
        self,
        keep: Iterable[Element],
        *,
        carrier: "Optional[Iterable[Element]]" = None,
    ) -> "Relation":
        """The sub-relation induced on the elements of ``keep``.

        Rows are masked whole (successor row AND keep-mask), never pair
        by pair — the restriction is the carried base of every
        incremental reduction step, and per-pair ``add`` calls dominated
        its cost.  ``carrier`` optionally fixes the result's carrier —
        it must contain every kept element of ``self`` (extra elements
        get empty rows); a carrier that *misses* a kept element raises
        :class:`ValueError`, since the result would mention elements
        outside its own carrier.  The reduction uses the explicit
        carrier to place the parent transactions at their Def.-16
        positions.  A restriction of a transitively closed relation is
        itself closed.
        """
        keep_set = set(keep)
        if carrier is None:
            # Result carrier = kept elements in self's index order; sort
            # the (few) kept indices rather than scanning the whole
            # carrier — group restrictions keep a handful of elements of
            # a front-sized relation.
            own = self._index
            kept_indices = sorted(
                i
                for i in map(own.get, keep_set)
                if i is not None
            )
            nodes = self._nodes
            result = Relation(elements=[nodes[i] for i in kept_indices])
        else:
            result = Relation(elements=carrier)
            if result._nodes == self._nodes and keep_set.issuperset(
                self._nodes
            ):
                # Everything kept on the same carrier: a row copy.
                result._rows = list(self._rows)
                result._size = self._size
                result._cols = None
                return result
            missing = [
                e
                for e in self._nodes
                if e in keep_set and e not in result._index
            ]
            if missing:
                raise ValueError(
                    "restricted_to: carrier is missing kept element(s) "
                    f"{missing!r} — the carrier must contain every kept "
                    "element of the relation"
                )
        # Work proportional to |keep|, not to the carrier: build the
        # keep bitmap and the self-index -> result-index permutation
        # from the kept elements alone.
        index = self._index
        ridx = result._index
        keep_mask = 0
        shift: Dict[int, int] = {}
        for e in keep_set:
            i = index.get(e)
            if i is not None:
                keep_mask |= 1 << i
                shift[i] = ridx[e]
        rows = result._rows
        size = 0
        for i, ti in shift.items():
            masked = self._rows[i] & keep_mask
            if not masked:
                continue
            acc = 0
            while masked:
                low = masked & -masked
                acc |= 1 << shift[low.bit_length() - 1]
                masked &= masked - 1
            rows[ti] = acc
            size += _popcount(acc)
        result._size = size
        result._cols = None
        return result

    def mapped(
        self,
        representative: Callable[[Element], Element],
        *,
        drop_loops: bool = True,
    ) -> "Relation":
        """Quotient: replace every element by ``representative(element)``.

        This is the engine of the reduction step (Def. 16): grouping the
        operations of a level-*i* transaction collapses them to the
        transaction node.  Rows are scattered into the quotient rows
        through the representative index.  Self-loops created by the
        collapse are dropped by default (pairs internal to a group carry
        no inter-node constraint).
        """
        reps = [representative(e) for e in self._nodes]
        result = Relation(elements=reps)
        index = result._index
        targets = [index[rep] for rep in reps]
        rows = result._rows
        for i, mask in enumerate(self._rows):
            if not mask:
                continue
            ti = targets[i]
            acc = rows[ti]
            while mask:
                low = mask & -mask
                tj = targets[low.bit_length() - 1]
                mask &= mask - 1
                if drop_loops and tj == ti:
                    continue
                acc |= 1 << tj
            rows[ti] = acc
        result._size = sum(map(_popcount, rows))
        result._cols = None
        return result

    def inverse(self) -> "Relation":
        """The converse relation ``{(b, a) : (a, b) ∈ R}`` — a transpose
        swap: the predecessor bitmaps become the rows and vice versa."""
        return Relation._from_state(
            list(self._nodes),
            list(self._transpose()),
            list(self._rows),
            self._size,
        )

    def transitive_closure(self) -> "Relation":
        """The smallest transitive relation containing this one.

        Reachability propagates through the strongly-connected-component
        condensation in reverse topological order, one row OR per
        external successor — ``O(V·E/w)`` word-packed — and the result
        relation is assembled directly from the closed rows, never pair
        by pair.  (``source R source`` appears exactly when the source
        lies on a cycle, matching the DFS semantics the test suite pins
        down.)
        """
        n = len(self._nodes)
        CLOSURE_COUNTERS["calls"] += 1
        CLOSURE_COUNTERS["rows"] += n
        if not self._size:
            # Nothing to propagate (the common intra-transaction order):
            # skip Tarjan, but count the call as before so closure
            # telemetry does not depend on this shortcut.
            return Relation._from_state(list(self._nodes), [0] * n, None, 0)
        if self.is_transitive():
            # Already closed (a chain, a two-element order, a relation
            # the caller just closed): its closure is itself.  One row
            # test per pair instead of Tarjan; counted like the shortcut
            # above.
            return self.copy()
        rows = self._rows

        # Tarjan SCC (iterative) to handle cycles; components are
        # emitted in reverse topological order (a component is completed
        # only after everything it reaches), so each row is final when
        # consumed.
        closure = [0] * n
        for comp in self._tarjan_components():
            comp_mask = 0
            direct = 0
            for node in comp:
                comp_mask |= 1 << node
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
            if len(comp) > 1 or rows[comp[0]] & (1 << comp[0]):
                reach |= comp_mask
            for node in comp:
                closure[node] = reach
        return Relation._from_state(list(self._nodes), closure, None)

    def add_closed(
        self,
        pairs: Iterable[Pair],
        elements: Iterable[Element] = (),
    ) -> int:
        """Closure of ``self ∪ pairs``, in place, for an **already
        closed** ``self``: the incremental counterpart of
        :meth:`transitive_closure`.  Instead of re-saturating every row,
        each inserted edge ``(a, b)`` unions ``b``'s (final)
        reachability row into the rows of ``a`` and of everything that
        reaches ``a``, touching only rows whose reachability changes.

        Precondition: ``self`` is transitively closed (the result of
        :meth:`transitive_closure` or a previous :meth:`add_closed`, or
        a restriction of one — restriction preserves closedness).  The
        reflexivity convention matches :meth:`transitive_closure`:
        ``x R x`` appears exactly when ``x`` lies on a cycle.
        ``elements`` extends the carrier set (isolated nodes the caller
        wants present); endpoints of ``pairs`` are added automatically.

        It never re-emits the unchanged part of the relation (the
        dominant cost of re-closing a dense observed order from
        scratch): in a closed relation the predecessor bitmap of ``a``
        is exactly the set of rows an edge into ``a`` can affect.
        Returns the number of rows touched (also added to the module
        closure counters).

        >>> grown = Relation([("a", "b"), ("b", "c")]).transitive_closure()
        >>> grown.add_closed([("c", "d")])
        3
        >>> grown == Relation(
        ...     [("a", "b"), ("b", "c"), ("c", "d")]
        ... ).transitive_closure()
        True
        """
        staged = list(pairs)
        index = self._index
        for element in elements:
            self.add_element(element)
        for a, b in staged:
            if a not in index:
                self.add_element(a)
            if b not in index:
                self.add_element(b)
        rows = self._rows
        src_mask = 0
        for a, _b in staged:
            src_mask |= 1 << index[a]
        # When a transpose is already cached keep maintaining it (the
        # cache stays valid for later predecessor queries); otherwise
        # build only the delta sources' columns — the rest of the
        # transpose is never read by the propagation below.
        full_cols = self._cols
        cols = (
            _source_columns(rows, src_mask) if full_cols is None else None
        )
        touched = 0
        for a, b in staged:
            ia, ib = index[a], index[b]
            if (rows[ia] >> ib) & 1:
                continue  # already implied — closure is unchanged
            succ_mask = rows[ib] | (1 << ib)
            if full_cols is not None:
                affected = full_cols[ia] | (1 << ia)
            else:
                affected = cols.get(ia, 0) | (1 << ia)
            while affected:
                low = affected & -affected
                ix = low.bit_length() - 1
                affected &= affected - 1
                new = succ_mask & ~rows[ix]
                if not new:
                    continue
                touched += 1
                rows[ix] |= new
                self._size += _popcount(new)
                bit_x = 1 << ix
                if full_cols is not None:
                    while new:
                        nl = new & -new
                        full_cols[nl.bit_length() - 1] |= bit_x
                        new &= new - 1
                else:
                    hit = new & src_mask
                    while hit:
                        nl = hit & -hit
                        j = nl.bit_length() - 1
                        cols[j] = cols.get(j, 0) | bit_x
                        hit &= hit - 1
        CLOSURE_COUNTERS["calls"] += 1
        CLOSURE_COUNTERS["rows"] += touched
        return touched

    def _tarjan_components(self) -> List[List[int]]:
        """Iterative Tarjan SCC over the row bitmaps; components are
        emitted in reverse topological order."""
        n = len(self._nodes)
        adjacency: List[List[int]] = [
            list(_iter_bits(mask)) for mask in self._rows
        ]
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

    def reaches(self, a: Element, b: Element) -> bool:
        """True if ``b`` is reachable from ``a`` through one or more
        pairs (bitset BFS: one row OR per newly reached node)."""
        ia = self._index.get(a)
        ib = self._index.get(b)
        if ia is None or ib is None:
            return False
        rows = self._rows
        seen = 0
        frontier = rows[ia]
        while frontier & ~seen:
            new = frontier & ~seen
            if (new >> ib) & 1:
                return True
            seen |= new
            frontier = 0
            while new:
                low = new & -new
                frontier |= rows[low.bit_length() - 1]
                new &= new - 1
        return False

    def first_self_loop(self) -> Optional[Element]:
        """The first element (carrier order) with ``x R x``, or ``None``.

        In a **transitively closed** relation (the invariant
        :meth:`transitive_closure` / :meth:`add_closed` maintain:
        ``x R x`` exactly when ``x`` lies on a cycle) this is an O(V)
        acyclicity probe — one bit test per row instead of a full
        traversal.  :func:`closed_orders` uses it to skip the
        :meth:`find_cycle` pass when the closed orders are acyclic.  On
        a relation that is *not* closed the result only reports literal
        self-loops.
        """
        if not self._size:
            return None
        for i, row in enumerate(self._rows):
            if (row >> i) & 1:
                return self._nodes[i]
        return None

    # ------------------------------------------------------------------
    # order-theoretic properties
    # ------------------------------------------------------------------
    def find_cycle(self) -> Optional[List[Element]]:
        """Return one directed cycle ``[a, ..., a]`` or ``None`` if acyclic.

        :meth:`is_acyclic` decides; only a cyclic relation runs the
        pinned witness DFS of :func:`_witness_cycle`, so witness cycles
        are deterministic and identical to the historical dict engine.
        """
        if self.is_acyclic():
            return None
        return _witness_cycle(self._nodes, self._rows, False)

    def is_acyclic(
        self,
        members: Optional[int] = None,
        *,
        skip_self_loops: bool = False,
    ) -> bool:
        """True if the relation, viewed as a digraph, has no cycle.

        ``members`` (a :meth:`mask_of` bitmap) restricts the question to
        the induced subgraph on those elements; ``skip_self_loops``
        ignores reflexive pairs.  Decided on the bitset rows by
        :func:`_rows_acyclic` — no witness is built.
        """
        if not self._size:
            return True
        if members is None:
            members = (1 << len(self._rows)) - 1
        return _rows_acyclic(self._rows, members, skip_self_loops)

    def blocks_acyclic(self, blocks: Iterable[int]) -> bool:
        """True if the subgraph induced on each of the disjoint
        ``blocks`` (:meth:`mask_of` bitmaps) is acyclic: one DFS over
        the rows, each masked to its own block, instead of one
        :meth:`is_acyclic` call per block."""
        rows = self._rows
        masked = [0] * len(rows)
        members = 0
        for block in blocks:
            members |= block
            rest = block
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                masked[i] = rows[i] & block
                rest ^= low
        return _rows_acyclic(masked, members, False)

    def is_irreflexive(self) -> bool:
        """True if no element is related to itself (empty diagonal)."""
        return all(
            not (mask >> i) & 1 for i, mask in enumerate(self._rows)
        )

    def is_transitive(self) -> bool:
        """True if ``a R b`` and ``b R c`` imply ``a R c`` — row-wise:
        every successor's row must be covered by the element's row."""
        rows = self._rows
        for mask in rows:
            remaining = mask
            while remaining:
                low = remaining & -remaining
                if rows[low.bit_length() - 1] & ~mask:
                    return False
                remaining &= remaining - 1
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
    def topological_sort(
        self, members: Optional[int] = None
    ) -> List[Element]:
        """A linear extension of the relation over its carrier set, or
        over the elements of the :meth:`mask_of` bitmap ``members``
        (ignoring pairs that leave it).

        Raises :class:`CycleError` (with a witness) when cyclic.  Ties
        are broken by carrier insertion order — Kahn's algorithm always
        emits the lowest set bit of a ready bitmask — which makes
        results deterministic across runs.
        """
        nodes = self._nodes
        rows = self._rows
        if members is None:
            members = (1 << len(rows)) - 1
        cols = self._transpose()
        in_degree: Dict[int, int] = {}
        ready = 0
        for i in _iter_bits(members):
            degree = in_degree[i] = _popcount(cols[i] & members)
            if not degree:
                ready |= 1 << i
        order: List[Element] = []
        while ready:
            low = ready & -ready
            ready ^= low
            node = low.bit_length() - 1
            order.append(nodes[node])
            succ = rows[node] & members
            while succ:
                bit = succ & -succ
                child = bit.bit_length() - 1
                in_degree[child] -= 1
                if not in_degree[child]:
                    ready |= bit
                succ ^= bit
        if len(order) != len(in_degree):
            cycle = self.restricted_to(self.unpack(members)).find_cycle()
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
        elements = list(self._nodes)
        successors: Dict[Element, List[Element]] = {
            elements[i]: [elements[j] for j in _iter_bits(mask)]
            for i, mask in enumerate(self._rows)
            if mask
        }
        in_degree: Dict[Element, int] = {e: 0 for e in elements}
        for bs in successors.values():
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
                    for child in successors.get(node, ()):
                        in_degree[child] -= 1
                    yield from backtrack()
                    for child in successors.get(node, ()):
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


def _rows_acyclic(rows: List[int], members: int, skip_self_loops: bool) -> bool:
    """Decide whether the digraph of ``rows`` induced on the ``members``
    bitmap is acyclic (with ``skip_self_loops``, reflexive pairs do not
    count).

    A DFS on the masks alone: ``unvisited`` holds the members not yet
    reached and ``grey`` the current path.  A row that hits ``grey`` on
    entry is a back edge — while a node stays on the path, the nodes
    that turn grey below it are black again before it resumes, so one
    test per visit suffices.  Rows need no member masking: ``unvisited``
    and ``grey`` are subsets of ``members``.  Children are taken lowest
    bit first; the order is irrelevant to the verdict, so nothing is
    sorted and no witness is kept.
    """
    unvisited = members
    grey = 0
    path: List[int] = []
    pending: List[int] = []
    while unvisited:
        low = unvisited & -unvisited
        while True:
            unvisited ^= low
            row = rows[low.bit_length() - 1]
            if skip_self_loops:
                if row & grey:
                    return False
                grey |= low
            else:
                grey |= low
                if row & grey:
                    return False
            path.append(low)
            pending.append(row)
            while path:
                nxt = pending[-1] & unvisited
                if nxt:
                    pending[-1] = nxt
                    low = nxt & -nxt
                    break
                grey ^= path.pop()
                pending.pop()
            else:
                break
    return True


def _witness_cycle(
    nodes: List[Element], rows: List[int], skip_self_loops: bool
) -> List[Element]:
    """One directed cycle ``[a, ..., a]`` of the digraph of ``rows``
    over ``nodes``, which must be cyclic (with ``skip_self_loops``,
    cyclic without its reflexive pairs).

    Iterative three-colour DFS (no recursion: histories can be deep).
    Traversal order — roots in carrier order, children in
    :func:`_sort_key` order — is pinned so witness cycles are
    deterministic and identical to the historical dict engine.  The
    carrier is ranked once, so remapping a successor row into a
    rank-indexed bitmap yields the children already sorted: one
    O(n log n) sort instead of a sort (plus key tuples) per visited
    node.
    """
    n = len(nodes)
    ranked = sorted(range(n), key=lambda i: _sort_key(nodes[i]))
    rank_bit = [0] * n
    for r, i in enumerate(ranked):
        rank_bit[i] = 1 << r

    def children(i: int) -> Iterator[int]:
        mask = rows[i]
        merged = 0
        while mask:
            low = mask & -mask
            merged |= rank_bit[low.bit_length() - 1]
            mask ^= low
        if skip_self_loops:
            merged &= ~rank_bit[i]
        out: List[int] = []
        while merged:
            low = merged & -merged
            out.append(ranked[low.bit_length() - 1])
            merged ^= low
        return iter(out)

    WHITE, GREY, BLACK = 0, 1, 2
    colour = [WHITE] * n
    parent: Dict[int, int] = {}
    for root in range(n):
        if colour[root] != WHITE:
            continue
        stack: List[Tuple[int, Iterator[int]]] = [(root, children(root))]
        colour[root] = GREY
        while stack:
            node, kids = stack[-1]
            advanced = False
            for child in kids:
                if colour[child] == WHITE:
                    colour[child] = GREY
                    parent[child] = node
                    stack.append((child, children(child)))
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
                    return [nodes[i] for i in cycle]
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    raise ValueError(  # pragma: no cover - invariant
        "_witness_cycle: the relation is acyclic"
    )


def find_cycle_in_union(
    relations: Iterable["Relation"],
    *,
    skip_self_loops: bool = False,
) -> Optional[List[Element]]:
    """One directed cycle of ``⋃ relations``, or ``None`` when acyclic.

    The union is built once with :meth:`Relation.union` (first-appearance
    carrier order) and :meth:`Relation.is_acyclic` decides on its rows;
    only a cyclic union runs the witness DFS, so the cycle is the one
    :meth:`Relation.find_cycle` would report.  With ``skip_self_loops``
    reflexive pairs are ignored, matching the self-loop discard of
    :meth:`repro.core.front.Front.consistency_violation`.
    """
    pool = list(relations)
    if not pool:
        return None
    union = pool[0].union(*pool[1:])
    if union.is_acyclic(skip_self_loops=skip_self_loops):
        return None
    return _witness_cycle(union._nodes, union._rows, skip_self_loops)


def _few(gained: int, closed: int) -> bool:
    """Whether ``gained`` new pairs are few enough, next to a closed
    base of ``closed`` pairs, to close in edge by edge.

    Per-edge :meth:`Relation.add_closed` wins while the new pairs are no
    more than the closed base (carry-heavy reduction levels, a grown
    schedule's gained declarations), but degenerates when they swamp
    it, where the word-packed from-scratch closure is far cheaper.  The
    crossover was measured on the P2 workloads (deep stacks, dags and
    trees, serial layouts).  Both ways compute the same relation, so
    verdicts and printed fronts do not depend on the choice.
    """
    return gained <= max(16, closed)


def closed_union(base: Relation, pairs: List[Pair]) -> Relation:
    """Close ``base ∪ pairs`` given an already-closed ``base`` (updated
    in place, or replaced), edge by edge when the pairs are
    :func:`_few`."""
    if _few(len(pairs), len(base)):
        base.add_closed(pairs)
        return base
    base.add_all(pairs)
    return base.transitive_closure()


def _known(
    index: Dict[Element, int],
    pairs: List[Pair],
    unknown: Callable[[Element, str], ModelError],
    kind: str,
    report: Optional[Report],
) -> List[Pair]:
    """The ``pairs`` whose both ends ``index`` holds; an end it lacks
    raises ``unknown(end, kind)``, or, given ``report``, is reported
    and its pair dropped."""
    for a, b in pairs:
        if a not in index or b not in index:
            break
    else:
        return pairs
    known: List[Pair] = []
    for a, b in pairs:
        if a in index and b in index:
            known.append((a, b))
            continue
        for end in (a, b):
            if end not in index:
                report_or_raise(report, unknown(end, kind))
    return known


def _intern(
    relation: Relation,
    pairs: List[Pair],
    unknown: Callable[[Element, str], ModelError],
    kind: str,
    report: Optional[Report],
) -> bool:
    """Set the row bit of each of ``pairs`` whose both ends the carrier
    holds (the others as :func:`_known` treats them); whether any row
    changed."""
    index = relation._index
    rows = relation._rows
    before = list(rows)
    remaining = iter(pairs)
    while True:
        try:
            for a, b in remaining:
                # The row subscript is evaluated first: a before b.
                rows[index[a]] |= 1 << index[b]
            break
        except KeyError:
            for end in (a, b):
                if end not in index:
                    report_or_raise(report, unknown(end, kind))
    relation._cols = None
    if rows == before:
        return False
    relation._size = sum(map(_popcount, rows))
    return True


def closed_orders(
    weak: Relation,
    strong: Relation,
    strong_pairs: Iterable[Pair],
    weak_pairs: Iterable[Pair],
    unknown: Callable[[Element, str], ModelError],
    report: Optional[Report] = None,
) -> Tuple[Relation, Relation, Optional[List[Element]]]:
    """The transitively closed ``(weak, strong)`` orders grown from the
    closed, acyclic ``weak ⊇ strong``: strong gains ``strong_pairs``,
    weak those plus ``weak_pairs`` — the shape of Def. 2's intra orders
    and Def. 3's input and output orders, which start from two empty
    orders — and a cycle of the weak order, or ``None`` when it is
    acyclic.

    ``weak`` and ``strong`` share one carrier, which already lists every
    element a pair may name; they are the caller's to give up (closed
    in place or replaced).  Each pair is member-checked, strong pairs
    first; an element outside the carrier raises
    ``unknown(element, "strong" | "weak")``, or, given ``report``, is
    reported (each unknown end of the pair) and the pair dropped.  Pairs
    that are :func:`_few` are closed in edge by edge; more are interned
    into the rows in the member-checking loop and closed from scratch,
    as :func:`closed_union` chooses.  A relation is closed only when it
    gains pairs, and when the weak order stays equal to the strong one
    its closure is a copy of the strong one.  The closed weak order
    decides acyclicity (a row holding its own bit); the cycle is then
    found on the declared pairs, so from empty orders it names the path
    (``T2 -> T3 -> T2``), not the self-loop closure put on ``T2``.
    """
    strong_new = list(strong_pairs)
    weak_new = list(weak_pairs)
    equal = len(weak) == len(strong)  # strong ⊆ weak
    declared: Optional[Relation] = None
    if _few(len(strong_new) + len(weak_new), len(weak)):
        index = weak._index
        strong_new = _known(index, strong_new, unknown, "strong", report)
        weak_new = _known(index, weak_new, unknown, "weak", report)
        if not strong_new and not weak_new:
            return weak, strong, None
        if strong_new:
            strong.add_closed(strong_new)
        if equal and all(pair in strong for pair in weak_new):
            weak = strong.copy()
        else:
            weak.add_closed(strong_new + weak_new)
    else:
        strong_grew = _intern(strong, strong_new, unknown, "strong", report)
        declared = strong.copy()
        if not equal:
            rows = declared._rows
            for i, row in enumerate(weak._rows):
                rows[i] |= row
            declared._size = sum(map(_popcount, rows))
        weak_grew = _intern(declared, weak_new, unknown, "weak", report)
        if strong_grew:
            strong = strong.transitive_closure()
        if equal and not weak_grew:
            weak = strong.copy()
        elif len(declared) != len(weak):
            weak = declared.transitive_closure()
    if weak.first_self_loop() is None:
        return weak, strong, None
    if declared is None:
        declared = Relation(strong_new, elements=weak._nodes)
        declared.add_all(weak_new)
    return weak, strong, declared.find_cycle() or weak.find_cycle()


def total_order_from_sequence(sequence: Iterable[Element]) -> Relation:
    """Build the total order induced by a sequence (adjacent pairs only;
    take the transitive closure when the full order matters)."""
    relation = Relation()
    previous: Optional[Element] = None
    first = True
    for element in sequence:
        relation.add_element(element)
        if not first:
            relation.add(previous, element)
        previous = element
        first = False
    return relation


def total_order_relation(sequence: Iterable[Element]) -> Relation:
    """The *full* (transitively closed) total order of a duplicate-free
    sequence, assembled directly as bitset rows: element ``i``'s row is
    every later bit — O(n) row constructions instead of O(n²) ``add``
    calls.  This is the serial-front constructor of Theorem 1's proof."""
    nodes = list(sequence)
    n = len(nodes)
    if len(set(nodes)) != n:
        raise ValueError("total_order_relation: sequence has duplicates")
    full = (1 << n) - 1
    rows = [(full >> (i + 1)) << (i + 1) for i in range(n)]
    return Relation._from_state(nodes, rows, None, n * (n - 1) // 2)
