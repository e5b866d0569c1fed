"""Def. 3 axiom 1 decided on rows, against the plain pair-set reading.

:meth:`Schedule._axiom1_holds` decides axiom 1 without sorting the
conflicts or building a violation, and :meth:`Schedule.iter_axiom_violations`
walks the sorted conflict pairs only when it says the axiom fails.  On
random schedules built with ``validate=False`` the decider must agree
with the definition read over plain sets of pairs, and the generator
must yield what the unconditional per-pair walk (kept below as
``reference_violations``) yields, in the same order and wording.

The strategy draws transactions with no operations, conflicts inside
one transaction, weak input pairs in both directions relative to the
sorted conflict pair, and conflicting pairs ordered in either direction
or not at all, so a pair may be ordered only in the row of its later
(sorted) endpoint.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import Schedule
from repro.core.transaction import Transaction
from repro.exceptions import ScheduleAxiomError


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def axiom1_holds_by_definition(schedule):
    """Def. 3.1 over plain sets: every conflicting pair of operations
    of distinct transactions is weakly output-ordered, in the direction
    of the weak input when the input orders their transactions."""
    weak_in = set(schedule.weak_input.pairs())
    weak_out = set(schedule.weak_output.pairs())
    for pair in schedule.conflicts:
        a, b = tuple(pair)
        ta, tb = schedule.transaction_of(a), schedule.transaction_of(b)
        if ta == tb:
            continue
        if (ta, tb) in weak_in and (a, b) not in weak_out:
            return False
        if (tb, ta) in weak_in and (b, a) not in weak_out:
            return False
        if (a, b) not in weak_out and (b, a) not in weak_out:
            return False
    return True


def reference_violations(schedule):
    """The per-pair axiom-1 walk run unconditionally, followed by the
    generator's other axioms: what ``iter_axiom_violations`` yielded
    before axiom 1 was decided on rows."""
    weak_in = schedule.weak_input
    weak_out = schedule.weak_output
    name = schedule.name
    for pair in sorted(schedule.conflicts, key=sorted):
        a, b = sorted(pair)
        ta, tb = schedule.transaction_of(a), schedule.transaction_of(b)
        if ta == tb:
            continue
        if (ta, tb) in weak_in:
            if (a, b) not in weak_out:
                yield ScheduleAxiomError(
                    "1a",
                    f"{name}: {ta} -> {tb} but conflicting "
                    f"{a},{b} not weakly ordered {a} < {b}",
                    schedule=name,
                    operations=(a, b),
                    transactions=(ta, tb),
                )
        elif (tb, ta) in weak_in:
            if (b, a) not in weak_out:
                yield ScheduleAxiomError(
                    "1b",
                    f"{name}: {tb} -> {ta} but conflicting "
                    f"{b},{a} not weakly ordered {b} < {a}",
                    schedule=name,
                    operations=(b, a),
                    transactions=(tb, ta),
                )
        elif not weak_out.orders(a, b):
            yield ScheduleAxiomError(
                "1c",
                f"{name}: conflicting operations {a},{b} of "
                "unordered transactions are not output-ordered",
                schedule=name,
                operations=(a, b),
                transactions=(ta, tb),
            )
    for violation in schedule.iter_axiom_violations():
        if not violation.axiom.startswith("1"):
            yield violation


def described(violations):
    return [
        (v.axiom, str(v), v.operations, v.transactions) for v in violations
    ]


# ----------------------------------------------------------------------
# random schedules
# ----------------------------------------------------------------------
@st.composite
def schedules(draw):
    """A schedule built with ``validate=False``: acyclic weak input and
    output (each follows a drawn permutation), conflicts anywhere."""
    sizes = draw(st.lists(st.integers(0, 3), min_size=2, max_size=5))
    transactions, ops = [], []
    for t, size in enumerate(sizes):
        names = [f"o{t}{k}" for k in range(size)]
        transactions.append(Transaction(f"T{t}", names))
        ops.extend(names)
    t_rank = draw(st.permutations(range(len(sizes))))
    weak_input = [
        (f"T{i}", f"T{j}")
        for i in range(len(sizes))
        for j in range(len(sizes))
        if t_rank[i] < t_rank[j] and draw(st.booleans())
    ]
    conflicts, weak_output = [], []
    if len(ops) >= 2:
        o_rank = dict(zip(ops, draw(st.permutations(range(len(ops))))))
        pairs = [(a, b) for i, a in enumerate(ops) for b in ops[i + 1:]]
        for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)):
            conflicts.append((a, b) if draw(st.booleans()) else (b, a))
        for a, b in pairs:
            if draw(st.booleans()):
                continue  # left unordered (the closure may still order it)
            weak_output.append((a, b) if o_rank[a] < o_rank[b] else (b, a))
    return Schedule(
        "S",
        transactions,
        conflicts=conflicts,
        weak_input=weak_input,
        weak_output=weak_output,
        validate=False,
    )


@settings(max_examples=400, deadline=None)
@given(schedules())
def test_decider_is_the_definition(schedule):
    assert schedule._axiom1_holds() == axiom1_holds_by_definition(schedule)


@settings(max_examples=400, deadline=None)
@given(schedules())
def test_generator_yields_the_per_pair_walk(schedule):
    assert described(schedule.iter_axiom_violations()) == described(
        reference_violations(schedule)
    )


# ----------------------------------------------------------------------
# the named cases, one schedule each
# ----------------------------------------------------------------------
def build(conflicts, weak_input=(), weak_output=(), sizes=(1, 1)):
    transactions = [
        Transaction(f"T{t}", [f"o{t}{k}" for k in range(size)])
        for t, size in enumerate(sizes)
    ]
    return Schedule(
        "S",
        transactions,
        conflicts=conflicts,
        weak_input=weak_input,
        weak_output=weak_output,
        validate=False,
    )


def axioms(schedule):
    return [v.axiom for v in schedule.iter_axiom_violations()]


def test_transactions_without_operations():
    schedule = build(
        [("o10", "o30")], weak_output=[("o30", "o10")], sizes=(0, 1, 0, 1)
    )
    assert schedule._axiom1_holds()
    assert axioms(schedule) == []
    unordered = build([("o10", "o30")], sizes=(0, 1, 0, 1))
    assert not unordered._axiom1_holds()
    assert axioms(unordered) == ["1c"]


def test_conflict_inside_one_transaction_needs_no_order():
    schedule = build([("o00", "o01")], sizes=(2, 1))
    assert schedule._axiom1_holds()
    assert axioms(schedule) == []


def test_input_order_forward_and_backward():
    forward = build([("o00", "o10")], weak_input=[("T0", "T1")])
    assert not forward._axiom1_holds()
    assert axioms(forward) == ["1a"]
    backward = build([("o00", "o10")], weak_input=[("T1", "T0")])
    assert not backward._axiom1_holds()
    assert axioms(backward) == ["1b"]
    # ordered against the input: 1a from the sorted pair's side
    against = build(
        [("o00", "o10")],
        weak_input=[("T0", "T1")],
        weak_output=[("o10", "o00")],
    )
    assert not against._axiom1_holds()
    assert axioms(against) == ["1a"]
    along = build(
        [("o00", "o10")],
        weak_input=[("T1", "T0")],
        weak_output=[("o10", "o00")],
    )
    assert along._axiom1_holds()
    assert axioms(along) == []


def test_pair_ordered_only_in_the_later_endpoints_row():
    """``o10 ≺ o00`` lives in the row of ``o10``, the later of the
    sorted pair: unordered transactions accept it."""
    schedule = build([("o00", "o10")], weak_output=[("o10", "o00")])
    assert schedule._axiom1_holds()
    assert axioms(schedule) == []
