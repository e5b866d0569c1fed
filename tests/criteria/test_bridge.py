"""The degenerate-case anchor: Comp-C == CSR on flat histories."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.criteria.classical import (
    FlatHistory,
    FlatOp,
    is_conflict_serializable,
)
from tests.criteria.bridge import comp_c_of_flat, flat_to_composite
from tests.workloads.flat import FlatWorkloadConfig, random_flat_history


class TestEmbedding:
    def test_structure(self):
        h = FlatHistory.parse("r1[x] w2[x] w1[y]")
        system = flat_to_composite(h)
        assert system.order == 1
        assert set(system.roots) == {"T1", "T2"}
        assert len(system.leaves) == 3

    def test_program_order_embedded(self):
        h = FlatHistory.parse("r1[x] w1[y]")
        system = flat_to_composite(h)
        txn = system.schedule("DB").transactions["T1"]
        a, b = txn.operations
        assert txn.weakly_ordered(a, b)

    def test_known_verdicts(self):
        assert comp_c_of_flat(FlatHistory.parse("r1[x] w1[x] r2[x]"))
        assert not comp_c_of_flat(
            FlatHistory.parse("r1[x] r2[x] w1[x] w2[x]")
        )


@st.composite
def histories(draw):
    n_txn = draw(st.integers(1, 4))
    n_ops = draw(st.integers(1, 10))
    ops = []
    for _ in range(n_ops):
        ops.append(
            FlatOp(
                f"T{draw(st.integers(1, n_txn))}",
                draw(st.sampled_from("rw")),
                draw(st.sampled_from("xyz")),
            )
        )
    return FlatHistory(ops)


@given(histories())
@settings(max_examples=150, deadline=None)
def test_comp_c_equals_csr_on_flat_histories(history):
    assert comp_c_of_flat(history) == is_conflict_serializable(history)


def test_agreement_on_generated_workloads():
    for seed in range(25):
        history = random_flat_history(
            FlatWorkloadConfig(
                seed=seed, transactions=4, ops_per_transaction=4, items=3
            )
        )
        assert comp_c_of_flat(history) == is_conflict_serializable(history)
