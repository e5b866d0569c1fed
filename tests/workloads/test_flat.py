"""Unit tests for flat workload generation."""

import pytest

from repro.criteria.classical import is_conflict_serializable
from repro.exceptions import WorkloadError
from tests.workloads.flat import (
    FlatWorkloadConfig,
    flat_history_batch,
    random_flat_history,
)


class TestFlatGeneration:
    def test_shape(self):
        h = random_flat_history(
            FlatWorkloadConfig(transactions=3, ops_per_transaction=4)
        )
        assert len(h) == 12
        assert len(h.transactions) == 3

    def test_serial_flag(self):
        h = random_flat_history(FlatWorkloadConfig(serial=True))
        assert h.is_serial()
        assert is_conflict_serializable(h)

    def test_deterministic(self):
        a = random_flat_history(FlatWorkloadConfig(seed=3))
        b = random_flat_history(FlatWorkloadConfig(seed=3))
        assert str(a) == str(b)

    def test_program_order_preserved_per_transaction(self):
        cfg = FlatWorkloadConfig(seed=1, transactions=3, ops_per_transaction=5)
        serial = random_flat_history(
            FlatWorkloadConfig(seed=1, transactions=3, ops_per_transaction=5, serial=True)
        )
        interleaved = random_flat_history(cfg)
        for txn in interleaved.transactions:
            assert interleaved.operations_of(txn) == serial.operations_of(txn)

    def test_skew_concentrates_items(self):
        hot = random_flat_history(
            FlatWorkloadConfig(seed=0, transactions=8, ops_per_transaction=8, item_skew=2.5)
        )
        cold = random_flat_history(
            FlatWorkloadConfig(seed=0, transactions=8, ops_per_transaction=8, item_skew=0.0)
        )
        assert len(hot.items) <= len(cold.items)

    def test_bad_config(self):
        with pytest.raises(WorkloadError):
            random_flat_history(FlatWorkloadConfig(transactions=0))

    def test_batch(self):
        batch = flat_history_batch(FlatWorkloadConfig(seed=10), 4)
        assert len(batch) == 4
        assert str(batch[0]) != str(batch[1])
