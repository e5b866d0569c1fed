"""Tests for the parallel batch runner and its determinism contract."""

import dataclasses

import pytest

from repro.analysis.batch import (
    MERGE_EXEMPT_FIELDS,
    MERGE_RULES,
    chaos_grid,
    merge_metrics,
    run_batch,
)
from repro.analysis.protocols import (
    evaluate_protocol,
    evaluate_protocol_under_faults,
)
from repro.exceptions import BatchTaskError
from repro.obs import Telemetry
from repro.simulator.metrics import Metrics
from repro.workloads.topologies import stack_topology


def square(task):
    return task * task


def fail_on_three(task):
    if task == 3:
        raise ValueError("boom")
    return task


class TestRunBatch:
    def test_serial_matches_map(self):
        assert run_batch(range(7), square) == [n * n for n in range(7)]

    def test_parallel_results_in_task_order(self):
        assert run_batch(range(20), square, workers=4) == [
            n * n for n in range(20)
        ]

    def test_single_task_stays_in_process(self):
        assert run_batch([5], square, workers=8) == [25]

    def test_empty(self):
        assert run_batch([], square, workers=4) == []

    def test_worker_exception_carries_task(self):
        """A raising worker surfaces as BatchTaskError naming the
        failing task — ProcessPoolExecutor.map alone loses which cell
        died."""
        with pytest.raises(BatchTaskError) as excinfo:
            run_batch([1, 2, 3], fail_on_three)
        assert excinfo.value.index == 2
        assert excinfo.value.task == 3
        assert "ValueError" in str(excinfo.value)
        assert "boom" in excinfo.value.worker_traceback

        with pytest.raises(BatchTaskError) as excinfo:
            run_batch([1, 2, 3, 4], fail_on_three, workers=2)
        assert excinfo.value.index == 2
        assert excinfo.value.task == 3
        assert "boom" in excinfo.value.worker_traceback

    def test_earliest_failure_wins(self):
        """With several failing cells, the error is deterministic: the
        earliest failing task in submission order."""
        with pytest.raises(BatchTaskError) as excinfo:
            run_batch([3, 1, 3, 3], fail_on_three, workers=2)
        assert excinfo.value.index == 0
        assert excinfo.value.task == 3

    def test_derived_chunksize(self):
        """The chunked-map path sizes its chunks from the task and
        worker counts (four chunks per worker) and notes the size."""
        tele = Telemetry()
        assert run_batch(range(10), square, workers=2, telemetry=tele) == [
            n * n for n in range(10)
        ]
        (run,) = [
            e for e in tele.collect()
            if e.kind == "exit" and e.name == "batch.run"
        ]
        assert dict(run.fields)["chunksize"] == 2


class TestMergeMetrics:
    def _sample(self, commits, end_time, reason_count):
        metrics = Metrics(
            commits=commits,
            gave_up=1,
            operations=10 * commits,
            response_times=[0.5 * commits, 1.5],
            end_time=end_time,
            aborts_by_reason={"conflict": reason_count},
            retries_by_reason={"conflict": reason_count - 1}
            if reason_count
            else {},
            giveups_by_reason={"deadlock": 1},
            faults_injected={"crash": reason_count},
            downtime={"c1": 0.25 * commits},
            components=3,
        )
        return metrics

    def test_counters_sum_and_horizons_add(self):
        merged = merge_metrics([self._sample(2, 4.0, 3), self._sample(5, 2.0, 1)])
        assert merged.commits == 7
        assert merged.gave_up == 2
        assert merged.operations == 70
        # Horizons add: each part observed its components for its own
        # end_time, so the merged capacity window is their sum.
        assert merged.end_time == 6.0
        assert merged.components == 3
        assert merged.aborts_by_reason == {"conflict": 4}
        assert merged.giveups_by_reason == {"deadlock": 2}
        assert merged.faults_injected == {"crash": 4}
        assert merged.downtime == {"c1": 0.25 * 7}
        assert merged.response_times == [1.0, 1.5, 2.5, 1.5]

    def test_merge_of_one_is_identity(self):
        part = self._sample(2, 4.0, 3)
        merged = merge_metrics([part])
        assert merged.commits == part.commits
        assert merged.response_times == part.response_times
        assert merged.aborts_by_reason == part.aborts_by_reason
        assert merged.end_time == part.end_time
        assert merged.availability == part.availability

    def test_every_metrics_field_has_a_merge_rule(self):
        """Regression for the dropped-counter bug: every Metrics
        dataclass field must be merged or explicitly exempted, so a
        newly added counter cannot silently vanish from sharded reports
        (the fate of ``static_precheck_skips`` before MERGE_RULES)."""
        names = {spec.name for spec in dataclasses.fields(Metrics)}
        covered = set(MERGE_RULES) | set(MERGE_EXEMPT_FIELDS)
        assert names <= covered, f"unmerged fields: {sorted(names - covered)}"
        # and no stale rules for fields that no longer exist
        assert set(MERGE_RULES) <= names

    def test_static_precheck_skips_survive_merge(self):
        a = Metrics(static_precheck_skips=3)
        b = Metrics(static_precheck_skips=4)
        assert merge_metrics([a, b]).static_precheck_skips == 7

    def test_merged_availability_is_mean_of_equal_horizon_parts(self):
        """Regression for the skewed-availability bug: summing downtime
        while taking max(end_time) divided two runs' downtime by one
        run's horizon.  With summed horizons, merging equal-horizon
        parts yields exactly the mean of their availabilities."""
        a = Metrics(end_time=10.0, components=2, downtime={"c1": 2.0})
        b = Metrics(end_time=10.0, components=2, downtime={"c1": 6.0})
        merged = merge_metrics([a, b])
        assert merged.end_time == 20.0
        assert merged.availability == pytest.approx(
            (a.availability + b.availability) / 2
        )
        # sanity: the old max-horizon semantics would have reported
        # 1 - 8/(2*10) = 0.6, below BOTH parts' own numbers
        assert merged.availability == pytest.approx(0.8)


class TestParallelDeterminism:
    """--workers N must be bit-identical to --workers 1."""

    def test_evaluate_protocol(self):
        spec = stack_topology(2)
        serial = evaluate_protocol(
            spec, "cc", clients=3, seeds=(0, 1, 2, 3), workers=1
        )
        parallel = evaluate_protocol(
            spec, "cc", clients=3, seeds=(0, 1, 2, 3), workers=2
        )
        assert serial == parallel

    def test_chaos_grid(self):
        spec = stack_topology(2)
        serial = chaos_grid(
            spec, ("cc", "s2pl"), (0, 1), workers=1, intensity=0.5
        )
        parallel = chaos_grid(
            spec, ("cc", "s2pl"), (0, 1), workers=2, intensity=0.5
        )
        assert serial == parallel

    def test_evaluate_protocol_under_faults(self):
        spec = stack_topology(2)
        serial = evaluate_protocol_under_faults(
            spec, "cc", seeds=(0, 1, 2), intensity=0.5, workers=1
        )
        parallel = evaluate_protocol_under_faults(
            spec, "cc", seeds=(0, 1, 2), intensity=0.5, workers=3
        )
        assert serial == parallel
