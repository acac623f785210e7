"""Chaos tests for the sharded fan-out's fault isolation (repro.core.sharding).

Injected faults (repro.common.faults) drive every defense deterministically:
per-shard timeouts, bounded retry, circuit breakers, and the strict/degraded
degradation modes — and the fault-free guarded path must stay bit-identical
to an unguarded fan-out.
"""

import time

import numpy as np
import pytest

from repro.common import faults
from repro.common.errors import InjectedFault, PartialResultError
from repro.common.faults import FaultPlan, FaultSpec
from repro.common.resilience import FaultPolicy, RetryPolicy
from repro.core.delta import DeltaBufferedIndex
from repro.core.sharding import ShardedIndex
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.engine import execute_full_scan
from repro.query.query import Query
from repro.storage.table import Table

CONFIG = TsunamiConfig(optimizer_iterations=1)


def tsunami_factory():
    return TsunamiIndex(CONFIG)


def delta_factory():
    return DeltaBufferedIndex(tsunami_factory, merge_threshold=1_000_000)


def make_table(num_rows: int = 3_000, seed: int = 23) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 10_000, num_rows)
    y = x * 2 + rng.integers(-40, 41, num_rows)
    z = rng.integers(0, 1_000, num_rows)
    return Table.from_arrays("chaos", {"x": x, "y": y, "z": z})


def make_queries() -> list[Query]:
    """Wide queries that hit every shard plus narrow ones that prune."""
    queries = [
        Query.from_ranges({"x": (0, 10_000)}),
        Query.from_ranges({"x": (0, 10_000)}, aggregate="sum", aggregate_column="y"),
        Query.from_ranges({"x": (0, 10_000)}, aggregate="avg", aggregate_column="y"),
        Query.from_ranges({"z": (0, 500)}),
    ]
    for low in (100, 4_000, 9_000):
        queries.append(Query.from_ranges({"x": (low, low + 400)}))
    return queries


def build_sharded(policy: FaultPolicy | None = None) -> ShardedIndex:
    table = make_table()
    index = ShardedIndex(
        tsunami_factory, num_shards=4, shard_dimension="x", fault_policy=policy
    )
    index.build(table)
    return index


@pytest.fixture(scope="module")
def expected():
    """Ground-truth values for make_queries over make_table (full scan)."""
    table = make_table()
    return [execute_full_scan(table, query)[0] for query in make_queries()]


class TestFaultFreeParity:
    def test_guarded_path_is_bit_identical_without_faults(self, expected):
        """A non-default policy must not change fault-free results at all."""
        policy = FaultPolicy(
            shard_timeout_seconds=30.0,
            retry=RetryPolicy(max_retries=2, backoff_seconds=0.0),
            breaker_failure_threshold=2,
            degradation="degraded",
        )
        guarded = build_sharded(policy)
        plain = build_sharded(None)
        queries = make_queries()
        try:
            guarded_results = guarded.execute_batch(queries)
            plain_results = plain.execute_batch(queries)
        finally:
            guarded.close()
            plain.close()
        for got, reference, truth in zip(guarded_results, plain_results, expected):
            assert got.value == reference.value
            assert got.value == truth
        assert guarded.fault_stats.as_dict() == {
            "shard_failures": 0,
            "shard_timeouts": 0,
            "shard_retries": 0,
            "shards_skipped_open": 0,
            "partial_serves": 0,
        }


class TestStrictDegradation:
    def test_persistent_shard_failure_raises_partial_result_error(self):
        index = build_sharded(FaultPolicy(degradation="strict"))
        queries = make_queries()
        plan = FaultPlan([FaultSpec(site="shard.execute", key=1)])
        with faults.active(plan):
            with pytest.raises(PartialResultError) as excinfo:
                index.execute_batch(queries)
        error = excinfo.value
        assert error.failed_shards == [1]
        assert error.skipped_shards == []
        assert "InjectedFault" in error.failure_reasons[1]
        # Partial aggregates for the whole batch ride on the exception.
        assert len(error.partial_results) == len(queries)
        assert index.fault_stats.shard_failures == 1
        assert index.fault_stats.partial_serves == 1

    def test_execute_single_query_raises_with_partial(self):
        index = build_sharded(FaultPolicy(degradation="strict"))
        plan = FaultPlan([FaultSpec(site="shard.execute", key=0)])
        with faults.active(plan):
            with pytest.raises(PartialResultError) as excinfo:
                index.execute(Query.from_ranges({"x": (0, 10_000)}))
        assert len(excinfo.value.partial_results) == 1

    def test_explain_reports_last_failure_accounting(self):
        index = build_sharded(FaultPolicy(degradation="strict"))
        wide = Query.from_ranges({"x": (0, 10_000)})
        plan = FaultPlan([FaultSpec(site="shard.execute", key=2, max_triggers=1)])
        with faults.active(plan):
            with pytest.raises(PartialResultError):
                index.execute(wide)
        explanation = index.explain(wide)
        assert explanation["degradation"] == "strict"
        assert explanation["shards_failed"] == [2]
        assert explanation["shards_skipped_open"] == []
        assert len(explanation["circuit_breakers"]) == 4


class TestDegradedMode:
    def test_partial_answer_over_surviving_shards(self, expected):
        index = build_sharded(FaultPolicy(degradation="degraded"))
        queries = make_queries()
        plan = FaultPlan([FaultSpec(site="shard.execute", key=1)])
        with faults.active(plan):
            degraded = index.execute_batch(queries)
        # The count over the full domain is missing exactly shard 1's rows.
        missing = index.shards[1].table.num_rows
        assert degraded[0].value == expected[0] - missing
        assert index.fault_stats.partial_serves == 1
        assert index.explain(queries[0])["shards_failed"] == [1]
        # Once the fault clears, answers return to exact.
        recovered = index.execute_batch(queries)
        for got, truth in zip(recovered, expected):
            assert got.value == truth
        assert index.explain(queries[0])["shards_failed"] == []

    def test_describe_carries_fault_stats_and_breakers(self):
        index = build_sharded(FaultPolicy(degradation="degraded"))
        plan = FaultPlan([FaultSpec(site="shard.execute", key=3, max_triggers=2)])
        with faults.active(plan):
            index.execute(Query.from_ranges({"x": (0, 10_000)}))
        info = index.describe()
        assert info["degradation"] == "degraded"
        assert info["fault_stats"]["shard_failures"] == 1
        assert len(info["circuit_breakers"]) == 4
        assert info["circuit_breakers"][3]["consecutive_failures"] == 1


class TestRetries:
    def test_transient_failure_is_absorbed_by_retry(self, expected):
        policy = FaultPolicy(
            retry=RetryPolicy(max_retries=2, backoff_seconds=0.001, seed=5),
            degradation="strict",
        )
        index = build_sharded(policy)
        queries = make_queries()
        plan = FaultPlan([FaultSpec(site="shard.execute", key=2, max_triggers=1)])
        with faults.active(plan):
            results = index.execute_batch(queries)  # must not raise
        for got, truth in zip(results, expected):
            assert got.value == truth
        assert index.fault_stats.shard_retries == 1
        assert index.fault_stats.shard_failures == 0
        # A retry-survived flake must not creep the breaker toward open.
        assert index.describe()["circuit_breakers"][2]["consecutive_failures"] == 0

    def test_retries_exhausted_counts_one_failure(self):
        policy = FaultPolicy(
            retry=RetryPolicy(max_retries=2, backoff_seconds=0.0),
            degradation="degraded",
        )
        index = build_sharded(policy)
        plan = FaultPlan([FaultSpec(site="shard.execute", key=0)])
        with faults.active(plan):
            index.execute(Query.from_ranges({"x": (0, 10_000)}))
        assert plan.injected("shard.execute") == 3  # initial try + 2 retries
        assert index.fault_stats.shard_retries == 2
        assert index.fault_stats.shard_failures == 1
        assert index.describe()["circuit_breakers"][0]["consecutive_failures"] == 1


class TestCircuitBreaker:
    def test_open_breaker_skips_without_executing_then_recovers(self, expected):
        policy = FaultPolicy(
            breaker_failure_threshold=2,
            breaker_cooldown_seconds=0.05,
            degradation="degraded",
        )
        index = build_sharded(policy)
        wide = Query.from_ranges({"x": (0, 10_000)})
        plan = FaultPlan([FaultSpec(site="shard.execute", key=1)])
        with faults.active(plan):
            index.execute(wide)
            index.execute(wide)
            assert index.explain(wide)["circuit_breakers"][1] == "open"
            executed_before_skip = plan.injected("shard.execute")
            index.execute(wide)  # breaker open: shard 1 never executed
            assert plan.injected("shard.execute") == executed_before_skip
        assert index.fault_stats.shards_skipped_open == 1
        assert index.explain(wide)["shards_skipped_open"] == [1]
        # Fault cleared and cooldown elapsed: the half-open probe succeeds,
        # the breaker closes, and answers return to exact.
        time.sleep(0.06)
        recovered = index.execute(wide)
        assert recovered.value == expected[0]
        assert index.explain(wide)["circuit_breakers"][1] == "closed"

    def test_strict_mode_reports_skipped_shards(self):
        policy = FaultPolicy(
            breaker_failure_threshold=1,
            breaker_cooldown_seconds=60.0,
            degradation="strict",
        )
        index = build_sharded(policy)
        wide = Query.from_ranges({"x": (0, 10_000)})
        plan = FaultPlan([FaultSpec(site="shard.execute", key=2, max_triggers=1)])
        with faults.active(plan):
            with pytest.raises(PartialResultError) as first:
                index.execute(wide)
            assert first.value.failed_shards == [2]
            with pytest.raises(PartialResultError) as second:
                index.execute(wide)
        assert second.value.failed_shards == []
        assert second.value.skipped_shards == [2]
        assert "CircuitOpenError" in second.value.failure_reasons[2]


class TestTimeouts:
    def test_hung_shard_is_timed_out_and_accounted(self, expected):
        policy = FaultPolicy(
            shard_timeout_seconds=0.2,
            degradation="degraded",
        )
        index = build_sharded(policy)
        wide = Query.from_ranges({"x": (0, 10_000)})
        plan = FaultPlan(
            [FaultSpec(site="shard.execute", key=0, kind="hang", delay_seconds=30.0)]
        )
        try:
            with faults.active(plan):
                start = time.monotonic()
                result = index.execute(wide)
                elapsed = time.monotonic() - start
            # Partial answer, delivered near the budget — not after 30s.
            assert elapsed < 5.0
            missing = index.shards[0].table.num_rows
            assert result.value == expected[0] - missing
            assert index.fault_stats.shard_timeouts == 1
            assert "ShardTimeoutError" in index._last_fan_out["failure_reasons"][0]
        finally:
            index.close()

    def test_timeout_forces_pool_even_when_serial(self):
        policy = FaultPolicy(shard_timeout_seconds=5.0)
        index = build_sharded(policy)
        try:
            index.execute(Query.from_ranges({"x": (0, 10_000)}))
            assert index._pool is not None
            assert index._pool._max_workers == len(index.shards)
        finally:
            index.close()


class TestMergeFaults:
    def test_shard_merge_site_fires_per_shard(self):
        table = make_table()
        index = ShardedIndex(delta_factory, num_shards=3, shard_dimension="x")
        index.build(table)
        index.insert({"x": 5, "y": 10, "z": 1})
        plan = FaultPlan([FaultSpec(site="shard.merge", key=1)])
        with faults.active(plan):
            with pytest.raises(InjectedFault):
                index.merge()
        # Shard 0 merged before the fault hit shard 1's call site.
        assert plan.injections[0].key == 1


class TestCloseSafety:
    def test_close_is_idempotent_and_index_survives(self):
        index = build_sharded(FaultPolicy(shard_timeout_seconds=5.0))
        wide = Query.from_ranges({"x": (0, 10_000)})
        first = index.execute(wide)
        index.close()
        index.close()  # idempotent
        again = index.execute(wide)  # pool lazily recreated
        assert again.value == first.value
        index.close()
