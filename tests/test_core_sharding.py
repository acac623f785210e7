"""Tests for the scale-out serving layer (repro.core.sharding).

The sharded index is a pure serving optimization: for every aggregate, every
batch size, and with or without the timeout-guarded worker pool, its answers
must be bit-identical
to the equivalent single index — including empty selections, queries pruned
down to a subset of shards, and shards holding pending (unmerged) inserts.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import (
    PartialAggregate,
    avg_as_sum,
    combine_partial_results,
)
from repro.common.errors import IndexBuildError, QueryError, SchemaError
from repro.common.resilience import FaultPolicy
from repro.core.delta import DeltaBufferedIndex
from repro.core.sharding import ShardedIndex, balanced_cuts
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.engine import QueryEngine, execute_full_scan
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.scan import ScanStats
from repro.storage.table import Table

CONFIG = TsunamiConfig(optimizer_iterations=1)
#: A shard timeout is what puts the fan-out on the worker pool.
GUARDED = FaultPolicy(shard_timeout_seconds=30.0)


def tsunami_factory():
    return TsunamiIndex(CONFIG)


def delta_factory():
    return DeltaBufferedIndex(tsunami_factory, merge_threshold=1_000_000)


def make_table(num_rows: int = 6_000, seed: int = 11) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 10_000, num_rows)
    y = x * 3 + rng.integers(-60, 61, num_rows)
    z = rng.integers(0, 1_000, num_rows)
    return Table.from_arrays("shardme", {"x": x, "y": y, "z": z})


def make_queries(seed: int = 12) -> list[Query]:
    """Every aggregate, narrow and wide selections, plus empty selections."""
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(24):
        low = int(rng.integers(0, 9_200))
        queries.append(
            Query.from_ranges({"x": (low, low + 600), "z": (0, int(rng.integers(100, 900)))})
        )
    for aggregate in ("count", "sum", "avg", "min", "max"):
        for _ in range(4):
            low = int(rng.integers(0, 8_500))
            queries.append(
                Query.from_ranges(
                    {"x": (low, low + int(rng.integers(200, 1_500)))},
                    aggregate=aggregate,
                    aggregate_column=None if aggregate == "count" else "y",
                )
            )
        # An empty selection per aggregate (outside the data domain).
        queries.append(
            Query.from_ranges(
                {"x": (50_000, 50_100)},
                aggregate=aggregate,
                aggregate_column=None if aggregate == "count" else "y",
            )
        )
    return queries


def make_workload(queries: list[Query]) -> Workload:
    return Workload([q for q in queries if q.aggregate == "count"], name="shard")


def assert_same_value(got: float, expected: float, context=None) -> None:
    if np.isnan(expected):
        assert np.isnan(got), context
    else:
        assert got == expected, context


@pytest.fixture()
def sharded_and_single():
    queries = make_queries()
    workload = make_workload(queries)
    single = tsunami_factory().build(make_table(), workload)
    sharded = ShardedIndex(tsunami_factory, num_shards=4, shard_dimension="x")
    sharded.build(make_table(), workload)
    return queries, single, sharded


class TestBalancedCuts:
    def test_uniform_values_balanced(self):
        values = np.arange(10_000)
        cuts = balanced_cuts(values, 4)
        assert len(cuts) == 3
        assigned = np.searchsorted(cuts, values, side="right")
        sizes = np.bincount(assigned)
        assert sizes.min() > 1_500

    def test_skewed_values_never_yield_empty_buckets(self):
        rng = np.random.default_rng(3)
        values = (rng.zipf(1.3, size=5_000) % 50).astype(np.int64)
        cuts = balanced_cuts(values, 8)
        assigned = np.searchsorted(cuts, values, side="right")
        sizes = np.bincount(assigned, minlength=len(cuts) + 1)
        assert (sizes > 0).all()

    def test_constant_values_collapse_to_one_bucket(self):
        cuts = balanced_cuts(np.full(100, 7, dtype=np.int64), 4)
        assert cuts == []

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(IndexBuildError):
            balanced_cuts(np.arange(10), 0)

    @given(
        values=st.lists(st.integers(min_value=-1_000, max_value=1_000), min_size=1, max_size=300),
        num_shards=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_cuts_partition_without_empty_buckets(self, values, num_shards):
        array = np.asarray(values, dtype=np.int64)
        cuts = balanced_cuts(array, num_shards)
        assert cuts == sorted(set(cuts))
        assert len(cuts) <= num_shards - 1
        assigned = np.searchsorted(cuts, array, side="right")
        sizes = np.bincount(assigned, minlength=len(cuts) + 1)
        assert (sizes > 0).all()


class TestCombinePartialResults:
    @staticmethod
    def partials_from_chunks(aggregate, chunks):
        """Reference partials: one per chunk, as an execution would report them."""
        partials = []
        for chunk in chunks:
            stats = ScanStats(points_scanned=len(chunk), rows_matched=len(chunk))
            if aggregate == "count":
                value = float(len(chunk))
            elif aggregate in ("sum", "avg"):
                value = float(np.sum(chunk)) if len(chunk) else 0.0
            elif aggregate == "min":
                value = float(np.min(chunk)) if len(chunk) else float("nan")
            else:
                value = float(np.max(chunk)) if len(chunk) else float("nan")
            partials.append(
                PartialAggregate(value=value, matched=len(chunk), stats=stats)
            )
        return partials

    @given(
        chunks=st.lists(
            st.lists(st.integers(min_value=-10_000, max_value=10_000), max_size=50),
            max_size=6,
        ),
        aggregate=st.sampled_from(["count", "sum", "avg", "min", "max"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_combination_matches_unpartitioned_aggregate(self, chunks, aggregate):
        flat = np.asarray([v for chunk in chunks for v in chunk], dtype=np.int64)
        partials = self.partials_from_chunks(aggregate, chunks)
        result = combine_partial_results(aggregate, partials)
        if aggregate == "count":
            expected = float(len(flat))
        elif aggregate == "sum":
            expected = float(np.sum(flat)) if len(flat) else 0.0
        elif aggregate == "avg":
            expected = float(np.mean(flat)) if len(flat) else float("nan")
        elif aggregate == "min":
            expected = float(np.min(flat)) if len(flat) else float("nan")
        else:
            expected = float(np.max(flat)) if len(flat) else float("nan")
        assert_same_value(result.value, expected, (aggregate, chunks))
        assert result.stats.points_scanned == len(flat)

    def test_stats_merged_across_partials(self):
        partials = [
            PartialAggregate(1.0, 1, ScanStats(points_scanned=5, cell_ranges=2)),
            PartialAggregate(2.0, 2, ScanStats(points_scanned=7, cell_ranges=1)),
        ]
        result = combine_partial_results("sum", partials)
        assert result.value == 3.0
        assert result.stats.points_scanned == 12
        assert result.stats.cell_ranges == 3

    def test_no_partials_matches_empty_scan(self):
        assert combine_partial_results("count", []).value == 0.0
        assert combine_partial_results("sum", []).value == 0.0
        assert np.isnan(combine_partial_results("avg", []).value)
        assert np.isnan(combine_partial_results("min", []).value)
        assert np.isnan(combine_partial_results("max", []).value)

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(QueryError):
            combine_partial_results("median", [])

    def test_avg_as_sum_rewrites_only_avg(self):
        avg = Query.from_ranges({"x": (0, 10)}, aggregate="avg", aggregate_column="y")
        rewritten = avg_as_sum(avg)
        assert rewritten.aggregate == "sum"
        assert rewritten.aggregate_column == "y"
        assert rewritten.predicates == avg.predicates
        count = Query.from_ranges({"x": (0, 10)})
        assert avg_as_sum(count) is count


class TestShardedDifferential:
    def test_execute_matches_single_index(self, sharded_and_single):
        queries, single, sharded = sharded_and_single
        for query in queries:
            assert_same_value(
                sharded.execute(query).value, single.execute(query).value, query
            )

    def test_batch_matches_single_index_in_order(self, sharded_and_single):
        queries, single, sharded = sharded_and_single
        single_results = QueryEngine(single).run_batch(queries)
        sharded_results = QueryEngine(sharded).run_batch(queries)
        assert len(sharded_results) == len(queries)
        for one, many, query in zip(single_results, sharded_results, queries):
            assert_same_value(many.value, one.value, query)

    def test_batch_matches_per_query_execution(self, sharded_and_single):
        queries, _, sharded = sharded_and_single
        batched = sharded.execute_batch(queries)
        for query, result in zip(queries, batched):
            per_query = sharded.execute(query)
            assert_same_value(result.value, per_query.value, query)
            assert result.stats.points_scanned == per_query.stats.points_scanned

    def test_parallel_execution_identical_to_serial(self):
        queries = make_queries()
        workload = make_workload(queries)
        serial = ShardedIndex(tsunami_factory, num_shards=4, shard_dimension="x")
        serial.build(make_table(), workload)
        threaded = ShardedIndex(
            tsunami_factory, num_shards=4, shard_dimension="x", fault_policy=GUARDED
        )
        threaded.build(make_table(), workload)
        try:
            for one, many in zip(
                threaded.execute_batch(queries), serial.execute_batch(queries)
            ):
                assert_same_value(one.value, many.value)
                assert one.stats.points_scanned == many.stats.points_scanned
            assert threaded._pool is not None
            assert serial._pool is None
        finally:
            threaded.close()

    def test_empty_batch(self, sharded_and_single):
        _, _, sharded = sharded_and_single
        assert sharded.execute_batch([]) == []

    def test_duplicate_queries_get_independent_stats(self, sharded_and_single):
        queries, _, sharded = sharded_and_single
        repeated = [queries[0]] * 3
        results = sharded.execute_batch(repeated)
        assert results[0].stats is not results[1].stats
        assert results[0].value == results[1].value == results[2].value


class TestShardPruning:
    def test_narrow_query_prunes_shards(self, sharded_and_single):
        _, _, sharded = sharded_and_single
        narrow = Query.from_ranges({"x": (0, 50)})
        assert sharded.shards_pruned(narrow) >= 2
        plan = sharded.explain(narrow)
        assert plan["shards_pruned"] == sharded.shards_pruned(narrow)
        assert plan["num_shards"] == 4

    def test_unfiltered_query_prunes_nothing(self, sharded_and_single):
        _, _, sharded = sharded_and_single
        assert sharded.shards_pruned(Query.from_ranges({})) == 0

    def test_pruned_query_still_correct(self, sharded_and_single):
        _, single, sharded = sharded_and_single
        narrow = Query.from_ranges({"x": (0, 50)}, aggregate="sum", aggregate_column="y")
        assert sharded.shards_pruned(narrow) > 0
        assert_same_value(sharded.execute(narrow).value, single.execute(narrow).value)

    def test_explain_aggregates_shard_plans(self, sharded_and_single):
        queries, _, sharded = sharded_and_single
        plan = sharded.explain(queries[0])
        assert plan["index"] == "sharded(tsunami)"
        assert plan["rows_to_scan"] == sum(
            sub["rows_to_scan"] for sub in plan["shard_plans"].values()
        )
        assert len(plan["shard_plans"]) == plan["num_shards"] - plan["shards_pruned"]


class TestShardedBuild:
    def test_partitioning_balances_rows(self, sharded_and_single):
        _, _, sharded = sharded_and_single
        rows = [shard.table.num_rows for shard in sharded.shards]
        assert len(rows) == 4
        assert sum(rows) == 6_000
        assert min(rows) > 6_000 // 8

    def test_auto_dimension_picks_most_filtered(self):
        queries = [Query.from_ranges({"z": (0, 100)}) for _ in range(5)]
        sharded = ShardedIndex(tsunami_factory, num_shards=2)
        sharded.build(make_table(num_rows=2_000), Workload(queries, name="z-only"))
        assert sharded.dimension == "z"

    def test_auto_dimension_without_workload_uses_first_column(self):
        sharded = ShardedIndex(tsunami_factory, num_shards=2)
        sharded.build(make_table(num_rows=2_000), None)
        assert sharded.dimension == "x"

    def test_unknown_dimension_rejected(self):
        sharded = ShardedIndex(tsunami_factory, num_shards=2, shard_dimension="nope")
        with pytest.raises(SchemaError):
            sharded.build(make_table(num_rows=500), None)

    def test_empty_table_rejected(self):
        table = Table.from_arrays("empty", {"x": np.empty(0, dtype=np.int64)})
        with pytest.raises(IndexBuildError):
            ShardedIndex(tsunami_factory).build(table, None)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(IndexBuildError):
            ShardedIndex(tsunami_factory, num_shards=0)

    def test_unbuilt_index_refuses_to_serve(self):
        sharded = ShardedIndex(tsunami_factory)
        assert not sharded.is_built
        with pytest.raises(IndexBuildError):
            sharded.execute(Query.from_ranges({"x": (0, 10)}))

    def test_describe_and_size(self, sharded_and_single):
        _, _, sharded = sharded_and_single
        info = sharded.describe()
        assert info["num_shards"] == 4
        assert info["shard_dimension"] == "x"
        assert len(info["shards"]) == 4
        assert sharded.index_size_bytes() > sum(
            0 for _ in sharded.shards
        )  # positive and well-defined
        assert sharded.index_size_bytes() >= sum(
            shard.index_size_bytes() for shard in sharded.shards
        )


class TestUpdatableShards:
    def insert_rows(self, count: int, seed: int = 21) -> list[dict]:
        rng = np.random.default_rng(seed)
        return [
            {
                "x": int(v),
                "y": int(v) * 3 + int(rng.integers(-60, 61)),
                "z": int(rng.integers(0, 1_000)),
            }
            for v in rng.integers(0, 10_000, count)
        ]

    @pytest.fixture()
    def updatable(self):
        queries = make_queries()
        sharded = ShardedIndex(delta_factory, num_shards=4, shard_dimension="x")
        sharded.build(make_table(), make_workload(queries))
        return queries, sharded

    def oracle_table(self, rows: list[dict]) -> Table:
        base = make_table()
        data = {
            name: np.concatenate(
                [base.values(name), np.asarray([row[name] for row in rows])]
            )
            for name in base.column_names
        }
        return Table.from_arrays("oracle", data)

    def test_inserts_route_to_owning_shards(self, updatable):
        _, sharded = updatable
        rows = self.insert_rows(400)
        sharded.insert_many(rows)
        assert sharded.num_pending == 400
        boundaries = sharded.boundaries
        for position, shard in enumerate(sharded.shards):
            # Shard i owns values in [boundaries[i-1], boundaries[i]).
            low = boundaries[position - 1] if position > 0 else None
            high = boundaries[position] if position < len(boundaries) else None
            pending = shard.buffer.column("x")
            if low is not None:
                assert (pending >= low).all()
            if high is not None:
                assert (pending < high).all()

    def test_queries_with_pending_match_full_scan(self, updatable):
        queries, sharded = updatable
        rows = self.insert_rows(500)
        sharded.insert_many(rows)
        oracle = self.oracle_table(rows)
        for query in queries:
            expected, _ = execute_full_scan(oracle, query)
            assert_same_value(sharded.execute(query).value, expected, query)

    def test_batch_with_pending_matches_per_query(self, updatable):
        queries, sharded = updatable
        sharded.insert_many(self.insert_rows(300))
        batched = sharded.execute_batch(queries)
        for query, result in zip(queries, batched):
            assert_same_value(result.value, sharded.execute(query).value, query)

    def test_pending_inserts_widen_the_pruning_box(self, updatable):
        _, sharded = updatable
        outside = Query.from_ranges({"x": (11_000, 12_000)})
        assert sharded.execute(outside).value == 0.0
        # The last shard owns everything above the top boundary; an insert out
        # there must not be lost to a stale bounding box.
        sharded.insert_many([{"x": 11_500, "y": 34_500, "z": 1}])
        assert sharded.execute(outside).value == 1.0

    def test_table_view_covers_merged_rows(self, updatable):
        # The logical table must not go stale once shards fold their buffers
        # in: the full-scan oracle over `sharded.table` has to keep agreeing
        # with the index after a merge.
        queries, sharded = updatable
        rows = self.insert_rows(150)
        sharded.insert_many(rows)
        assert sharded.table.num_rows == 6_000  # pending rows are not merged yet
        sharded.merge()
        assert sharded.table.num_rows == 6_150
        for query in queries[:8]:
            expected, _ = execute_full_scan(sharded.table, query)
            assert_same_value(sharded.execute(query).value, expected, query)

    def test_widened_box_cached_per_insert_batch(self, updatable):
        _, sharded = updatable
        sharded.insert_many(self.insert_rows(50))
        first = sharded._shard_box(0)
        assert sharded._shard_box(0) is first  # cached until the buffer changes
        sharded.insert_many(self.insert_rows(50, seed=22))
        assert sharded._shard_box(0) is not first

    def test_merge_folds_every_shard(self, updatable):
        queries, sharded = updatable
        rows = self.insert_rows(200)
        sharded.insert_many(rows)
        reports = sharded.merge()
        assert sharded.num_pending == 0
        assert sum(r.rows_merged for r in reports if r is not None) == 200
        oracle = self.oracle_table(rows)
        for query in queries[:10]:
            expected, _ = execute_full_scan(oracle, query)
            assert_same_value(sharded.execute(query).value, expected, query)

    def test_read_only_shards_reject_inserts(self, sharded_and_single=None):
        sharded = ShardedIndex(tsunami_factory, num_shards=2, shard_dimension="x")
        sharded.build(make_table(num_rows=1_000), None)
        with pytest.raises(IndexBuildError):
            sharded.insert_many([{"x": 1, "y": 3, "z": 5}])

    def test_insert_missing_shard_dimension_rejected(self, updatable):
        _, sharded = updatable
        with pytest.raises(SchemaError):
            sharded.insert_many([{"y": 3, "z": 5}])

    def test_bad_batch_rejected_atomically(self, updatable):
        # A conversion failure anywhere in the batch must not leave rows from
        # earlier shards half-inserted.
        _, sharded = updatable
        rows = [
            {"x": 10, "y": 30, "z": 5},           # would land in shard 0
            {"x": 9_999, "y": "bogus", "z": 5},   # fails conversion
        ]
        with pytest.raises(SchemaError):
            sharded.insert_many(rows)
        assert sharded.num_pending == 0


class TestPoolShutdown:
    def test_close_shuts_down_the_worker_pool(self):
        queries = make_queries()
        sharded = ShardedIndex(
            tsunami_factory, num_shards=4, shard_dimension="x", fault_policy=GUARDED
        )
        sharded.build(make_table(), make_workload(queries))
        sharded.execute_batch(queries)  # spins up the lazy pool
        assert sharded._pool is not None
        worker_threads = [
            t for t in threading.enumerate() if t.name.startswith("shard")
        ]
        assert worker_threads
        sharded.close()
        assert sharded._pool is None
        for thread in worker_threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()

    def test_close_is_idempotent_and_index_stays_usable(self):
        queries = make_queries()
        sharded = ShardedIndex(
            tsunami_factory, num_shards=4, shard_dimension="x", fault_policy=GUARDED
        )
        sharded.build(make_table(), make_workload(queries))
        before = [r.value for r in sharded.execute_batch(queries[:8])]
        sharded.close()
        sharded.close()  # idempotent, including with no pool ever created
        # The next timeout-guarded batch lazily recreates the pool.
        after = [r.value for r in sharded.execute_batch(queries[:8])]
        assert after == before
        assert sharded._pool is not None
        sharded.close()

    def test_context_manager_closes_pool(self):
        queries = make_queries()
        with ShardedIndex(
            tsunami_factory, num_shards=4, shard_dimension="x", fault_policy=GUARDED
        ) as sharded:
            sharded.build(make_table(), make_workload(queries))
            sharded.execute_batch(queries)
        assert sharded._pool is None
