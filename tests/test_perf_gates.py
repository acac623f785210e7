"""Performance gates of the serving paths, at smoke scale.

Each gate compares two ways of serving the same work and fails when the
faster design stops being faster.  A gate is either a median over repeated
passes (timing noise, such as a garbage-collection pause, lands in one pass
and the median drops it) or a machine-independent counter; no gate reads a
single wall-clock run.

* planning: the vectorized planner plans at least as fast as the per-cell
  reference enumeration (``planner_oracle``);
* plan memo (counters only): a third batch of repeated templates makes no
  Grid Tree routing and no Augmented Grid planning call, and never-repeated
  queries leave no plan in the memo;
* delta: batched serving over a hot delta buffer beats per-query serving, and
  scans the buffer once per distinct template instead of once per query;
* sustained inserts: local merges keep the insert rate within 2x from the
  smallest to the largest table;
* sharding: serial sharded serving beats one index on localized templates;
* serving: micro-batched concurrent clients beat serialized serving, and the
  micro-batcher actually forms batches;
* faults: serving survives a seeded fault schedule without dropping queries
  and recovers to bit-identical answers at ≥ 0.6x baseline batch latency.

The data comes from two generators: :func:`make_linear_dataset`, the skewed
x/y/z table (y tracks 3x), and :func:`make_template_stream`, a template pool
plus a zipf-repeated stream.
"""

from __future__ import annotations

import copy
import statistics
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
from planner_oracle import reference_spans

from repro.common import faults
from repro.common.faults import FaultPlan, FaultSpec
from repro.common.resilience import FaultPolicy, RetryPolicy
from repro.core.augmented_grid import AugmentedGrid, AugmentedGridConfig
from repro.core.delta import DeltaBuffer, DeltaBufferedIndex
from repro.core.grid_tree import GridTree
from repro.core.sharding import ShardedIndex, scaled_tsunami_config
from repro.core.skeleton import Skeleton
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.engine import QueryEngine
from repro.query.query import Query
from repro.query.workload import Workload
from repro.serve import ServingConfig, ServingFrontend
from repro.storage.table import Table

DOMAIN = 100_000
BATCH_SIZE = 256
NUM_SHARDS = 8
#: Timing gates compare medians over this many passes of each side.
PASSES = 5


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def make_linear_dataset(name: str, num_rows: int, seed: int, *, narrow: bool = True) -> Table:
    """x uniform over the domain, y = 3x + noise, z small.

    ``narrow=False`` keeps every column ``int64`` (the storage baseline).
    """
    rng = np.random.default_rng(seed)
    x = rng.integers(0, DOMAIN, num_rows)
    y = x * 3 + rng.integers(-500, 501, num_rows)
    z = rng.integers(0, 5_000, num_rows)
    return Table.from_arrays(name, {"x": x, "y": y, "z": z}, narrow=narrow)


#: Template placement styles: (x_low high, width low/high, z low/high).
#: ``localized`` windows are far narrower than a shard, which is what makes
#: bounding-box pruning effective.
_STREAM_STYLES = {
    "narrow": (90_000, 500, 5_000, 500, 4_000),
    "localized": (DOMAIN - 6_000, 1_000, 5_000, 1_000, 4_500),
}


def make_template_stream(
    num_templates: int, num_queries: int, seed: int, style: str
) -> tuple[Workload, list[Query]]:
    """A template pool plus a zipf(1.2)-repeated serving stream over it."""
    x_max, width_low, width_high, z_low, z_high = _STREAM_STYLES[style]
    rng = np.random.default_rng(seed)
    templates = []
    for _ in range(num_templates):
        x_low = int(rng.integers(0, x_max))
        templates.append(
            Query.from_ranges(
                {
                    "x": (x_low, x_low + int(rng.integers(width_low, width_high))),
                    "z": (0, int(rng.integers(z_low, z_high))),
                }
            )
        )
    draws = rng.zipf(1.2, size=num_queries) - 1
    stream = [templates[int(d) % num_templates] for d in draws]
    return Workload(templates, name="templates"), stream


def insert_rows(count: int, seed: int, x_low: int = 0, x_width: int = DOMAIN) -> list[dict]:
    """Insert rows from the same x/y/z law, x confined to one window."""
    rng = np.random.default_rng(seed)
    x = rng.integers(x_low, x_low + x_width, count)
    y = x * 3 + rng.integers(-500, 501, count)
    z = rng.integers(0, 5_000, count)
    return [{"x": int(xi), "y": int(yi), "z": int(zi)} for xi, yi, zi in zip(x, y, z)]


def tsunami(optimizer_iterations: int = 2) -> TsunamiIndex:
    return TsunamiIndex(TsunamiConfig(optimizer_iterations=optimizer_iterations))


def shard_factory(optimizer_iterations: int = 2):
    """Per-shard factory with the layout budget scaled to one shard's share."""
    config = scaled_tsunami_config(NUM_SHARDS, TsunamiConfig(optimizer_iterations=optimizer_iterations))
    return partial(TsunamiIndex, config)


def seconds(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def median_seconds(runs: dict, passes: int = PASSES) -> dict:
    """Median seconds of each named run over ``passes`` interleaved passes.

    Interleaving puts both sides of a comparison under the same host load.
    """
    samples: dict = {name: [] for name in runs}
    for _ in range(passes):
        for name, run in runs.items():
            samples[name].append(seconds(run))
    return {name: statistics.median(values) for name, values in samples.items()}


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------


class TestPlanningGate:
    def test_vectorized_planner_outplans_reference(self):
        rng = np.random.default_rng(11)
        table = Table.from_arrays(
            "plan_bench", {dim: rng.integers(0, 1_000_000, 40_000) for dim in ("x", "y", "z")}
        )
        grid = AugmentedGrid(
            AugmentedGridConfig(
                skeleton=Skeleton.all_independent(["x", "y", "z"]),
                partitions={"x": 64, "y": 64, "z": 16},
            )
        )
        table.reorder(grid.fit(table))

        rng = np.random.default_rng(12)
        queries = []
        for _ in range(40):
            x_low = int(rng.integers(0, 800_000))
            y_low = int(rng.integers(0, 600_000))
            ranges = {
                "x": (x_low, x_low + int(rng.integers(50_000, 300_000))),
                "y": (y_low, y_low + int(rng.integers(100_000, 400_000))),
            }
            if rng.random() < 0.5:
                z_low = int(rng.integers(0, 700_000))
                ranges["z"] = (z_low, z_low + int(rng.integers(100_000, 300_000)))
            queries.append(Query.from_ranges(ranges))

        for query in queries:
            assert grid.plan(query)[0] == reference_spans(grid, query)
        medians = median_seconds(
            {
                "reference": lambda: [reference_spans(grid, query) for query in queries],
                "vectorized": lambda: [grid.plan(query) for query in queries],
            }
        )
        assert medians["reference"] / medians["vectorized"] >= 1.0


class TestPlanMemoGate:
    ROUTING_AND_PLANNING = (
        (GridTree, "regions_for_queries"),
        (GridTree, "regions_for_query"),
        (AugmentedGrid, "ranges_for_query"),
        (AugmentedGrid, "plan"),
    )

    def count_calls(self, monkeypatch) -> Counter:
        calls: Counter = Counter()
        for owner, name in self.ROUTING_AND_PLANNING:
            real = getattr(owner, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    def test_third_batch_of_repeated_templates_routes_and_plans_nothing(self, monkeypatch):
        templates, stream = make_template_stream(24, BATCH_SIZE, seed=52, style="narrow")
        index = tsunami()
        index.build(make_linear_dataset("memo", 20_000, seed=51), templates)
        warm = [index.execute_batch(stream) for _ in range(2)]
        calls = self.count_calls(monkeypatch)
        hits = index.plan_memo_stats().hits
        third = index.execute_batch(stream)
        monkeypatch.undo()

        assert sum(calls.values()) == 0, dict(calls)
        assert index.plan_memo_stats().hits - hits == len(set(stream))
        assert [r.value for r in third] == [r.value for r in warm[0]]
        assert [r.stats for r in third] == [r.stats for r in warm[0]]

    def test_never_repeated_queries_leave_no_plan_in_the_memo(self):
        templates, _ = make_template_stream(24, 1, seed=54, style="narrow")
        fresh, _ = make_template_stream(4 * BATCH_SIZE, 1, seed=55, style="narrow")
        fresh = list(fresh)
        assert len(set(fresh)) == len(fresh)
        index = tsunami()
        index.build(make_linear_dataset("memo", 20_000, seed=53), templates)
        for start in range(0, len(fresh), BATCH_SIZE):
            index.execute_batch(fresh[start : start + BATCH_SIZE])
        assert index.plan_memo_stats().misses == len(fresh)
        assert index.plan_memo_entries() == 0


class TestStorageIdentity:
    def test_narrow_and_int64_tables_answer_identically(self):
        """The same index over narrow and forced-int64 columns: same answers."""
        templates, stream = make_template_stream(24, 1_024, seed=14, style="narrow")
        outcomes = {}
        tables = {}
        for narrow in (True, False):
            tables[narrow] = make_linear_dataset("throughput", 20_000, seed=13, narrow=narrow)
            index = tsunami()
            index.build(tables[narrow], templates)
            outcomes[narrow] = QueryEngine(index=index).run_batch(stream, batch_size=BATCH_SIZE)
        assert [o.value for o in outcomes[True]] == [o.value for o in outcomes[False]]
        assert [o.stats.rows_matched for o in outcomes[True]] == [
            o.stats.rows_matched for o in outcomes[False]
        ]
        assert {tables[False].values(name).dtype for name in tables[False].column_names} == {np.dtype(np.int64)}
        assert tables[True].size_bytes() < tables[False].size_bytes()


class TestDeltaGate:
    def test_batched_delta_serving_beats_per_query(self, monkeypatch):
        templates, stream = make_template_stream(24, 512, seed=25, style="narrow")
        delta = DeltaBufferedIndex(tsunami, merge_threshold=20_000)
        delta.build(make_linear_dataset("updates", 20_000, seed=23), templates)
        delta.insert_many(insert_rows(2_000, seed=24))
        assert delta.num_pending == 2_000
        engine = QueryEngine(index=delta)
        engine.run_batch(stream[:BATCH_SIZE], batch_size=BATCH_SIZE)  # warm plan caches

        scans = []
        real_scan = DeltaBuffer.scan
        monkeypatch.setattr(DeltaBuffer, "scan", lambda buffer, query: scans.append(query) or real_scan(buffer, query))
        unbatched = [engine.run(query) for query in stream]
        per_query_scans = len(scans)
        scans.clear()
        batched = engine.run_batch(stream, batch_size=BATCH_SIZE)
        batched_scans = len(scans)
        monkeypatch.undo()

        assert [r.value for r in batched] == [r.value for r in unbatched]
        assert per_query_scans == len(stream)
        distinct_per_batch = sum(
            len(set(stream[start : start + BATCH_SIZE])) for start in range(0, len(stream), BATCH_SIZE)
        )
        assert batched_scans == distinct_per_batch < per_query_scans

        medians = median_seconds(
            {
                "unbatched": lambda: [engine.run(query) for query in stream],
                "batched": lambda: engine.run_batch(stream, batch_size=BATCH_SIZE),
            }
        )
        assert medians["unbatched"] / medians["batched"] >= 1.0


class TestSustainedInsertGate:
    def test_insert_rate_degrades_less_than_2x_over_8x_table_growth(self):
        templates, _ = make_template_stream(16, 1, seed=31, style="localized")
        rows = insert_rows(2_000, seed=32, x_low=88_000, x_width=6_000)
        fresh = {}
        for num_rows in (5_000, 10_000, 20_000, 40_000):
            built = DeltaBufferedIndex(partial(tsunami, 1), merge_threshold=500)
            built.build(make_linear_dataset("sustained", num_rows, seed=23), templates)
            fresh[num_rows] = [copy.deepcopy(built) for _ in range(PASSES)]
        used = []

        def insert(num_rows):
            index = fresh[num_rows].pop()
            used.append(index)
            index.insert_many(rows)

        medians = median_seconds({num_rows: partial(insert, num_rows) for num_rows in fresh})
        assert {report.strategy for index in used for report in index.merge_history} == {"local"}
        # The same rows go in at every size, so the rate ratio is the time ratio.
        assert medians[40_000] / medians[5_000] < 2.0


class TestShardingGate:
    def test_sharded_serving_beats_single_index_on_localized_templates(self):
        templates, stream = make_template_stream(24, 2_048, seed=34, style="localized")
        single = tsunami()
        single.build(make_linear_dataset("sharded", 40_000, seed=33), templates)
        sharded = ShardedIndex(shard_factory(), num_shards=NUM_SHARDS, shard_dimension="x")
        sharded.build(make_linear_dataset("sharded", 40_000, seed=33), templates)
        engines = {"single": QueryEngine(index=single), "sharded": QueryEngine(index=sharded)}
        for engine in engines.values():
            engine.run_batch(stream[:BATCH_SIZE], batch_size=BATCH_SIZE)  # warm plan caches

        medians = median_seconds(
            {name: partial(engine.run_batch, stream, batch_size=BATCH_SIZE) for name, engine in engines.items()}
        )
        assert medians["single"] / medians["sharded"] >= 1.0


class TestServingGate:
    def test_micro_batched_clients_beat_serialized_serving(self):
        templates, stream = make_template_stream(24, 512, seed=42, style="localized")
        index = tsunami()
        index.build(make_linear_dataset("serving", 30_000, seed=41), templates)
        engine = QueryEngine(index=index)
        engine.run_batch(stream[:BATCH_SIZE], batch_size=BATCH_SIZE)  # warm plan caches
        expected = [engine.run(query).value for query in stream]
        config = ServingConfig(
            max_batch_size=256,
            max_delay_seconds=0.002,
            idle_gap_seconds=0.00025,
            max_queue_depth=8_192,
            cache_entries=0,
            close_backend=False,
        )

        with ServingFrontend(engine, config) as frontend, ThreadPoolExecutor(32) as clients:

            def concurrent():
                values = [result.value for result in clients.map(frontend.query, stream)]
                assert values == expected

            medians = median_seconds(
                {
                    "serialized": lambda: [engine.run(query) for query in stream],
                    "concurrent": concurrent,
                }
            )
            mean_batch_size = frontend.batcher.stats.mean_batch_size
        assert mean_batch_size > 1.0
        assert medians["serialized"] / medians["concurrent"] >= 1.0


class TestFaultRecoveryGate:
    """Baseline → seeded faults → recovered, 16 batches of 256 per phase.

    Host load can shift batch latency by up to 1.8x between phases, so the
    timed phases alternate batches with a fault-free twin of the index, and
    each phase's latency is read relative to the twin's.
    """

    POLICY = FaultPolicy(
        shard_timeout_seconds=5.0,
        retry=RetryPolicy(max_retries=1, backoff_seconds=0.001, seed=7),
        breaker_failure_threshold=3,
        breaker_cooldown_seconds=0.05,
        degradation="degraded",
    )

    @staticmethod
    def run_phase(indexes: list[ShardedIndex], stream: list[Query]) -> list[dict]:
        """Serve ``stream`` through each index, alternating batch by batch."""
        phases = [{"latencies": [], "values": [], "before": index.fault_stats.as_dict()} for index in indexes]
        for offset in range(0, len(stream), BATCH_SIZE):
            batch = stream[offset : offset + BATCH_SIZE]
            for index, phase in zip(indexes, phases):
                start = time.perf_counter()
                results = index.execute_batch(batch)
                phase["latencies"].append(time.perf_counter() - start)
                phase["values"].extend(result.value for result in results)
        for index, phase in zip(indexes, phases):
            after = index.fault_stats.as_dict()
            phase["fault_stats"] = {key: after[key] - phase["before"][key] for key in after}
            phase["median_batch_seconds"] = statistics.median(phase["latencies"])
        return phases

    def test_faulted_serving_recovers_bit_identical_at_baseline_speed(self):
        templates, stream = make_template_stream(24, 16 * BATCH_SIZE, seed=44, style="localized")
        index, twin = (
            ShardedIndex(shard_factory(1), num_shards=NUM_SHARDS, shard_dimension="x", fault_policy=self.POLICY)
            for _ in range(2)
        )
        plan = FaultPlan(
            [
                FaultSpec(site="shard.execute", kind="error", probability=0.15),
                FaultSpec(site="shard.execute", kind="delay", probability=0.10, delay_seconds=0.003),
            ],
            seed=11,
        )
        try:
            for sharded in (index, twin):
                sharded.build(make_linear_dataset("faulty", 20_000, seed=43), templates)
                sharded.execute_batch(stream[:BATCH_SIZE])  # warm plan caches
            baseline, twin_baseline = self.run_phase([index, twin], stream)
            with faults.active(plan):
                (faulted,) = self.run_phase([index], stream)
            # Let every opened breaker's cooldown elapse, so recovery starts
            # from half-open probes the way a real incident ends.
            time.sleep(self.POLICY.breaker_cooldown_seconds * 2)
            recovered, twin_recovered = self.run_phase([index, twin], stream)
        finally:
            index.close()
            twin.close()

        assert plan.injections, "the seeded schedule injected no faults"
        assert baseline["fault_stats"]["partial_serves"] == 0
        assert len(faulted["values"]) == len(stream)
        assert recovered["values"] == baseline["values"] == twin_recovered["values"]
        assert recovered["fault_stats"]["shard_failures"] == 0
        baseline_speed = twin_baseline["median_batch_seconds"] / baseline["median_batch_seconds"]
        recovered_speed = twin_recovered["median_batch_seconds"] / recovered["median_batch_seconds"]
        ratio = recovered_speed / baseline_speed
        assert ratio >= 0.6, f"recovered batches run at {ratio:.2f}x baseline speed"
