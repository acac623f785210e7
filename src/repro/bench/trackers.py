"""The five serving perf trackers, config-driven.

Each tracker used to live as a standalone script under ``benchmarks/``; the
scripts are now thin wrappers that load a ``kind: "tracker"`` config from
``benchmarks/configs/`` and call :func:`tracker_main`.  Each keeps its
script's seeds and scales, and dataset/workload generation is shared instead
of being copy-pasted per script.

Shared generators (the only place tracker data comes from):

* :func:`make_linear_dataset` — the skewed x/y/z family (y tracks 3x) every
  serving tracker measures on; per-tracker name and seed come from the
  config.
* :func:`make_template_stream` — a template pool plus a zipf-repeated
  serving stream, in two placement styles: ``narrow`` (the planning/update
  trackers' 500–5 000-wide x windows) and ``localized`` (the sharding
  trackers' windows far narrower than a shard, which is what makes
  bounding-box pruning effective).
* :func:`make_insert_rows` — insert batches drawn column-wise from the same
  x/y/z law.

Trackers: ``throughput`` (vectorized planner + batched execution),
``updates`` (delta-buffer insert/serve/merge/lifecycle), ``shards``
(sharded fan-out + pruning + updatable shards), ``serving`` (closed/open-loop
front-end latency), and ``faults`` (baseline → faulted → recovered chaos
phases).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from repro.bench.scenario import TrackerConfig, load_config
from repro.common import faults
from repro.common.errors import ConfigError
from repro.common.faults import FaultPlan, FaultSpec
from repro.common.resilience import FaultPolicy, RetryPolicy
from repro.core.augmented_grid import AugmentedGrid, AugmentedGridConfig
from repro.core.delta import DeltaBufferedIndex
from repro.core.lifecycle import LifecycleConfig, LifecycleManager
from repro.core.sharding import ShardedIndex, scaled_tsunami_config
from repro.core.skeleton import Skeleton
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.engine import QueryEngine, execute_full_scan
from repro.query.query import Query
from repro.query.workload import Workload
from repro.serve import ServingConfig, ServingFrontend
from repro.storage.scan import ScanStats
from repro.storage.table import Table

BATCH_SIZE = 256
NUM_SHARDS = 8
DOMAIN = 100_000
PLANNING_GRID = {"x": 64, "y": 64, "z": 16}
#: Closed-loop client threads of the serving tracker (sized well above the
#: batched pipeline's break-even batch size; a blocked client caps the window).
NUM_CLIENTS = 32
OVERLOAD_FACTOR = 1.4  # offered open-loop load relative to serialized capacity
#: Fault tracker gate: recovered throughput must reach this fraction of baseline.
RECOVERY_FLOOR = 0.6


# ---------------------------------------------------------------------------
# Shared generators
# ---------------------------------------------------------------------------


def make_linear_dataset(
    name: str, num_rows: int, seed: int, *, narrow: bool = True
) -> Table:
    """The serving trackers' skewed dataset: x uniform, y = 3x + noise, z small.

    ``narrow=False`` forces every column to stay ``int64`` — the storage
    baseline the throughput tracker's bytes-scanned gate compares against.
    """
    rng = np.random.default_rng(seed)
    x = rng.integers(0, DOMAIN, num_rows)
    y = x * 3 + rng.integers(-500, 501, num_rows)
    z = rng.integers(0, 5_000, num_rows)
    return Table.from_arrays(name, {"x": x, "y": y, "z": z}, narrow=narrow)


#: Template placement styles: (x_low high, width low/high, z low/high).
_STREAM_STYLES = {
    "narrow": (90_000, 500, 5_000, 500, 4_000),
    "localized": (DOMAIN - 6_000, 1_000, 5_000, 1_000, 4_500),
}


def make_template_stream(
    num_templates: int, num_queries: int, seed: int, style: str
) -> tuple[Workload, list[Query]]:
    """Template pool + zipf-repeated serving stream (the PR 2 batching regime)."""
    try:
        x_max, width_low, width_high, z_low, z_high = _STREAM_STYLES[style]
    except KeyError:
        raise ConfigError(
            f"unknown stream style {style!r}; expected one of {sorted(_STREAM_STYLES)}"
        ) from None
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


def make_insert_rows(count: int, seed: int) -> list[dict]:
    """Insert batches drawn column-wise from the same x/y/z law."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, DOMAIN, count)
    y = x * 3 + rng.integers(-500, 501, count)
    z = rng.integers(0, 5_000, count)
    return [
        {"x": int(xi), "y": int(yi), "z": int(zi)}
        for xi, yi, zi in zip(x, y, z)
    ]


def tsunami_factory(optimizer_iterations: int = 2):
    return partial(TsunamiIndex, TsunamiConfig(optimizer_iterations=optimizer_iterations))


def shard_factory(optimizer_iterations: int = 2):
    """Per-shard factory with the layout budget scaled to one shard's share."""
    config = scaled_tsunami_config(
        NUM_SHARDS, TsunamiConfig(optimizer_iterations=optimizer_iterations)
    )
    return partial(TsunamiIndex, config)


def timed(run) -> tuple[float, list]:
    start = time.perf_counter()
    outcomes = run()
    return time.perf_counter() - start, outcomes


# ---------------------------------------------------------------------------
# Tracker 1: query planning + batched execution throughput
# ---------------------------------------------------------------------------


def make_planning_grid(num_rows: int, seed: int = 11) -> tuple[Table, AugmentedGrid]:
    rng = np.random.default_rng(seed)
    table = Table.from_arrays(
        "plan_bench",
        {
            "x": rng.integers(0, 1_000_000, num_rows),
            "y": rng.integers(0, 1_000_000, num_rows),
            "z": rng.integers(0, 1_000_000, num_rows),
        },
    )
    config = AugmentedGridConfig(
        skeleton=Skeleton.all_independent(["x", "y", "z"]), partitions=dict(PLANNING_GRID)
    )
    grid = AugmentedGrid(config)
    table.reorder(grid.fit(table))
    return table, grid


def selective_queries(num_queries: int, seed: int = 12) -> list[Query]:
    """Selective 2-3 dimensional range queries over the planning grid's domain."""
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(num_queries):
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
    return queries


def bench_planning(num_rows: int, num_queries: int, repeats: int) -> dict:
    """Plans/sec of the vectorized planner vs the reference enumeration.

    Runs on the 64x64x16 grid with no plan cache, calling
    :meth:`~repro.core.augmented_grid.AugmentedGrid.reference_spans` directly
    for the reference side.
    """
    _, grid = make_planning_grid(num_rows)
    queries = selective_queries(num_queries)
    results: dict = {
        "grid": list(PLANNING_GRID.values()),
        "num_rows": num_rows,
        "num_queries": num_queries,
    }
    planners = {
        "reference": grid.reference_spans,
        "vectorized": lambda query: grid.plan(query)[0],
    }
    for name, plan in planners.items():
        for query in queries[: min(8, len(queries))]:  # warm-up
            plan(query)
        best = float("inf")
        spans_total = 0
        for _ in range(repeats):
            start = time.perf_counter()
            spans_total = sum(len(plan(query)) for query in queries)
            best = min(best, time.perf_counter() - start)
        results[name] = {
            "seconds_total": round(best, 6),
            "plans_per_second": round(num_queries / best, 1),
            "avg_spans_per_query": round(spans_total / num_queries, 2),
        }
    results["speedup"] = round(
        results["vectorized"]["plans_per_second"]
        / results["reference"]["plans_per_second"],
        2,
    )
    return results


def clear_plan_caches(index: TsunamiIndex) -> None:
    """Empty every region grid's plan cache, so each run starts cold."""
    for region in index._regions:
        if region.grid is not None and region.grid.plan_cache is not None:
            region.grid.plan_cache.clear()


def bench_execution(num_rows: int, num_templates: int, num_queries: int) -> dict:
    table = make_linear_dataset("throughput", num_rows, seed=13)
    templates, stream = make_template_stream(
        num_templates, num_queries, seed=14, style="narrow"
    )
    index = TsunamiIndex(TsunamiConfig(optimizer_iterations=2))
    index.build(table, templates)
    engine = QueryEngine(index=index)

    results: dict = {
        "num_rows": num_rows,
        "num_templates": num_templates,
        "num_queries": num_queries,
        "batch_size": BATCH_SIZE,
    }
    for batch in (1, BATCH_SIZE):
        clear_plan_caches(index)
        total = ScanStats()
        start = time.perf_counter()
        if batch == 1:
            outcomes = [engine.run(query) for query in stream]
        else:
            outcomes = engine.run_batch(stream, batch_size=batch)
        elapsed = time.perf_counter() - start
        for outcome in outcomes:
            total.merge(outcome.stats)
        cache_stats = index.plan_cache_stats()
        results[f"batch_{batch}"] = {
            "queries_per_second": round(len(stream) / elapsed, 1),
            "rows_scanned_per_sec": round(total.points_scanned / elapsed, 1),
            "seconds_total": round(elapsed, 4),
            "points_scanned": total.points_scanned,
            "cell_ranges": total.cell_ranges,
            "rows_matched": total.rows_matched,
            "scan_work": total.scan_work,
            "values_scanned": total.values_scanned,
            "bytes_scanned": total.bytes_scanned,
            "plan_cache_hit_rate": round(cache_stats.hit_rate, 4),
        }
    narrow_values = [outcome.value for outcome in outcomes]
    narrow_batched = {
        "elapsed": elapsed,
        "points": total.points_scanned,
        "values": total.values_scanned,
        "bytes": total.bytes_scanned,
    }
    results["batch_speedup"] = round(
        results[f"batch_{BATCH_SIZE}"]["queries_per_second"]
        / results["batch_1"]["queries_per_second"],
        2,
    )
    results["storage"] = _bench_storage_baseline(
        table, templates, stream, narrow_values, narrow_batched
    )
    return results


def _bench_storage_baseline(
    narrow_table: Table,
    templates: Workload,
    stream: list[Query],
    narrow_values: list[float],
    narrow_batched: dict,
) -> dict:
    """Differential run of the same stream over a forced-``int64`` table.

    Builds the identical index over an un-narrowed copy of the dataset,
    asserts the answers are bit-identical, and reports both tables' footprint
    and bytes-scanned so the smoke gate can enforce that fused narrow-dtype
    scans never read more bytes than the int64 baseline.
    """
    int64_table = make_linear_dataset(
        narrow_table.name, narrow_table.num_rows, seed=13, narrow=False
    )
    index = TsunamiIndex(TsunamiConfig(optimizer_iterations=2))
    index.build(int64_table, templates)
    engine = QueryEngine(index=index)
    total = ScanStats()
    start = time.perf_counter()
    outcomes = engine.run_batch(stream, batch_size=BATCH_SIZE)
    elapsed = time.perf_counter() - start
    for outcome in outcomes:
        total.merge(outcome.stats)
    int64_values = [outcome.value for outcome in outcomes]
    assert int64_values == narrow_values, "narrow-dtype results diverged from int64"

    def _table_summary(table: Table, elapsed_s: float, points: int, values: int, bytes_: int) -> dict:
        info = table.describe()
        return {
            "table_size_bytes": info["size_bytes"],
            "table_bytes_per_value": info["bytes_per_value"],
            "column_dtypes": {col["name"]: col["dtype"] for col in info["columns"]},
            "points_scanned": points,
            "values_scanned": values,
            "bytes_scanned": bytes_,
            "rows_scanned_per_sec": round(points / elapsed_s, 1),
        }

    narrow = _table_summary(
        narrow_table,
        narrow_batched["elapsed"],
        narrow_batched["points"],
        narrow_batched["values"],
        narrow_batched["bytes"],
    )
    baseline = _table_summary(
        int64_table, elapsed, total.points_scanned, total.values_scanned, total.bytes_scanned
    )
    return {
        "narrow": narrow,
        "int64": baseline,
        "results_identical": True,
        "bytes_scanned_ratio_vs_int64": round(
            narrow["bytes_scanned"] / max(baseline["bytes_scanned"], 1), 4
        ),
        "footprint_ratio_vs_int64": round(
            narrow["table_size_bytes"] / max(baseline["table_size_bytes"], 1), 4
        ),
    }


def run_tracker_throughput(scale: dict, mode: str, seed: int | None) -> tuple[dict, list[str]]:
    planning = bench_planning(
        num_rows=scale["planning_rows"],
        num_queries=scale["planning_queries"],
        repeats=scale["planning_repeats"],
    )
    execution = bench_execution(
        num_rows=scale["execution_rows"],
        num_templates=scale["num_templates"],
        num_queries=scale["num_queries"],
    )
    report = {
        "benchmark": "query planning + batched execution throughput",
        "mode": mode,
        "planning": planning,
        "execution": execution,
    }
    failures = []
    if planning["speedup"] < 1.0:
        failures.append(
            f"vectorized planner is slower than reference "
            f"(speedup {planning['speedup']}x < 1.0x)"
        )
    storage = execution["storage"]
    if storage["bytes_scanned_ratio_vs_int64"] > 1.0:
        failures.append(
            "fused narrow-dtype kernels scanned more bytes than the int64 "
            f"baseline ({storage['bytes_scanned_ratio_vs_int64']}x > 1.0x)"
        )
    if storage["footprint_ratio_vs_int64"] > 1.0:
        failures.append(
            "narrow-dtype table footprint exceeds the all-int64 footprint "
            f"({storage['footprint_ratio_vs_int64']}x > 1.0x)"
        )
    return report, failures


# ---------------------------------------------------------------------------
# Tracker 2: updatable serving path (delta buffer) throughput
# ---------------------------------------------------------------------------


def bench_inserts(num_rows: int, num_inserts: int) -> dict:
    """Vectorized insert_many vs a per-row insert loop (no merges in between)."""
    rows = make_insert_rows(num_inserts, seed=24)
    results: dict = {"num_rows": num_rows, "num_inserts": num_inserts}

    for insert_mode in ("per_row", "vectorized"):
        index = DeltaBufferedIndex(
            tsunami_factory(1), merge_threshold=10 * num_inserts
        )
        index.build(make_linear_dataset("updates", num_rows, seed=23), None)
        start = time.perf_counter()
        if insert_mode == "per_row":
            for row in rows:
                index.insert(row)
        else:
            index.insert_many(rows)
        elapsed = time.perf_counter() - start
        assert index.num_pending == num_inserts
        results[insert_mode] = {
            "seconds_total": round(elapsed, 6),
            "rows_per_second": round(num_inserts / elapsed, 1),
        }
    results["speedup"] = round(
        results["vectorized"]["rows_per_second"] / results["per_row"]["rows_per_second"], 2
    )
    return results


def bench_queries_with_pending(
    num_rows: int, num_inserts: int, num_templates: int, num_queries: int
) -> tuple[dict, DeltaBufferedIndex]:
    """Serving throughput with a hot buffer: unbatched vs batched vs read-only.

    Returns the result dict plus the still-unmerged index so ``bench_merge``
    can measure folding that same buffer in.
    """
    templates, stream = make_template_stream(
        num_templates, num_queries, seed=25, style="narrow"
    )

    read_only = TsunamiIndex(TsunamiConfig(optimizer_iterations=2))
    read_only.build(make_linear_dataset("updates", num_rows, seed=23), templates)
    read_only_engine = QueryEngine(index=read_only)

    delta = DeltaBufferedIndex(tsunami_factory(2), merge_threshold=10 * num_inserts)
    delta.build(make_linear_dataset("updates", num_rows, seed=23), templates)
    delta.insert_many(make_insert_rows(num_inserts, seed=24))
    delta_engine = QueryEngine(index=delta)

    results: dict = {
        "num_rows": num_rows,
        "pending_inserts": delta.num_pending,
        "num_templates": num_templates,
        "num_queries": num_queries,
        "batch_size": BATCH_SIZE,
    }

    # Warm both serving paths (plan caches persist across batches in a real
    # server) so the read-only ceiling and the delta paths compare fairly.
    warmup = stream[: min(BATCH_SIZE, len(stream))]
    read_only_engine.run_batch(warmup, batch_size=BATCH_SIZE)
    delta_engine.run_batch(warmup, batch_size=BATCH_SIZE)

    seconds, _ = timed(
        lambda: read_only_engine.run_batch(stream, batch_size=BATCH_SIZE)
    )
    results["read_only_batched"] = {
        "queries_per_second": round(len(stream) / seconds, 1),
        "seconds_total": round(seconds, 4),
    }

    seconds, unbatched_results = timed(lambda: [delta_engine.run(q) for q in stream])
    results["delta_unbatched"] = {
        "queries_per_second": round(len(stream) / seconds, 1),
        "seconds_total": round(seconds, 4),
    }

    seconds, batched_results = timed(
        lambda: delta_engine.run_batch(stream, batch_size=BATCH_SIZE)
    )
    results["delta_batched"] = {
        "queries_per_second": round(len(stream) / seconds, 1),
        "seconds_total": round(seconds, 4),
    }

    for single, batched in zip(unbatched_results, batched_results):
        assert single.value == batched.value, "batched delta path diverged"

    results["batch_speedup"] = round(
        results["delta_batched"]["queries_per_second"]
        / results["delta_unbatched"]["queries_per_second"],
        2,
    )
    results["delta_batched_vs_read_only"] = round(
        results["delta_batched"]["queries_per_second"]
        / results["read_only_batched"]["queries_per_second"],
        3,
    )
    return results, delta


def bench_merge(delta: DeltaBufferedIndex) -> dict:
    """Cost of folding the pending buffer into the main index."""
    pending = delta.num_pending
    start = time.perf_counter()
    report = delta.merge()
    elapsed = time.perf_counter() - start
    if report is None:
        return {"rows_merged": 0}
    return {
        "rows_merged": report.rows_merged,
        "rebuild_seconds": round(report.rebuild_seconds, 4),
        "merge_seconds_total": round(elapsed, 4),
        "rows_per_second": round(pending / elapsed, 1),
        "total_rows_after": report.total_rows,
    }


def bench_lifecycle(num_rows: int, num_queries: int) -> dict:
    """A drifting stream served through the lifecycle loop, report recorded."""
    rng = np.random.default_rng(29)
    templates, stream = make_template_stream(16, num_queries // 2, seed=25, style="narrow")
    index = DeltaBufferedIndex(tsunami_factory(1), merge_threshold=10 * num_rows)
    index.build(make_linear_dataset("updates", num_rows, seed=23), templates)
    manager = LifecycleManager(
        index, LifecycleConfig(observe_window=128, merge_pressure=0.05)
    )

    # Phase 1: the fitted workload. Phase 2: inserts plus a drifted workload
    # (novel wide single-dimension scans) that should trip the loop.
    drifted = [
        Query.from_ranges(
            {"y": (int(low := rng.integers(0, 60_000)), int(low) + 180_000)}
        )
        for _ in range(num_queries - len(stream))
    ]
    start = time.perf_counter()
    manager.run_batch(stream)
    manager.insert_many(make_insert_rows(max(num_rows // 10, 64), seed=30))
    manager.run_batch(drifted)
    elapsed = time.perf_counter() - start
    report = manager.report().as_dict()
    report["events"] = report["events"][:20]  # keep the JSON bounded
    return {
        "num_rows": num_rows,
        "num_queries": num_queries,
        "seconds_total": round(elapsed, 4),
        "report": report,
    }


def make_localized_insert_rows(
    count: int, seed: int, x_low: int = 88_000, x_width: int = 6_000
) -> list[dict]:
    """Insert rows concentrated in one x window (a write-hotspot drift).

    Localized inserts are what the per-region merge path is for: only the
    Grid Tree regions overlapping the window receive rows, so a local merge
    leaves the rest of the table untouched.
    """
    rng = np.random.default_rng(seed)
    x = rng.integers(x_low, x_low + x_width, count)
    y = x * 3 + rng.integers(-500, 501, count)
    z = rng.integers(0, 5_000, count)
    return [
        {"x": int(xi), "y": int(yi), "z": int(zi)}
        for xi, yi, zi in zip(x, y, z)
    ]


def bench_sustained_inserts(
    base_rows: int,
    num_sizes: int,
    num_inserts: int,
    merge_threshold: int,
    repeats: int = 3,
) -> dict:
    """Sustained insert rate vs table size through local merges.

    The same localized insert stream (merge cadence held constant by a fixed
    ``merge_threshold``) is pushed through a delta-buffered Tsunami index at
    ``num_sizes`` doubling table sizes.  A local merge only reorganizes the
    regions the hotspot lands in, so updates/sec should barely fall with
    size.  Probe queries are then checked against a full scan of the base
    table plus the inserted rows and must agree bit for bit.

    Each size is measured ``repeats`` times on a fresh index and reports the
    median rate: a single insert run is tens of milliseconds at the small
    end, where one scheduler hiccup would otherwise dominate the first/last
    degradation ratio the smoke gate checks.
    """
    sizes = [base_rows * (2**position) for position in range(num_sizes)]
    results: dict = {
        "num_sizes": num_sizes,
        "inserts_per_size": num_inserts,
        "merge_threshold": merge_threshold,
        "sizes": [],
    }
    mismatches_total = 0
    for num_rows in sizes:
        templates, _ = make_template_stream(16, 1, seed=31, style="localized")
        # One probe pinned to the insert hotspot so the oracle check always
        # covers rows that arrived through the merge path.
        probes = [
            *templates,
            Query.from_ranges({"x": (88_000, 94_000), "z": (0, 5_000)}),
        ]
        rows = make_localized_insert_rows(num_inserts, seed=32)
        samples = []
        for _ in range(repeats):
            index = DeltaBufferedIndex(tsunami_factory(1), merge_threshold=merge_threshold)
            base = make_linear_dataset("sustained", num_rows, seed=23)
            index.build(base, templates)
            seconds, _ = timed(lambda: index.insert_many(rows))
            samples.append(seconds)
        index.merge()
        seconds = statistics.median(samples)
        history = index.merge_history
        oracle = Table.from_arrays(
            "oracle",
            {
                name: np.concatenate(
                    [base.values(name), [row[name] for row in rows]]
                ).astype(np.int64)
                for name in base.column_names
            },
        )
        mismatches = 0
        for query in probes:
            result = index.execute(query)
            expected, stats = execute_full_scan(oracle, query)
            if result.value != expected or result.stats.rows_matched != stats.rows_matched:
                mismatches += 1
        mismatches_total += mismatches
        results["sizes"].append(
            {
                "num_rows": num_rows,
                "seconds_total": round(seconds, 4),
                "rows_per_second": round(num_inserts / seconds, 1),
                "merges": len(history),
                "strategies_run": sorted({report.strategy for report in history}),
                "regions_touched": sum(report.regions_touched or 0 for report in history),
                "regions_total": history[-1].regions_total if history else None,
                "mismatches": mismatches,
            }
        )
    first = results["sizes"][0]["rows_per_second"]
    last = results["sizes"][-1]["rows_per_second"]
    results["degradation"] = round(first / last, 2) if last else None
    results["mismatches_total"] = mismatches_total
    return results


def run_tracker_updates(scale: dict, mode: str, seed: int | None) -> tuple[dict, list[str]]:
    inserts = bench_inserts(
        num_rows=scale["insert_rows"], num_inserts=scale["num_inserts"]
    )
    queries, delta = bench_queries_with_pending(
        num_rows=scale["query_rows"],
        num_inserts=scale["pending_inserts"],
        num_templates=scale["num_templates"],
        num_queries=scale["num_queries"],
    )
    merge = bench_merge(delta)
    lifecycle = bench_lifecycle(
        num_rows=scale["lifecycle_rows"], num_queries=scale["lifecycle_queries"]
    )
    sustained = bench_sustained_inserts(
        base_rows=scale["sustained_base_rows"],
        num_sizes=scale["sustained_num_sizes"],
        num_inserts=scale["sustained_inserts"],
        merge_threshold=scale["sustained_merge_threshold"],
    )
    report = {
        "benchmark": "updatable serving path (delta buffer) throughput",
        "mode": mode,
        "inserts": inserts,
        "queries_with_pending_inserts": queries,
        "merge": merge,
        "lifecycle": lifecycle,
        "sustained_inserts": sustained,
    }
    failures = []
    if queries["batch_speedup"] < 1.0:
        failures.append(
            f"batched delta-path queries are slower than the "
            f"unbatched path (speedup {queries['batch_speedup']}x < 1.0x)"
        )
    if sustained["mismatches_total"] > 0:
        failures.append(
            "local merges disagree with the full-scan oracle on "
            f"{sustained['mismatches_total']} probe query result(s)"
        )
    degradation = sustained["degradation"]
    if degradation is None or degradation >= 2.0:
        failures.append(
            "local-merge sustained insert rate degrades "
            f"{degradation}x from the smallest to the largest table "
            "(must stay under 2.0x)"
        )
    return report, failures


# ---------------------------------------------------------------------------
# Tracker 3: sharded serving layer throughput
# ---------------------------------------------------------------------------


def bench_batched_throughput(num_rows: int, num_templates: int, num_queries: int) -> dict:
    """Single index vs sharded index on one skewed stream."""
    templates, stream = make_template_stream(
        num_templates, num_queries, seed=34, style="localized"
    )

    single = tsunami_factory()()
    single.build(make_linear_dataset("sharded", num_rows, seed=33), templates)

    serial = ShardedIndex(shard_factory(), num_shards=NUM_SHARDS, shard_dimension="x")
    serial.build(make_linear_dataset("sharded", num_rows, seed=33), templates)

    engines = {
        "single_batched": QueryEngine(index=single),
        "sharded_serial_batched": QueryEngine(index=serial),
    }
    results: dict = {
        "num_rows": num_rows,
        "num_shards": NUM_SHARDS,
        "num_templates": num_templates,
        "num_queries": num_queries,
        "batch_size": BATCH_SIZE,
    }

    # Warm every serving path (plan caches persist across batches in a real
    # server) so the comparison is steady-state.
    warmup = stream[: min(BATCH_SIZE, len(stream))]
    for engine in engines.values():
        engine.run_batch(warmup, batch_size=BATCH_SIZE)

    values: dict[str, list] = {}
    for label, engine in engines.items():
        seconds, outcomes = timed(lambda e=engine: e.run_batch(stream, batch_size=BATCH_SIZE))
        values[label] = outcomes
        results[label] = {
            "queries_per_second": round(len(stream) / seconds, 1),
            "seconds_total": round(seconds, 4),
        }

    for reference, candidate in zip(values["single_batched"], values["sharded_serial_batched"]):
        assert candidate.value == reference.value, "sharded index diverged from single index"

    single_qps = results["single_batched"]["queries_per_second"]
    results["sharded_serial_vs_single"] = round(
        results["sharded_serial_batched"]["queries_per_second"] / single_qps, 3
    )
    return results


def bench_pruning(num_rows: int, num_templates: int) -> dict:
    """How many shards the per-shard bounding boxes skip per query template."""
    templates, _ = make_template_stream(num_templates, 1, seed=34, style="localized")
    sharded = ShardedIndex(shard_factory(), num_shards=NUM_SHARDS, shard_dimension="x")
    sharded.build(make_linear_dataset("sharded", num_rows, seed=33), templates)
    pruned = [sharded.shards_pruned(query) for query in templates]
    return {
        "num_rows": num_rows,
        "num_shards": NUM_SHARDS,
        "num_templates": num_templates,
        "avg_shards_pruned": round(float(np.mean(pruned)), 2),
        "min_shards_pruned": int(min(pruned)),
        "max_shards_pruned": int(max(pruned)),
        "avg_fraction_pruned": round(float(np.mean(pruned)) / NUM_SHARDS, 3),
    }


def bench_updatable_shards(
    num_rows: int, num_inserts: int, num_templates: int, num_queries: int
) -> dict:
    """The batched path over delta-buffered shards holding pending inserts."""
    templates, stream = make_template_stream(
        num_templates, num_queries, seed=34, style="localized"
    )
    factory = partial(
        DeltaBufferedIndex, shard_factory(), merge_threshold=10 * max(num_inserts, 1)
    )
    sharded = ShardedIndex(factory, num_shards=NUM_SHARDS, shard_dimension="x")
    sharded.build(make_linear_dataset("sharded", num_rows, seed=33), templates)

    rng = np.random.default_rng(35)
    rows = [
        {
            "x": int(x),
            "y": int(x) * 3 + int(rng.integers(-500, 501)),
            "z": int(rng.integers(0, 5_000)),
        }
        for x in rng.integers(0, DOMAIN, num_inserts)
    ]
    seconds, _ = timed(lambda: sharded.insert_many(rows))
    insert_rate = round(num_inserts / seconds, 1) if seconds else float("inf")

    engine = QueryEngine(index=sharded)
    engine.run_batch(stream[: min(BATCH_SIZE, len(stream))], batch_size=BATCH_SIZE)
    seconds, batched = timed(lambda: engine.run_batch(stream, batch_size=BATCH_SIZE))

    probe = list({q: None for q in stream})[:16]
    for query in probe:
        assert sharded.execute(query).value == batched[stream.index(query)].value

    return {
        "num_rows": num_rows,
        "pending_inserts": sharded.num_pending,
        "insert_rows_per_second": insert_rate,
        "batched": {
            "queries_per_second": round(len(stream) / seconds, 1),
            "seconds_total": round(seconds, 4),
        },
    }


def run_tracker_shards(scale: dict, mode: str, seed: int | None) -> tuple[dict, list[str]]:
    throughput = bench_batched_throughput(
        num_rows=scale["throughput_rows"],
        num_templates=scale["num_templates"],
        num_queries=scale["num_queries"],
    )
    pruning = bench_pruning(
        num_rows=scale["pruning_rows"], num_templates=scale["num_templates"]
    )
    updatable = bench_updatable_shards(
        num_rows=scale["updatable_rows"],
        num_inserts=scale["num_inserts"],
        num_templates=scale["num_templates"],
        num_queries=scale["updatable_queries"],
    )
    report = {
        "benchmark": "sharded serving layer throughput",
        "mode": mode,
        "batched_throughput": throughput,
        "pruning": pruning,
        "updatable_shards": updatable,
    }
    failures = []
    if throughput["sharded_serial_vs_single"] < 1.0:
        failures.append(
            "sharded batched throughput regressed below "
            f"the single-index baseline "
            f"({throughput['sharded_serial_vs_single']}x < 1.0x)"
        )
    return report, failures


# ---------------------------------------------------------------------------
# Tracker 4: concurrent serving front-end latency + throughput
# ---------------------------------------------------------------------------


def serving_config(cache: bool) -> ServingConfig:
    return ServingConfig(
        max_batch_size=256,
        max_delay_seconds=0.002,
        idle_gap_seconds=0.00025,
        max_queue_depth=8_192,
        cache_entries=4_096 if cache else 0,
    )


def _no_close(config: ServingConfig) -> ServingConfig:
    """The benchmark reuses one engine across front-ends; don't close it."""
    return replace(config, close_backend=False)


def percentile_summary(latencies_s: list[float]) -> dict:
    values = np.asarray(latencies_s) * 1_000.0
    p50, p95, p99 = np.percentile(values, [50, 95, 99])
    return {
        "p50_ms": round(float(p50), 3),
        "p95_ms": round(float(p95), 3),
        "p99_ms": round(float(p99), 3),
        "mean_ms": round(float(values.mean()), 3),
        "max_ms": round(float(values.max()), 3),
    }


def run_serialized(engine: QueryEngine, stream: list[Query]) -> tuple[float, list[float]]:
    """One query at a time through ``engine.run`` — the no-server baseline."""
    start = time.perf_counter()
    values = [engine.run(query).value for query in stream]
    return time.perf_counter() - start, values


def run_concurrent(
    frontend: ServingFrontend, stream: list[Query], num_clients: int
) -> tuple[float, list[float]]:
    """``num_clients`` closed-loop clients submitting through the front-end."""
    start = time.perf_counter()
    with ThreadPoolExecutor(num_clients) as pool:
        results = list(pool.map(frontend.query, stream))
    return time.perf_counter() - start, [result.value for result in results]


def bench_closed_loop(engine: QueryEngine, stream: list[Query]) -> dict:
    results: dict = {"num_queries": len(stream), "num_clients": NUM_CLIENTS}

    # Warm the plan caches once so every mode measures steady state.
    engine.run_batch(stream[:256], batch_size=256)

    serial_seconds, expected = run_serialized(engine, stream)
    results["serialized"] = {
        "queries_per_second": round(len(stream) / serial_seconds, 1),
        "seconds_total": round(serial_seconds, 4),
    }

    for label, cache in (("batched", False), ("batched_cached", True)):
        with ServingFrontend(engine, _no_close(serving_config(cache))) as frontend:
            seconds, values = run_concurrent(frontend, stream, NUM_CLIENTS)
            for got, want in zip(values, expected):
                assert got == want, f"{label} serving diverged from serialized"
            results[label] = {
                "queries_per_second": round(len(stream) / seconds, 1),
                "seconds_total": round(seconds, 4),
                "stats": frontend.describe(),
            }

    serial_qps = results["serialized"]["queries_per_second"]
    results["batched_vs_serialized"] = round(
        results["batched"]["queries_per_second"] / serial_qps, 3
    )
    results["cached_vs_serialized"] = round(
        results["batched_cached"]["queries_per_second"] / serial_qps, 3
    )
    return results


def arrival_offsets(num_queries: int, rate_qps: float, seed: int = 43) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.exponential(1.0 / rate_qps, size=num_queries).cumsum()


def open_loop_serialized(
    engine: QueryEngine, stream: list[Query], offsets: np.ndarray
) -> list[float]:
    """A single server thread working a Poisson arrival schedule."""
    latencies = []
    start = time.perf_counter()
    for query, offset in zip(stream, offsets):
        scheduled = start + offset
        now = time.perf_counter()
        if now < scheduled:
            time.sleep(scheduled - now)
        engine.run(query)
        latencies.append(time.perf_counter() - scheduled)
    return latencies


def open_loop_concurrent(
    frontend: ServingFrontend,
    stream: list[Query],
    offsets: np.ndarray,
    num_clients: int,
) -> list[float]:
    """``num_clients`` threads splitting the same arrival schedule."""
    latencies: list[float] = []
    lock = threading.Lock()
    start = time.perf_counter()

    def client(position: int) -> None:
        mine = []
        for i in range(position, len(stream), num_clients):
            scheduled = start + offsets[i]
            now = time.perf_counter()
            if now < scheduled:
                time.sleep(scheduled - now)
            frontend.query(stream[i])
            mine.append(time.perf_counter() - scheduled)
        with lock:
            latencies.extend(mine)

    threads = [threading.Thread(target=client, args=(t,)) for t in range(num_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies


def bench_open_loop(
    engine: QueryEngine, stream: list[Query], serialized_qps: float
) -> dict:
    rate = serialized_qps * OVERLOAD_FACTOR
    offsets = arrival_offsets(len(stream), rate)
    results: dict = {
        "num_queries": len(stream),
        "num_clients": NUM_CLIENTS,
        "offered_load_qps": round(rate, 1),
        "overload_factor_vs_serialized": OVERLOAD_FACTOR,
    }

    results["serialized"] = percentile_summary(
        open_loop_serialized(engine, stream, offsets)
    )
    for label, cache in (("batched", False), ("batched_cached", True)):
        with ServingFrontend(engine, _no_close(serving_config(cache))) as frontend:
            latencies = open_loop_concurrent(frontend, stream, offsets, NUM_CLIENTS)
            results[label] = percentile_summary(latencies)
            results[label]["batching"] = frontend.batcher.stats.as_dict()
            if frontend.cache is not None:
                results[label]["cache"] = frontend.cache.stats.as_dict()
    return results


def run_tracker_serving(scale: dict, mode: str, seed: int | None) -> tuple[dict, list[str]]:
    num_rows = scale["num_rows"]
    num_templates = scale["num_templates"]
    templates, stream = make_template_stream(
        num_templates, scale["num_queries"], seed=42, style="localized"
    )
    index = TsunamiIndex(TsunamiConfig(optimizer_iterations=2))
    index.build(make_linear_dataset("serving", num_rows, seed=41), templates)
    engine = QueryEngine(index=index)

    closed = bench_closed_loop(engine, stream)
    open_loop = bench_open_loop(
        engine,
        stream[: scale["open_loop_queries"]],
        closed["serialized"]["queries_per_second"],
    )

    report = {
        "benchmark": "concurrent serving front-end latency + throughput",
        "mode": mode,
        "num_rows": num_rows,
        "num_templates": num_templates,
        "closed_loop_throughput": closed,
        "open_loop_latency": open_loop,
    }
    failures = []
    if closed["batched_vs_serialized"] < 1.0:
        failures.append(
            "concurrent micro-batched serving regressed below "
            f"serialized per-query serving "
            f"({closed['batched_vs_serialized']}x < 1.0x)"
        )
    return report, failures


# ---------------------------------------------------------------------------
# Tracker 5: fault-tolerant serving
# ---------------------------------------------------------------------------


def fault_schedule(seed: int) -> FaultPlan:
    """Transient errors plus injected delays at the shard-execution site.

    Probabilities are drawn from the plan's seeded RNG, so the same seed over
    the same batch sequence replays the identical schedule.
    """
    return FaultPlan(
        [
            FaultSpec(site="shard.execute", kind="error", probability=0.15),
            FaultSpec(
                site="shard.execute", kind="delay", probability=0.10, delay_seconds=0.003
            ),
        ],
        seed=seed,
    )


def serving_policy() -> FaultPolicy:
    return FaultPolicy(
        shard_timeout_seconds=5.0,
        retry=RetryPolicy(max_retries=1, backoff_seconds=0.001, seed=7),
        breaker_failure_threshold=3,
        breaker_cooldown_seconds=0.05,
        degradation="degraded",
    )


def run_phase(index: ShardedIndex, stream: list[Query]) -> dict:
    """Serve ``stream`` in batches; throughput, latency, and the raw values."""
    batch_seconds: list[float] = []
    values: list[float | None] = []
    before = dict(index.fault_stats.as_dict())
    start = time.perf_counter()
    for offset in range(0, len(stream), BATCH_SIZE):
        batch = stream[offset : offset + BATCH_SIZE]
        batch_start = time.perf_counter()
        results = index.execute_batch(batch)
        batch_seconds.append(time.perf_counter() - batch_start)
        values.extend(result.value for result in results)
    seconds = time.perf_counter() - start
    after = index.fault_stats.as_dict()
    latencies = sorted(batch_seconds)

    def percentile(fraction: float) -> float:
        return latencies[min(int(len(latencies) * fraction), len(latencies) - 1)]

    return {
        "queries": len(stream),
        "queries_per_second": round(len(stream) / seconds, 1),
        "seconds_total": round(seconds, 4),
        "batch_latency_ms": {
            "p50": round(percentile(0.50) * 1e3, 3),
            "p95": round(percentile(0.95) * 1e3, 3),
            "max": round(latencies[-1] * 1e3, 3),
        },
        "fault_stats_delta": {
            key: after[key] - before[key] for key in after
        },
        "values": values,
    }


def bench_fault_tolerance(
    num_rows: int, num_templates: int, num_queries: int, seed: int
) -> tuple[dict, list[str]]:
    """The three-phase chaos run; returns the report and any gate failures."""
    templates, stream = make_template_stream(
        num_templates, num_queries, seed=44, style="localized"
    )
    index = ShardedIndex(
        shard_factory(1),
        num_shards=NUM_SHARDS,
        shard_dimension="x",
        fault_policy=serving_policy(),
    )
    index.build(make_linear_dataset("faulty", num_rows, seed=43), templates)

    failures: list[str] = []
    try:
        # Warm plan caches so every phase measures steady state.
        index.execute_batch(stream[: min(BATCH_SIZE, len(stream))])

        baseline = run_phase(index, stream)
        if baseline["fault_stats_delta"]["partial_serves"]:
            failures.append("baseline phase reported partial serves without faults")

        plan = fault_schedule(seed)
        with faults.active(plan):
            faulted = run_phase(index, stream)
        faulted["injected_faults"] = len(plan.injections)
        faulted["injected_errors"] = sum(
            1 for injection in plan.injections if injection.kind == "error"
        )
        faulted["injected_delays"] = sum(
            1 for injection in plan.injections if injection.kind == "delay"
        )
        if faulted["queries"] != len(stream):
            failures.append("faulted phase dropped queries instead of degrading")

        # Let every opened breaker's cooldown elapse so the recovered phase
        # starts from half-open probes, exactly like a real incident ending.
        time.sleep(serving_policy().breaker_cooldown_seconds * 2)
        recovered = run_phase(index, stream)
    finally:
        index.close()

    mismatched = sum(
        1 for a, b in zip(recovered["values"], baseline["values"]) if a != b
    )
    if mismatched:
        failures.append(
            f"recovered values diverged from baseline for {mismatched} queries"
        )
    if recovered["fault_stats_delta"]["shard_failures"]:
        failures.append("recovered phase still recorded shard failures")

    recovery_ratio = round(
        recovered["queries_per_second"] / baseline["queries_per_second"], 3
    )
    if recovery_ratio < RECOVERY_FLOOR:
        failures.append(
            f"recovered throughput is {recovery_ratio}x of baseline "
            f"(floor {RECOVERY_FLOOR}x)"
        )

    for phase in (baseline, faulted, recovered):
        del phase["values"]  # raw values are compared, not reported

    report = {
        "num_rows": num_rows,
        "num_shards": NUM_SHARDS,
        "num_templates": num_templates,
        "num_queries": num_queries,
        "batch_size": BATCH_SIZE,
        "fault_seed": seed,
        "policy": {
            "shard_timeout_seconds": 5.0,
            "max_retries": 1,
            "breaker_failure_threshold": 3,
            "breaker_cooldown_seconds": 0.05,
            "degradation": "degraded",
        },
        "baseline": baseline,
        "faulted": faulted,
        "recovered": recovered,
        "recovery_ratio": recovery_ratio,
        "recovered_bit_identical": mismatched == 0,
    }
    return report, failures


def run_tracker_faults(scale: dict, mode: str, seed: int | None) -> tuple[dict, list[str]]:
    report, failures = bench_fault_tolerance(
        num_rows=scale["num_rows"],
        num_templates=scale["num_templates"],
        num_queries=scale["num_queries"],
        seed=11 if seed is None else seed,
    )
    report["benchmark"] = "fault-tolerant serving"
    report["mode"] = mode
    return report, failures


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

_TRACKERS = {
    "throughput": run_tracker_throughput,
    "updates": run_tracker_updates,
    "shards": run_tracker_shards,
    "serving": run_tracker_serving,
    "faults": run_tracker_faults,
}


def run_tracker(
    config: TrackerConfig, mode: str = "full", seed: int | None = None
) -> tuple[dict, list[str]]:
    """Run one tracker at the configured scale; returns (report, gate failures)."""
    if mode not in config.scales:
        raise ConfigError(
            f"tracker {config.name!r} has no scale for mode {mode!r}; "
            f"available: {sorted(config.scales)}"
        )
    scale = dict(config.scales[mode])
    runner = _TRACKERS[config.tracker]
    if seed is None and config.seed is not None:
        seed = config.seed
    return runner(scale, mode, seed)


def tracker_main(
    config_path: str | Path,
    argv: list[str] | None = None,
    default_output_root: str | Path | None = None,
) -> int:
    """Shared ``main`` of the five tracker wrapper scripts.

    Preserves each script's historical CLI contract: ``--smoke`` runs the
    small scale and exits non-zero on a gate failure; the full run writes the
    tracker's ``BENCH_*.json`` next to ``default_output_root`` (the smoke run
    only when ``--output`` is passed explicitly).
    """
    config = load_config(config_path)
    if not isinstance(config, TrackerConfig):
        raise ConfigError(f"{config_path} is not a tracker config")
    parser = argparse.ArgumentParser(description=config.description or config.name)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI scale; exit 1 on a gate failure",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help=f"JSON output path (default: {config.output} at the repo root "
        "in full mode, no file in smoke mode)",
    )
    if config.tracker == "faults":
        parser.add_argument(
            "--seed", type=int, default=11, help="fault-schedule seed (default: 11)"
        )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    report, failures = run_tracker(config, mode=mode, seed=getattr(args, "seed", None))
    print(json.dumps(report, indent=2))

    output = args.output
    if output is None and not args.smoke and default_output_root is not None:
        output = Path(default_output_root) / config.output
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {output}", file=sys.stderr)

    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    return 1 if (args.smoke and failures) else 0
