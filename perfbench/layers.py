"""Which entry points the traced run wraps, and the per-layer metrics.

Every wrapped entry point is public API of its layer.  Counters are taken at
the same boundaries (from the arguments and return values), so ratios are
measured where the work happens.  A layer a workload never calls reports
zero.
"""

from __future__ import annotations

import numpy as np

import repro.baselines.base as base_module
import repro.core.delta as delta_module
import repro.core.sharding as sharding_module
from repro.baselines.base import ClusteredIndex
from repro.core.augmented_grid import AugmentedGrid
from repro.core.delta import DeltaBuffer, DeltaBufferedIndex
from repro.core.drift import WorkloadDriftDetector
from repro.core.grid_tree import GridTree
from repro.core.incremental import IncrementalReoptimizer
from repro.core.lifecycle import LifecycleManager
from repro.core.query_types import PlanCache
from repro.core.sharding import ShardedIndex
from repro.query.engine import QueryEngine
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import ResultCache
from repro.storage.scan import ScanExecutor

#: Spans that run a whole batch and may de-duplicate it first.
BATCH_OWNERS = {"index", "shard", "delta.batch"}

#: Layer -> (its per-layer metrics, the end-to-end metrics and workloads a
#: change to it should move), written down before measuring anything.
LAYER_MAP = {
    "route": (
        ["route.self_s", "route.calls"],
        "ref_query_qps on skewed_reads",
    ),
    "plan": (
        ["plan.self_s", "plan.calls", "plan.cache_hit_rate"],
        "ref_query_qps and ref_latency_p50_ms on skewed_reads most, distinct_scans less",
    ),
    "index": (
        ["index.self_s", "batch.distinct_ratio", "engine.self_s"],
        "ref_query_qps on skewed_reads",
    ),
    "scan": (
        [
            "scan.self_s", "scan.points_per_query", "scan.cell_ranges_per_query",
            "scan.bytes_per_query", "scan.match_ratio",
        ],
        "ref_query_qps on distinct_scans most, skewed_reads less",
    ),
    "shard": (
        ["shard.self_s", "shard.pruned_ratio", "combine.self_s"],
        "ref_query_qps and the latency tail on distinct_scans",
    ),
    "delta": (
        [
            "delta.batch_self_s", "delta.scan_s", "delta.insert_self_s",
            "delta.pending_rows_mean",
        ],
        "insert_rows_per_s and ref_query_qps on drifting_writes",
    ),
    "merge": (
        ["merge.s", "merge.count", "merge.regions_touched_ratio"],
        "insert_rows_per_s and the latency tail on drifting_writes",
    ),
    "drift": (
        [
            "drift.observe_s", "drift.detections", "reoptimize.s", "reoptimize.count",
            "reoptimize.regions", "lifecycle.self_s",
        ],
        "ref_query_qps and the latency tail on drifting_writes (maintenance runs inline)",
    ),
    "serve": (
        [
            "serve.queue_wait_p50_ms", "serve.queue_wait_p99_ms", "serve.batch_size_mean",
            "serve.cache_hit_rate", "serve.wait_s",
        ],
        "ref_latency_p90_ms more than ref_latency_p50_ms on served_clients",
    ),
    "build": (["build.optimize_s", "build.sort_s"], "setup_s on every workload"),
    "trace": (["trace.overhead", "trace.unattributed_s"], "nothing: tracing cost"),
}


def _count_plan_lookup(tracer, span, args, plan) -> None:
    tracer.count("plan.lookups")
    tracer.count("plan.hits", plan is not None)


def _count_dedupe(tracer, span, args, result) -> None:
    # Only the outermost de-duplication sees the batch as the caller sent it;
    # the layers below it receive already distinct queries.
    if sum(name in BATCH_OWNERS for name in tracer.stack_names()) != 1:
        return
    distinct, order = result
    tracer.count("batch.distinct", len(distinct))
    tracer.count("batch.queries", len(order))


def _count_scan_batch(tracer, span, args, outcomes) -> None:
    for _, stats in outcomes:
        _add_scan_stats(tracer, stats)


def _count_scan(tracer, span, args, outcome) -> None:
    _add_scan_stats(tracer, outcome[1])


def _add_scan_stats(tracer, stats) -> None:
    tracer.count("scan.queries")
    tracer.count("scan.points", stats.points_scanned)
    tracer.count("scan.cell_ranges", stats.cell_ranges)
    tracer.count("scan.bytes", stats.bytes_scanned)
    tracer.count("scan.matched", stats.rows_matched)


def _count_pruned(tracer, span, args, results) -> None:
    index, queries = args[0], args[1]
    distinct = set(queries) if isinstance(queries, list) else {queries}
    tracer.count("shard.pruned", sum(index.shards_pruned(q) for q in distinct))
    tracer.count("shard.candidates", len(distinct) * len(index.shards))


def _count_pending(tracer, span, args, result) -> None:
    tracer.count("delta.scans")
    tracer.count("delta.pending", len(args[0]))


def _count_merge(tracer, span, args, report) -> None:
    if report is None:
        return
    tracer.count("merge.count")
    if report.regions_total:
        tracer.count("merge.regions_touched", report.regions_touched)
        tracer.count("merge.regions_total", report.regions_total)


def _count_drift(tracer, span, args, report) -> None:
    tracer.count("drift.detections", report.drifted)


def _count_reoptimize(tracer, span, args, report) -> None:
    tracer.count("reoptimize.regions", len(report.regions_reoptimized))


def _note_backend_batch(tracer, span, args, results) -> None:
    # Lets a serving client find the backend batch its cache miss rode in.
    record = tracer.spans[span]
    for query in args[1]:
        tracer.backend_batches[id(query)] = (record.start, record.end)
    tracer.count("engine.queries", len(args[1]))


def _count_cache(tracer, span, args, result) -> None:
    tracer.count("serve.lookups")
    tracer.count("serve.hits", result is not None)


def _note_put(tracer, span, args, result) -> None:
    tracer.local.put_end = tracer.spans[span].end


def install(tracer) -> None:
    """Wrap every layer's entry points (undo with ``tracer.uninstall()``)."""
    tracer.backend_batches = {}
    wrap = tracer.wrap
    wrap(GridTree, "regions_for_queries", "route")
    wrap(GridTree, "regions_for_query", "route")
    wrap(AugmentedGrid, "ranges_for_query", "plan")
    wrap(PlanCache, "get", None, _count_plan_lookup)
    wrap(ClusteredIndex, "execute_batch", "index")
    wrap(ClusteredIndex, "execute", "index")
    for module in (base_module, delta_module, sharding_module):
        wrap(module, "dedupe_queries", None, _count_dedupe)
    wrap(ScanExecutor, "execute_batch", "scan", _count_scan_batch)
    wrap(ScanExecutor, "execute", "scan", _count_scan)
    wrap(ShardedIndex, "execute_batch", "shard", _count_pruned)
    wrap(ShardedIndex, "execute", "shard", _count_pruned)
    for module in (sharding_module, delta_module):
        wrap(module, "combine_partial_results", "combine")
    wrap(DeltaBufferedIndex, "execute_batch", "delta.batch")
    wrap(DeltaBuffer, "scan", "delta.scan", _count_pending)
    wrap(DeltaBufferedIndex, "insert_many", "delta.insert")
    wrap(DeltaBufferedIndex, "merge", "merge", _count_merge)
    wrap(WorkloadDriftDetector, "observe", "drift", _count_drift)
    wrap(IncrementalReoptimizer, "reoptimize", "reoptimize", _count_reoptimize)
    wrap(LifecycleManager, "run_batch", "lifecycle")
    wrap(LifecycleManager, "insert_many", "lifecycle")
    wrap(QueryEngine, "run_batch", "engine", _note_backend_batch)
    wrap(ResultCache, "get", "serve.cache", _count_cache)
    wrap(MicroBatcher, "put", "serve.enqueue", _note_put)


def build_reports(index) -> list:
    """The ``BuildReport`` of every index built under ``index``."""
    if isinstance(index, ShardedIndex):
        return [shard.build_report for shard in index.shards]
    if isinstance(index, DeltaBufferedIndex):
        return [index.base_index.build_report]
    return [index.build_report]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile_ms(values: list[float], q: float) -> float:
    return 1e3 * float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer, run, builds, load_threads: set[int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``run``); ``builds`` are its set-up's."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counters
    served = "serve.lookups" in c
    # Time on the load-generating threads outside every named layer: the
    # request spans' own time plus the loop between requests.
    attributed = sum(
        seconds
        for span, seconds in zip(tracer.spans, tracer.span_self_times())
        if span.thread in load_threads and span.name != "request"
    )
    return {
        "route.self_s": self_s.get("route", 0.0),
        "route.calls": calls.get("route", 0),
        "plan.self_s": self_s.get("plan", 0.0),
        "plan.calls": calls.get("plan", 0),
        "plan.cache_hit_rate": _ratio(c["plan.hits"], c["plan.lookups"]),
        "index.self_s": self_s.get("index", 0.0),
        "batch.distinct_ratio": _ratio(c["batch.distinct"], c["batch.queries"]),
        "scan.self_s": self_s.get("scan", 0.0),
        "scan.points_per_query": _ratio(c["scan.points"], c["scan.queries"]),
        "scan.cell_ranges_per_query": _ratio(c["scan.cell_ranges"], c["scan.queries"]),
        "scan.bytes_per_query": _ratio(c["scan.bytes"], c["scan.queries"]),
        "scan.match_ratio": _ratio(c["scan.matched"], c["scan.points"]),
        "shard.self_s": self_s.get("shard", 0.0),
        "shard.pruned_ratio": _ratio(c["shard.pruned"], c["shard.candidates"]),
        "combine.self_s": self_s.get("combine", 0.0),
        "delta.batch_self_s": self_s.get("delta.batch", 0.0),
        "delta.scan_s": self_s.get("delta.scan", 0.0),
        "delta.insert_self_s": self_s.get("delta.insert", 0.0),
        "delta.pending_rows_mean": _ratio(c["delta.pending"], c["delta.scans"]),
        "merge.s": self_s.get("merge", 0.0),
        "merge.count": int(c["merge.count"]),
        "merge.regions_touched_ratio": _ratio(
            c["merge.regions_touched"], c["merge.regions_total"]
        ),
        "drift.observe_s": self_s.get("drift", 0.0),
        "drift.detections": int(c["drift.detections"]),
        "reoptimize.s": self_s.get("reoptimize", 0.0),
        "reoptimize.count": calls.get("reoptimize", 0),
        "reoptimize.regions": int(c["reoptimize.regions"]),
        "lifecycle.self_s": self_s.get("lifecycle", 0.0),
        "engine.self_s": self_s.get("engine", 0.0),
        "serve.queue_wait_p50_ms": _percentile_ms(run.queue_waits, 50),
        "serve.queue_wait_p99_ms": _percentile_ms(run.queue_waits, 99),
        "serve.batch_size_mean": _ratio(c["engine.queries"], calls.get("engine", 0)) if served else 0.0,
        "serve.cache_hit_rate": _ratio(c["serve.hits"], c["serve.lookups"]),
        "serve.wait_s": self_s.get("serve.wait", 0.0),
        "build.optimize_s": sum(report.optimize_seconds for report in builds),
        "build.sort_s": sum(report.sort_seconds for report in builds),
        "trace.unattributed_s": sum(run.walls) - attributed,
    }
