"""Run a :class:`~repro.bench.scenario.ScenarioConfig` and emit a report.

:class:`ScenarioRunner` executes one scenario end to end:

1. :func:`repro.bench.workloads.build_scenario_data` materializes the table,
   template pool, serving stream, and write schedule — once per point of the
   dimensionality sweep, fully derived from the scenario seed.
2. Every configured index is built over the same table/pool and serves the
   same stream through the real serving stack for its variant: ``plain`` /
   ``delta`` / ``sharded`` run through :class:`~repro.query.engine.QueryEngine`,
   ``lifecycle`` through :class:`~repro.core.lifecycle.LifecycleManager`, and
   ``served`` through concurrent clients on a
   :class:`~repro.serve.frontend.ServingFrontend`.
3. Unless the scenario opts out (``verify: false``, required for fault
   injection), **every** answer is checked against the full-scan oracle —
   including mid-stream, after each interleaved write batch — and the report
   carries machine-independent work counters next to the wall-clock numbers.
4. Smoke thresholds (correctness, bytes scanned and stored per value,
   relative update rate) are evaluated into ``violations``; CI fails a smoke
   config whose report has any.

Reports are JSON-serializable dictionaries stamped with
``schema_version``/``kind`` and checked by :func:`validate_report`, so every
config in ``benchmarks/configs/`` produces the same envelope.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from repro.baselines import (
    FloodIndex,
    GridFileIndex,
    HyperOctreeIndex,
    KdTreeIndex,
    RTreeIndex,
    SingleDimensionIndex,
    ZOrderIndex,
)
from repro.bench.scenario import SCHEMA_VERSION, IndexConfig, ScenarioConfig
from repro.bench.workloads import ScenarioData, build_fault_plan, build_scenario_data
from repro.common import faults
from repro.common.errors import ConfigError
from repro.common.resilience import FaultPolicy, RetryPolicy
from repro.core.delta import DeltaBufferedIndex
from repro.core.lifecycle import LifecycleConfig, LifecycleManager
from repro.core.sharding import ShardedIndex, scaled_tsunami_config
from repro.core.tsunami import TsunamiConfig, TsunamiIndex
from repro.query.engine import QueryEngine, execute_full_scan
from repro.query.query import Query
from repro.serve import ServingConfig, ServingFrontend
from repro.storage.scan import ScanExecutor
from repro.storage.table import Table

#: Client threads driving the ``served`` variant's closed loop.
_SERVED_CLIENTS = 8


def base_index_factory(index: IndexConfig, num_shards: int = 1):
    """Zero-argument factory for the configured base index kind."""
    if index.kind == "tsunami":
        config = TsunamiConfig(optimizer_iterations=index.optimizer_iterations)
        if num_shards > 1:
            config = scaled_tsunami_config(num_shards, config)
        return partial(TsunamiIndex, config)
    if index.kind == "flood":
        return partial(FloodIndex, optimizer_iterations=index.optimizer_iterations)
    page_kinds = {
        "kdtree": KdTreeIndex,
        "rtree": RTreeIndex,
        "zorder": ZOrderIndex,
        "gridfile": GridFileIndex,
        "octree": HyperOctreeIndex,
    }
    if index.kind in page_kinds:
        return partial(page_kinds[index.kind], page_size=index.page_size)
    if index.kind == "singledim":
        return SingleDimensionIndex
    raise ConfigError(f"unknown index kind {index.kind!r}")  # pragma: no cover


def _degraded_fault_policy() -> FaultPolicy:
    """The degraded serving policy used by faulted scenarios."""
    return FaultPolicy(
        shard_timeout_seconds=5.0,
        retry=RetryPolicy(max_retries=1, backoff_seconds=0.001, seed=7),
        breaker_failure_threshold=3,
        breaker_cooldown_seconds=0.05,
        degradation="degraded",
    )


class _Serving:
    """One built serving stack: how to run batches, insert, and tear down."""

    def __init__(self, index_config: IndexConfig, data: ScenarioData, faulted: bool):
        self.config = index_config
        self.lifecycle: LifecycleManager | None = None
        self.frontend: ServingFrontend | None = None
        self._pool: ThreadPoolExecutor | None = None
        start = time.perf_counter()
        writable = index_config.accepts_writes() or bool(data.writes)

        def delta_factory():
            return DeltaBufferedIndex(
                base_index_factory(index_config),
                merge_threshold=index_config.merge_threshold,
            )

        variant = index_config.variant
        if variant == "plain":
            index = base_index_factory(index_config)()
        elif variant == "delta":
            index = delta_factory()
        elif variant == "sharded":
            shard_factory = (
                (
                    lambda: DeltaBufferedIndex(
                        base_index_factory(index_config, index_config.num_shards),
                        merge_threshold=index_config.merge_threshold,
                    )
                )
                if index_config.updatable_shards
                else base_index_factory(index_config, index_config.num_shards)
            )
            index = ShardedIndex(
                shard_factory,
                num_shards=index_config.num_shards,
                fault_policy=_degraded_fault_policy() if faulted else None,
            )
        elif variant in ("lifecycle", "served"):
            index = delta_factory() if writable or variant == "lifecycle" else (
                base_index_factory(index_config)()
            )
        else:  # pragma: no cover - blocked by config validation
            raise ConfigError(f"unknown variant {variant!r}")

        index.build(data.table, data.build_workload)
        self.index = index
        if variant == "lifecycle":
            self.lifecycle = LifecycleManager(index, LifecycleConfig())
            self.backend = self.lifecycle
        else:
            self.backend = QueryEngine(index=index)
        if variant == "served":
            self.frontend = ServingFrontend(
                self.backend,
                ServingConfig(
                    max_batch_size=64,
                    max_queue_depth=8_192,
                    cache_entries=index_config.cache_entries,
                ),
            )
            self._pool = ThreadPoolExecutor(_SERVED_CLIENTS)
        self.build_seconds = time.perf_counter() - start

    def run_segment(self, queries: list[Query]) -> list:
        if self.frontend is not None:
            assert self._pool is not None
            return list(self._pool.map(self.frontend.query, queries))
        return self.backend.run_batch(queries)

    def insert_many(self, rows: list[dict]) -> None:
        target = self.frontend if self.frontend is not None else self.backend
        target.insert_many(rows)

    def describe(self) -> dict | None:
        if self.frontend is not None:
            return {"serving": self.frontend.describe()}
        if self.lifecycle is not None:
            report = self.lifecycle.report().as_dict()
            report["events"] = report["events"][:20]
            return {"lifecycle": report}
        if isinstance(self.index, ShardedIndex):
            return {"fault_stats": self.index.fault_stats.as_dict()}
        return None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self.frontend is not None:
            self.frontend.close()  # closes the backend too
        else:
            close = getattr(self.backend, "close", None) or getattr(
                self.index, "close", None
            )
            if close is not None:
                close()


class _Oracle:
    """Full-scan ground truth, tracking writes as they land mid-stream.

    The base table's answer per unique query is full-scanned once and cached;
    rows inserted so far are filtered vectorized per query.  Scenario
    workloads aggregate with ``count``, so the expected answer is simply the
    base count plus the matching-insert count.
    """

    def __init__(self, table: Table):
        self._table = table
        self._executor = ScanExecutor(table)
        self._base: dict[Query, float] = {}
        self._inserted: dict[str, list[int]] = {name: [] for name in table.column_names}
        self._arrays: dict[str, np.ndarray] | None = None

    def absorb(self, rows: list[dict]) -> None:
        for row in rows:
            for name, value in row.items():
                self._inserted[name].append(value)
        self._arrays = None

    def expected(self, query: Query) -> float:
        base = self._base.get(query)
        if base is None:
            base, _ = execute_full_scan(self._table, query, self._executor)
            self._base[query] = base
        pending = next(iter(self._inserted.values()), [])
        if not pending:
            return base
        if self._arrays is None:
            self._arrays = {
                name: np.asarray(values, dtype=np.int64)
                for name, values in self._inserted.items()
            }
        mask = np.ones(len(pending), dtype=bool)
        for dimension, (low, high) in query.filters().items():
            mask &= (self._arrays[dimension] >= low) & (self._arrays[dimension] <= high)
        return base + float(np.count_nonzero(mask))


class ScenarioRunner:
    """Executes a scenario config into a schema-versioned report."""

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config

    # -- measurement ------------------------------------------------------------------

    def _segments(self, data: ScenarioData):
        """Split the stream at write positions: [(queries, rows-to-insert-after)]."""
        stream = data.stream
        cuts = [(event.position, event.rows) for event in data.writes]
        segments = []
        last = 0
        for position, rows in cuts:
            position = min(position, len(stream))
            segments.append((stream[last:position], rows))
            last = position
        if last < len(stream):
            segments.append((stream[last:], None))
        return segments or [(stream, None)]

    def _measure(self, index_config: IndexConfig, data: ScenarioData) -> dict:
        faulted = self.config.faults is not None
        serving = _Serving(index_config, data, faulted)
        plan = build_fault_plan(self.config, data) if faulted else None
        outcomes: list = []
        insert_log: list[tuple[int, list[dict]]] = []
        rows_inserted = 0
        insert_seconds = 0.0
        try:
            # Warm the plan caches so every index measures steady state.
            warmup = data.stream[: min(64, len(data.stream))]
            serving.run_segment(warmup)

            start = time.perf_counter()
            if plan is not None:
                faults.install(plan)
            try:
                for queries, rows in self._segments(data):
                    outcomes.extend(serving.run_segment(queries))
                    if rows is not None:
                        write_start = time.perf_counter()
                        serving.insert_many(rows)
                        insert_seconds += time.perf_counter() - write_start
                        insert_log.append((len(outcomes), rows))
                        rows_inserted += len(rows)
            finally:
                if plan is not None:
                    faults.uninstall()
            elapsed = time.perf_counter() - start
            details = serving.describe()
        finally:
            serving.close()

        mismatches = 0
        if self.config.verify:
            oracle = _Oracle(data.table)
            cursor = 0
            for position, outcome in enumerate(outcomes):
                while cursor < len(insert_log) and insert_log[cursor][0] <= position:
                    oracle.absorb(insert_log[cursor][1])
                    cursor += 1
                if outcome.value != oracle.expected(data.stream[position]):
                    mismatches += 1

        points = sum(outcome.stats.points_scanned for outcome in outcomes)
        ranges = sum(outcome.stats.cell_ranges for outcome in outcomes)
        values_scanned = sum(outcome.stats.values_scanned for outcome in outcomes)
        bytes_scanned = sum(outcome.stats.bytes_scanned for outcome in outcomes)
        num_queries = max(len(outcomes), 1)
        result = {
            "index": index_config.name,
            "kind": index_config.kind,
            "variant": index_config.variant,
            "build_seconds": round(serving.build_seconds, 4),
            "num_queries": len(outcomes),
            "seconds_total": round(elapsed, 4),
            "queries_per_second": round(len(outcomes) / elapsed, 1) if elapsed else 0.0,
            "rows_scanned_per_sec": round(points / elapsed, 1) if elapsed else 0.0,
            "avg_points_scanned": round(points / num_queries, 1),
            "avg_cell_ranges": round(ranges / num_queries, 2),
            "values_scanned": values_scanned,
            "bytes_scanned": bytes_scanned,
            # Machine-independent compression headline: an all-int64 scan sits
            # at exactly 8.0 bytes per value read.
            "bytes_per_value_scanned": (
                round(bytes_scanned / values_scanned, 3) if values_scanned else None
            ),
            "rows_inserted": rows_inserted,
            # Sustained insert rate over the insert_many calls alone (merge
            # cost included — that is the point of measuring it).
            "insert_seconds": round(insert_seconds, 4),
            "rows_inserted_per_second": (
                round(rows_inserted / insert_seconds, 1)
                if rows_inserted and insert_seconds
                else None
            ),
            "correct": mismatches == 0 if self.config.verify else None,
            "mismatches": mismatches if self.config.verify else None,
        }
        if plan is not None:
            result["injected_faults"] = len(plan.injections)
        if details:
            result.update(details)
        return result

    # -- entry point ------------------------------------------------------------------

    def run(self) -> dict:
        """Execute the whole scenario; returns the JSON-ready report."""
        sweep_results = []
        for num_dimensions in self.config.dataset.dimension_sweep():
            data = build_scenario_data(self.config, num_dimensions)
            cell = {
                "num_dimensions": int(num_dimensions),
                "num_rows": data.table.num_rows,
                "num_queries": len(data.stream),
                "num_templates": len(data.build_workload),
                "write_events": len(data.writes),
                # Storage footprint + per-column dtype breakdown, so the
                # narrow-dtype compression ratio shows in every artifact.
                "table": data.table.describe(),
                "indexes": [
                    self._measure(index_config, data)
                    for index_config in self.config.indexes
                ],
            }
            if data.categorical is not None:
                cell["categorical_reordering"] = data.categorical
            sweep_results.append(cell)

        violations = self._check_thresholds(sweep_results)
        report = {
            "schema_version": SCHEMA_VERSION,
            "kind": "scenario",
            "name": self.config.name,
            "description": self.config.description,
            "seed": self.config.seed,
            "smoke": self.config.smoke,
            "config": self.config.to_dict(),
            "results": sweep_results,
            "violations": violations,
            "ok": not violations,
        }
        validate_report(report)
        return report

    def _check_thresholds(self, sweep_results: list[dict]) -> list[str]:
        thresholds = self.config.thresholds
        violations = []
        for cell in sweep_results:
            label = f"d={cell['num_dimensions']}"
            for entry in cell["indexes"]:
                if thresholds.require_correct and entry["correct"] is False:
                    violations.append(
                        f"{label}: {entry['index']} returned {entry['mismatches']} "
                        "answers differing from the full-scan oracle"
                    )
                if (
                    thresholds.max_bytes_per_value is not None
                    and entry.get("bytes_per_value_scanned") is not None
                    and entry["bytes_per_value_scanned"] > thresholds.max_bytes_per_value
                ):
                    violations.append(
                        f"{label}: {entry['index']} scanned "
                        f"{entry['bytes_per_value_scanned']} bytes per value, above "
                        f"the {thresholds.max_bytes_per_value} ceiling "
                        "(int64 baseline is 8.0)"
                    )
            if thresholds.max_table_bytes_per_value is not None:
                footprint = cell["table"]["bytes_per_value"]
                if footprint is not None and footprint > thresholds.max_table_bytes_per_value:
                    violations.append(
                        f"{label}: table stores {footprint} bytes per value, above "
                        f"the {thresholds.max_table_bytes_per_value} ceiling "
                        "(all-int64 baseline is 8.0)"
                    )
            if thresholds.min_relative_update_rate is not None:
                rates = {
                    entry["index"]: entry["rows_inserted_per_second"]
                    for entry in cell["indexes"]
                    if entry.get("rows_inserted_per_second")
                }
                fastest = max(rates.values(), default=0.0)
                for name, rate in rates.items():
                    relative = rate / fastest if fastest else 1.0
                    if relative < thresholds.min_relative_update_rate:
                        violations.append(
                            f"{label}: {name} sustained {rate} rows/s, "
                            f"{round(relative, 3)}x of the fastest writer "
                            f"({fastest} rows/s), below the "
                            f"{thresholds.min_relative_update_rate}x floor"
                        )
        return violations


#: Keys every scenario report must carry (the report schema, v1).
_REPORT_KEYS = (
    "schema_version",
    "kind",
    "name",
    "config",
    "results",
    "violations",
    "ok",
)

_RESULT_KEYS = ("num_dimensions", "num_rows", "num_queries", "table", "indexes")

_INDEX_KEYS = (
    "index",
    "kind",
    "variant",
    "queries_per_second",
    "rows_scanned_per_sec",
    "avg_points_scanned",
    "bytes_scanned",
    "correct",
)


def validate_report(report: dict) -> dict:
    """Schema-check a scenario report; raises :class:`ConfigError` on violation."""
    missing = [key for key in _REPORT_KEYS if key not in report]
    if missing:
        raise ConfigError(f"scenario report is missing keys {missing}")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"scenario report has schema_version {report['schema_version']!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    for cell in report["results"]:
        missing = [key for key in _RESULT_KEYS if key not in cell]
        if missing:
            raise ConfigError(f"scenario result cell is missing keys {missing}")
        for entry in cell["indexes"]:
            missing = [key for key in _INDEX_KEYS if key not in entry]
            if missing:
                raise ConfigError(
                    f"index entry {entry.get('index')!r} is missing keys {missing}"
                )
    return report


def run_scenario(config: ScenarioConfig) -> dict:
    """Convenience wrapper: run ``config`` and return its validated report."""
    return ScenarioRunner(config).run()
