"""Build (table, workload, stream) triples from a :class:`ScenarioConfig`.

This is the single place benchmark data comes from: every axis of the
scenario matrix — dataset family, dimensionality, zipf skew, selectivity,
point-lookup fraction, categorical hybrid predicates, read/write mix, and
named drift schedules — is realized here, so no benchmark script carries its
own generation logic.

Everything is derived from the scenario's one ``seed`` through
:func:`repro.common.rng.spawn_rngs`: child 0 generates the dataset, child 1
places the template filters, child 2 orders the serving stream, child 3
draws the write batches, and child 4 seeds the fault plan.  Two calls with
the same config therefore produce byte-identical query streams (pinned by
``tests/test_bench_scenario.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.scenario import ScenarioConfig
from repro.common.errors import ConfigError
from repro.common.faults import FaultPlan, FaultSpec
from repro.common.rng import spawn_rngs
from repro.core.categorical import CategoricalReordering
from repro.datasets.registry import load_dataset
from repro.datasets.synthetic import make_correlated_dataset, make_uniform_dataset
from repro.datasets.workload_gen import (
    EqualitySpec,
    QueryTemplate,
    RangeSpec,
    generate_workload,
)
from repro.query.query import Query
from repro.query.workload import Workload
from repro.storage.column import Column
from repro.storage.dictionary import DictionaryEncoder
from repro.storage.table import Table


@dataclass
class WriteEvent:
    """An insert batch scheduled at ``position`` in the serving stream."""

    position: int
    rows: list[dict]


@dataclass
class ScenarioData:
    """Everything a runner needs to measure one (dimensionality, config) cell."""

    table: Table
    #: The template pool the index-under-test is optimized for.
    build_workload: Workload
    #: The serving stream (pool queries repeated per the skew/drift axes).
    stream: list[Query]
    #: Insert batches interleaved into the stream (empty when read-only).
    writes: list[WriteEvent] = field(default_factory=list)
    #: Seed for deterministic fault plans (derived from the scenario seed).
    fault_seed: int = 0
    #: Applied categorical reordering summary (None when the axis is off).
    categorical: dict | None = None


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def _make_correlated_xyz(
    num_rows: int, domain: int, rng: np.random.Generator
) -> Table:
    """The skewed x/y/z family: x uniform, y tracks 3x, z small."""
    x = rng.integers(0, domain, num_rows)
    y = x * 3 + rng.integers(-500, 501, num_rows)
    z = rng.integers(0, max(domain // 20, 2), num_rows)
    return Table.from_arrays("scenario_xyz", {"x": x, "y": y, "z": z})


def _add_categorical_column(
    table: Table, config, rng: np.random.Generator
) -> Table:
    """Append a dictionary-encoded column with zipf-ish value frequencies."""
    values = [f"cat_{i:04d}" for i in range(config.cardinality)]
    weights = 1.0 / np.arange(1, config.cardinality + 1) ** config.skew
    weights /= weights.sum()
    codes = rng.choice(config.cardinality, size=table.num_rows, p=weights)
    dictionary = DictionaryEncoder.from_ordered_values(values)
    columns = [table.column(name) for name in table.column_names]
    columns.append(
        Column(config.dimension, codes.astype(np.int64), dictionary=dictionary)
    )
    return Table(table.name, columns)


def build_table(
    config: ScenarioConfig, num_dimensions: int, rng: np.random.Generator
) -> Table:
    """Build the scenario's table for one point of the dimensionality sweep."""
    dataset = config.dataset
    if dataset.source == "correlated_xyz":
        table = _make_correlated_xyz(dataset.num_rows, dataset.domain, rng)
    elif dataset.source == "uniform":
        table = make_uniform_dataset(dataset.num_rows, num_dimensions, seed=rng)
    elif dataset.source == "correlated":
        table = make_correlated_dataset(dataset.num_rows, num_dimensions, seed=rng)
    elif dataset.source == "registry":
        table, _ = load_dataset(
            dataset.registry_name, num_rows=dataset.num_rows, queries_per_type=1, seed=rng
        )
    else:  # pragma: no cover - blocked by ScenarioConfig.validate
        raise ConfigError(f"unknown dataset source {dataset.source!r}")
    if dataset.categorical is not None:
        table = _add_categorical_column(table, dataset.categorical, rng)
    return table


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------

#: Width (in quantile space) of each template's placement region — templates
#: concentrate on a slice of the data space, which is what makes the
#: workloads skewed.
_REGION_WIDTH = 0.25


def _numeric_dimensions(table: Table, config: ScenarioConfig) -> list[str]:
    categorical = config.dataset.categorical
    exclude = categorical.dimension if categorical is not None else None
    return [name for name in table.column_names if name != exclude]


def _template_roles(config: ScenarioConfig) -> list[str]:
    """Assign each template a role per the axis fractions, deterministically."""
    workload = config.workload
    total = workload.num_templates
    num_point = int(round(workload.point_lookup_fraction * total))
    num_categorical = int(round(workload.categorical_fraction * total))
    num_point = min(num_point, total)
    num_categorical = min(num_categorical, total - num_point)
    remaining = {
        "range": total - num_point - num_categorical,
        "point": num_point,
        "categorical": num_categorical,
    }
    # Interleave the roles so a truncated pool still sees every axis.
    interleaved: list[str] = []
    while len(interleaved) < total:
        for role in ("range", "point", "categorical"):
            if remaining[role] > 0:
                interleaved.append(role)
                remaining[role] -= 1
    return interleaved


def build_templates(
    table: Table,
    config: ScenarioConfig,
    rng: np.random.Generator,
    phase: int = 0,
    phases: int = 1,
) -> list[QueryTemplate]:
    """One :class:`QueryTemplate` per pool slot, honouring every workload axis.

    ``phase`` shifts the placement regions for the ``step_shift`` drift
    schedule: phase ``p`` of ``n`` concentrates its templates on the ``p``-th
    slice of the quantile space, so successive phases move the hot region.
    """
    workload = config.workload
    numeric = _numeric_dimensions(table, config)
    dims_per_query = min(workload.dims_per_query, len(numeric))
    categorical = config.dataset.categorical
    templates = []
    for position, role in enumerate(_template_roles(config)):
        if phases > 1:
            base = (phase / phases) * (1.0 - _REGION_WIDTH)
            start = base + float(rng.uniform(0, _REGION_WIDTH / phases))
        else:
            start = float(rng.uniform(0.0, 1.0 - _REGION_WIDTH))
        region = (start, start + _REGION_WIDTH)
        chosen = [numeric[(position + j) % len(numeric)] for j in range(dims_per_query)]
        filters: dict = {}
        if role == "point":
            for dim in chosen:
                filters[dim] = EqualitySpec(centre_region=region)
        else:
            for dim in chosen:
                filters[dim] = RangeSpec(workload.selectivity, centre_region=region)
            if role == "categorical":
                assert categorical is not None  # enforced by config validation
                filters[categorical.dimension] = EqualitySpec(centre_region=region)
        templates.append(QueryTemplate(f"{role}_{phase}_{position}", filters, count=1))
    return templates


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------


def _draw_stream_indices(
    num_queries: int,
    num_templates: int,
    zipf_theta: float | None,
    rng: np.random.Generator,
) -> np.ndarray:
    if zipf_theta is None:
        return rng.integers(0, num_templates, num_queries)
    return (rng.zipf(zipf_theta, size=num_queries) - 1) % num_templates


def _build_pools(
    table: Table, config: ScenarioConfig, template_rng: np.random.Generator
) -> list[Workload]:
    """One query pool per drift phase (a single pool when drift is off)."""
    drift = config.workload.drift
    phases = drift.phases if drift.schedule == "step_shift" else 1
    pools = []
    for phase in range(phases):
        templates = build_templates(
            table, config, template_rng, phase=phase, phases=phases
        )
        pools.append(
            generate_workload(
                table, templates, seed=template_rng, name=f"pool_phase{phase}"
            )
        )
    return pools


def _build_stream(
    pools: list[Workload], config: ScenarioConfig, rng: np.random.Generator
) -> list[Query]:
    workload = config.workload
    drift = workload.drift
    if drift.schedule == "step_shift":
        # Each phase draws from its own (shifted) pool.
        stream: list[Query] = []
        per_phase = max(workload.num_queries // len(pools), 1)
        for phase, pool in enumerate(pools):
            count = (
                workload.num_queries - per_phase * (len(pools) - 1)
                if phase == len(pools) - 1
                else per_phase
            )
            queries = list(pool)
            indices = _draw_stream_indices(
                count, len(queries), workload.zipf_theta, rng
            )
            stream.extend(queries[int(i)] for i in indices)
        return stream[: workload.num_queries]
    queries = list(pools[0])
    indices = _draw_stream_indices(
        workload.num_queries, len(queries), workload.zipf_theta, rng
    )
    if drift.schedule == "rotating_hotspot":
        # Rotate which templates are zipf-hot in each phase: the pool is
        # unchanged but the popularity ranking shifts, which is drift the
        # detector should notice without any new query shapes.
        per_phase = max(workload.num_queries // drift.phases, 1)
        shift = max(len(queries) // drift.phases, 1)
        indices = np.array(
            [
                (int(index) + (position // per_phase) * shift) % len(queries)
                for position, index in enumerate(indices)
            ]
        )
    return [queries[int(i)] for i in indices]


# ---------------------------------------------------------------------------
# Writes
# ---------------------------------------------------------------------------


def _build_writes(
    table: Table, config: ScenarioConfig, rng: np.random.Generator
) -> list[WriteEvent]:
    writes = config.workload.writes
    if writes is None:
        return []
    # A write event after every `interval` queries makes write events a
    # `write_fraction` share of all operations.
    interval = max(int(round((1.0 - writes.write_fraction) / writes.write_fraction)), 1)
    categorical = config.dataset.categorical
    bounds = {}
    for name in table.column_names:
        if categorical is not None and name == categorical.dimension:
            bounds[name] = (0, categorical.cardinality - 1)
        else:
            bounds[name] = table.bounds(name)
    events = []
    for position in range(interval, config.workload.num_queries + 1, interval):
        columns = {
            name: rng.integers(low, high + 1, writes.rows_per_write)
            for name, (low, high) in bounds.items()
        }
        rows = [
            {name: int(values[i]) for name, values in columns.items()}
            for i in range(writes.rows_per_write)
        ]
        events.append(WriteEvent(position=position, rows=rows))
    return events


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_scenario_data(config: ScenarioConfig, num_dimensions: int) -> ScenarioData:
    """Materialize one cell of the scenario matrix, fully seed-threaded."""
    dataset_rng, template_rng, stream_rng, write_rng, fault_rng = spawn_rngs(
        config.seed, 5
    )
    table = build_table(config, num_dimensions, dataset_rng)
    pools = _build_pools(table, config, template_rng)

    categorical_summary = None
    if config.workload.reorder_categorical:
        assert config.dataset.categorical is not None
        dimension = config.dataset.categorical.dimension
        reordering = CategoricalReordering.fit(table, dimension, pools[0])
        table = reordering.apply_to_table(table)
        pools = [reordering.rewrite_workload(pool) for pool in pools]
        categorical_summary = reordering.describe()

    stream = _build_stream(pools, config, stream_rng)
    writes = _build_writes(table, config, write_rng)
    return ScenarioData(
        table=table,
        build_workload=pools[0],
        stream=stream,
        writes=writes,
        fault_seed=int(fault_rng.integers(0, 2**31 - 1)),
        categorical=categorical_summary,
    )


def build_fault_plan(config: ScenarioConfig, data: ScenarioData) -> FaultPlan | None:
    """The scenario's seeded fault plan (None when the faults section is absent)."""
    faults = config.faults
    if faults is None:
        return None
    specs = []
    if faults.error_probability > 0:
        specs.append(
            FaultSpec(
                site="shard.execute", kind="error", probability=faults.error_probability
            )
        )
    if faults.delay_probability > 0:
        specs.append(
            FaultSpec(
                site="shard.execute",
                kind="delay",
                probability=faults.delay_probability,
                delay_seconds=faults.delay_seconds,
            )
        )
    return FaultPlan(specs, seed=data.fault_seed)
