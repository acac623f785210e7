"""Declarative scenario configs: one JSON file per reproducible result.

Every benchmark in this repository — the paper figures, the five serving
perf trackers, and the survey-grade workload matrix — is described by a
config file in ``benchmarks/configs/`` and reproduced with one command::

    python -m repro.bench.cli run benchmarks/configs/<name>.json

A config is one of three kinds:

* ``"scenario"`` — the generic workload matrix: a dataset axis, a workload
  axis (read/write mix, point-lookup fraction, categorical hybrid
  predicates, selectivity, zipf skew, named drift schedules), and a list of
  indexes-under-test (any baseline or Tsunami, optionally wrapped as
  delta-buffered / sharded / lifecycle-managed / served through the
  concurrent front-end).  Run by
  :class:`~repro.bench.runner.ScenarioRunner`, which verifies every answer
  against the full-scan oracle and emits a schema-versioned report.
* ``"tracker"`` — one of the five serving perf trackers whose
  ``BENCH_*.json`` shapes gate CI (``benchmarks/bench_*.py`` are thin
  wrappers over these configs; see :mod:`repro.bench.trackers`).
* ``"figure"`` — a paper table/figure regenerated through the experiment
  drivers in :mod:`repro.bench.experiments`.

Configs are validated eagerly and strictly: unknown keys, unknown index
kinds, and inconsistent axis combinations raise a typed
:class:`~repro.common.errors.ConfigError` *before* anything is built, so
``python -m repro.bench.cli validate benchmarks/configs`` can schema-check
the whole registry in milliseconds in CI.

All randomness in a scenario derives from the single ``seed`` field:
dataset generation, template placement, stream order, write batches, and
fault-plan schedules all use child generators spawned from it
(:func:`repro.common.rng.spawn_rngs`), so two runs of the same config see
byte-identical query streams.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.common.errors import ConfigError

#: Version stamped into every config and report this subsystem emits.
SCHEMA_VERSION = 1

#: Dataset sources the scenario kind understands.
DATASET_SOURCES = ("correlated_xyz", "uniform", "correlated", "registry")

#: Index kinds runnable under a scenario (the full baseline set + Tsunami).
INDEX_KINDS = (
    "tsunami",
    "flood",
    "kdtree",
    "rtree",
    "zorder",
    "gridfile",
    "octree",
    "singledim",
)

#: How an index-under-test is wrapped for serving.
INDEX_VARIANTS = ("plain", "delta", "sharded", "lifecycle", "served")

#: Named drift schedules (see repro.bench.workloads.drift_phases).
DRIFT_SCHEDULES = ("none", "step_shift", "rotating_hotspot")

#: The five serving perf trackers (see repro.bench.trackers).
TRACKER_NAMES = ("throughput", "updates", "shards", "serving", "faults")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_keys(section: str, mapping: Mapping, allowed: Sequence[str]) -> None:
    unknown = set(mapping) - set(allowed)
    _require(not unknown, f"{section}: unknown keys {sorted(unknown)}")


@dataclass(frozen=True)
class CategoricalDatasetConfig:
    """An extra dictionary-encoded string column added to a synthetic dataset."""

    dimension: str = "category"
    cardinality: int = 24
    #: Zipf-ish concentration of value frequencies; 0 = uniform.
    skew: float = 1.1

    def validate(self) -> None:
        _require(bool(self.dimension), "dataset.categorical.dimension must be non-empty")
        _require(
            2 <= self.cardinality <= 10_000,
            f"dataset.categorical.cardinality must be in [2, 10000], "
            f"got {self.cardinality}",
        )
        _require(self.skew >= 0, "dataset.categorical.skew must be >= 0")


@dataclass(frozen=True)
class DatasetConfig:
    """Which table the scenario builds, and at what scale."""

    source: str = "correlated_xyz"
    num_rows: int = 20_000
    #: int, or a list for a dimensionality sweep (synthetic sources only).
    num_dimensions: int | tuple[int, ...] = 3
    #: Storage domain of synthetic dimensions.
    domain: int = 100_000
    #: Registry dataset name (source == "registry" only).
    registry_name: str | None = None
    categorical: CategoricalDatasetConfig | None = None

    def validate(self) -> None:
        _require(
            self.source in DATASET_SOURCES,
            f"dataset.source must be one of {DATASET_SOURCES}, got {self.source!r}",
        )
        _require(self.num_rows >= 1, f"dataset.num_rows must be >= 1, got {self.num_rows}")
        _require(self.domain >= 2, f"dataset.domain must be >= 2, got {self.domain}")
        for count in self.dimension_sweep():
            _require(
                count >= 2, f"dataset.num_dimensions entries must be >= 2, got {count}"
            )
        if self.source == "registry":
            _require(
                self.registry_name is not None,
                "dataset.registry_name is required when source is 'registry'",
            )
            _require(
                self.categorical is None,
                "dataset.categorical only applies to synthetic sources",
            )
        if self.source == "correlated_xyz":
            _require(
                self.dimension_sweep() == (3,),
                "dataset.num_dimensions must be 3 (x, y, z) for correlated_xyz",
            )
        if self.categorical is not None:
            self.categorical.validate()

    def dimension_sweep(self) -> tuple[int, ...]:
        """The dimensionality axis: one entry per table the scenario builds."""
        if isinstance(self.num_dimensions, int):
            return (self.num_dimensions,)
        return tuple(self.num_dimensions)


@dataclass(frozen=True)
class WriteMixConfig:
    """The read/write mix axis: inserts interleaved into the query stream."""

    write_fraction: float = 0.1
    rows_per_write: int = 64

    def validate(self) -> None:
        _require(
            0.0 < self.write_fraction < 1.0,
            f"workload.writes.write_fraction must be in (0, 1), "
            f"got {self.write_fraction}",
        )
        _require(
            self.rows_per_write >= 1,
            f"workload.writes.rows_per_write must be >= 1, got {self.rows_per_write}",
        )


@dataclass(frozen=True)
class DriftConfig:
    """The drift-schedule axis: how the template pool moves over the stream."""

    schedule: str = "none"
    phases: int = 2

    def validate(self) -> None:
        _require(
            self.schedule in DRIFT_SCHEDULES,
            f"workload.drift.schedule must be one of {DRIFT_SCHEDULES}, "
            f"got {self.schedule!r}",
        )
        _require(
            self.phases >= 2 or self.schedule == "none",
            f"workload.drift.phases must be >= 2, got {self.phases}",
        )


@dataclass(frozen=True)
class WorkloadConfig:
    """The workload axes of one scenario."""

    num_templates: int = 24
    num_queries: int = 512
    #: Zipf exponent of template repetition; None repeats templates uniformly.
    zipf_theta: float | None = 1.2
    #: Target per-dimension selectivity of range filters.
    selectivity: float = 0.05
    #: How many dimensions each range template filters.
    dims_per_query: int = 2
    #: Fraction of templates that are point lookups (equality on every dim).
    point_lookup_fraction: float = 0.0
    #: Fraction of templates carrying a categorical equality + numeric ranges.
    categorical_fraction: float = 0.0
    #: Apply workload-aware categorical reordering before building indexes.
    reorder_categorical: bool = False
    writes: WriteMixConfig | None = None
    drift: DriftConfig = field(default_factory=DriftConfig)

    def validate(self, dataset: DatasetConfig) -> None:
        _require(
            self.num_templates >= 1,
            f"workload.num_templates must be >= 1, got {self.num_templates}",
        )
        _require(
            self.num_queries >= 1,
            f"workload.num_queries must be >= 1, got {self.num_queries}",
        )
        _require(
            self.zipf_theta is None or self.zipf_theta > 1.0,
            f"workload.zipf_theta must be > 1 or null, got {self.zipf_theta}",
        )
        _require(
            0.0 < self.selectivity <= 1.0,
            f"workload.selectivity must be in (0, 1], got {self.selectivity}",
        )
        _require(
            self.dims_per_query >= 1,
            f"workload.dims_per_query must be >= 1, got {self.dims_per_query}",
        )
        for name, fraction in (
            ("point_lookup_fraction", self.point_lookup_fraction),
            ("categorical_fraction", self.categorical_fraction),
        ):
            _require(
                0.0 <= fraction <= 1.0, f"workload.{name} must be in [0, 1], got {fraction}"
            )
        _require(
            self.point_lookup_fraction + self.categorical_fraction <= 1.0,
            "workload.point_lookup_fraction + categorical_fraction must be <= 1",
        )
        if self.categorical_fraction > 0 or self.reorder_categorical:
            _require(
                dataset.categorical is not None,
                "workload.categorical_fraction/reorder_categorical require "
                "dataset.categorical",
            )
        if dataset.source == "registry":
            _require(
                self.point_lookup_fraction == 0 and self.categorical_fraction == 0,
                "point-lookup and categorical axes apply to synthetic sources only",
            )
        if self.writes is not None:
            self.writes.validate()
        self.drift.validate()


@dataclass(frozen=True)
class FaultsConfig:
    """Optional seeded fault injection at the shard-execution site."""

    error_probability: float = 0.0
    delay_probability: float = 0.0
    delay_seconds: float = 0.001

    def validate(self) -> None:
        for name, p in (
            ("error_probability", self.error_probability),
            ("delay_probability", self.delay_probability),
        ):
            _require(0.0 <= p < 1.0, f"faults.{name} must be in [0, 1), got {p}")
        _require(
            self.delay_seconds >= 0, f"faults.delay_seconds must be >= 0"
        )
        _require(
            self.error_probability > 0 or self.delay_probability > 0,
            "faults section present but both probabilities are zero",
        )


@dataclass(frozen=True)
class IndexConfig:
    """One index-under-test: a base kind plus a serving variant."""

    kind: str
    variant: str = "plain"
    label: str | None = None
    optimizer_iterations: int = 2
    page_size: int = 2048
    merge_threshold: int = 1_000_000
    num_shards: int = 4
    updatable_shards: bool = False
    cache_entries: int = 0

    def validate(self) -> None:
        _require(
            self.kind in INDEX_KINDS,
            f"index.kind must be one of {INDEX_KINDS}, got {self.kind!r}",
        )
        _require(
            self.variant in INDEX_VARIANTS,
            f"index.variant must be one of {INDEX_VARIANTS}, got {self.variant!r}",
        )
        _require(self.page_size >= 1, f"index.page_size must be >= 1")
        _require(self.merge_threshold >= 1, "index.merge_threshold must be >= 1")
        _require(self.num_shards >= 1, "index.num_shards must be >= 1")
        _require(self.cache_entries >= 0, "index.cache_entries must be >= 0")

    @property
    def name(self) -> str:
        """Label used in reports (unique within one scenario's index list)."""
        if self.label:
            return self.label
        return self.kind if self.variant == "plain" else f"{self.kind}-{self.variant}"

    def accepts_writes(self) -> bool:
        """Whether this configuration can absorb inserts."""
        if self.variant in ("delta", "lifecycle"):
            return True
        if self.variant in ("sharded", "served") and self.updatable_shards:
            return True
        return self.variant == "served"


@dataclass(frozen=True)
class ThresholdsConfig:
    """Smoke gates evaluated by the runner; violations fail CI."""

    require_correct: bool = True
    min_queries_per_second: float | None = None
    #: Gate: results[speedup_over] must not be faster than results[speedup_of].
    speedup_of: str | None = None
    speedup_over: str | None = None
    min_speedup: float = 1.0
    #: Gate: bytes scanned per value read must stay at or below this ceiling
    #: (an all-int64 scan sits at exactly 8.0; 4.0 enforces a 2x dtype win).
    max_bytes_per_value: float | None = None
    #: Gate: table footprint in bytes per stored value (all-int64 is 8.0).
    max_table_bytes_per_value: float | None = None
    #: Gate: every write-accepting index's sustained insert rate
    #: (rows_inserted_per_second) must reach at least this fraction of the
    #: fastest writer's rate in the same cell.
    min_relative_update_rate: float | None = None

    def validate(self, index_names: Sequence[str]) -> None:
        if self.speedup_of is not None or self.speedup_over is not None:
            _require(
                self.speedup_of in index_names and self.speedup_over in index_names,
                f"thresholds.speedup_of/speedup_over must name configured "
                f"indexes {list(index_names)}",
            )
            _require(self.min_speedup > 0, "thresholds.min_speedup must be > 0")
        if self.max_bytes_per_value is not None:
            _require(
                self.max_bytes_per_value > 0,
                "thresholds.max_bytes_per_value must be > 0",
            )
        if self.max_table_bytes_per_value is not None:
            _require(
                self.max_table_bytes_per_value > 0,
                "thresholds.max_table_bytes_per_value must be > 0",
            )
        if self.min_relative_update_rate is not None:
            _require(
                0.0 < self.min_relative_update_rate <= 1.0,
                "thresholds.min_relative_update_rate must be in (0, 1]",
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated scenario: dataset x workload x indexes-under-test."""

    name: str
    description: str = ""
    smoke: bool = False
    seed: int = 0
    repetitions: int = 1
    verify: bool = True
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    indexes: tuple[IndexConfig, ...] = ()
    faults: FaultsConfig | None = None
    thresholds: ThresholdsConfig = field(default_factory=ThresholdsConfig)

    def validate(self) -> None:
        _require(bool(self.name), "scenario name must be non-empty")
        _require(self.repetitions >= 1, "repetitions must be >= 1")
        _require(len(self.indexes) >= 1, "a scenario needs at least one index")
        self.dataset.validate()
        self.workload.validate(self.dataset)
        names = [index.name for index in self.indexes]
        _require(
            len(set(names)) == len(names),
            f"index labels must be unique, got {names}",
        )
        for index in self.indexes:
            index.validate()
            if self.workload.writes is not None:
                _require(
                    index.accepts_writes(),
                    f"index {index.name!r} cannot absorb the read/write mix; "
                    "use variant delta/lifecycle/served or updatable shards",
                )
            if index.variant == "lifecycle" and self.repetitions != 1:
                raise ConfigError(
                    "lifecycle variants are stateful; repetitions must be 1"
                )
        if self.workload.writes is not None:
            _require(
                self.repetitions == 1,
                "read/write scenarios are stateful; repetitions must be 1",
            )
        if self.faults is not None:
            self.faults.validate()
            _require(
                all(index.variant == "sharded" for index in self.indexes),
                "fault injection requires every index to use the sharded variant",
            )
            _require(
                not self.verify,
                "faulted scenarios serve degraded partial answers; set "
                '"verify": false',
            )
        self.thresholds.validate(names)

    # -- (de)serialization ------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ScenarioConfig":
        """Parse and validate a raw JSON mapping (strict: unknown keys fail)."""
        _check_keys(
            "scenario",
            raw,
            [
                "schema_version",
                "kind",
                "name",
                "description",
                "smoke",
                "seed",
                "repetitions",
                "verify",
                "dataset",
                "workload",
                "indexes",
                "faults",
                "thresholds",
            ],
        )
        version = raw.get("schema_version", SCHEMA_VERSION)
        _require(
            version == SCHEMA_VERSION,
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})",
        )
        kind = raw.get("kind", "scenario")
        _require(kind == "scenario", f"ScenarioConfig cannot parse kind {kind!r}")

        dataset_raw = dict(raw.get("dataset", {}))
        _check_keys(
            "dataset",
            dataset_raw,
            ["source", "num_rows", "num_dimensions", "domain", "registry_name", "categorical"],
        )
        categorical_raw = dataset_raw.pop("categorical", None)
        if categorical_raw is not None:
            _check_keys(
                "dataset.categorical", categorical_raw, ["dimension", "cardinality", "skew"]
            )
            dataset_raw["categorical"] = CategoricalDatasetConfig(**categorical_raw)
        dims = dataset_raw.get("num_dimensions")
        if isinstance(dims, list):
            dataset_raw["num_dimensions"] = tuple(dims)
        dataset = DatasetConfig(**dataset_raw)

        workload_raw = dict(raw.get("workload", {}))
        _check_keys(
            "workload",
            workload_raw,
            [
                "num_templates",
                "num_queries",
                "zipf_theta",
                "selectivity",
                "dims_per_query",
                "point_lookup_fraction",
                "categorical_fraction",
                "reorder_categorical",
                "writes",
                "drift",
            ],
        )
        writes_raw = workload_raw.pop("writes", None)
        if writes_raw is not None:
            _check_keys("workload.writes", writes_raw, ["write_fraction", "rows_per_write"])
            workload_raw["writes"] = WriteMixConfig(**writes_raw)
        drift_raw = workload_raw.pop("drift", None)
        if drift_raw is not None:
            _check_keys("workload.drift", drift_raw, ["schedule", "phases"])
            workload_raw["drift"] = DriftConfig(**drift_raw)
        workload = WorkloadConfig(**workload_raw)

        indexes = []
        for position, index_raw in enumerate(raw.get("indexes", [])):
            _check_keys(
                f"indexes[{position}]",
                index_raw,
                [
                    "kind",
                    "variant",
                    "label",
                    "optimizer_iterations",
                    "page_size",
                    "merge_threshold",
                    "num_shards",
                    "updatable_shards",
                    "cache_entries",
                ],
            )
            indexes.append(IndexConfig(**index_raw))

        faults_raw = raw.get("faults")
        faults = None
        if faults_raw is not None:
            _check_keys(
                "faults",
                faults_raw,
                ["error_probability", "delay_probability", "delay_seconds"],
            )
            faults = FaultsConfig(**faults_raw)

        thresholds_raw = raw.get("thresholds")
        thresholds = ThresholdsConfig()
        if thresholds_raw is not None:
            _check_keys(
                "thresholds",
                thresholds_raw,
                [
                    "require_correct",
                    "min_queries_per_second",
                    "speedup_of",
                    "speedup_over",
                    "min_speedup",
                    "max_bytes_per_value",
                    "max_table_bytes_per_value",
                    "min_relative_update_rate",
                ],
            )
            thresholds = ThresholdsConfig(**thresholds_raw)

        try:
            config = cls(
                name=raw.get("name", ""),
                description=raw.get("description", ""),
                smoke=bool(raw.get("smoke", False)),
                seed=int(raw.get("seed", 0)),
                repetitions=int(raw.get("repetitions", 1)),
                verify=bool(raw.get("verify", True)),
                dataset=dataset,
                workload=workload,
                indexes=tuple(indexes),
                faults=faults,
                thresholds=thresholds,
            )
        except TypeError as exc:  # wrong field type in a section constructor
            raise ConfigError(f"malformed scenario config: {exc}") from exc
        config.validate()
        return config

    def to_dict(self) -> dict:
        """The JSON form of this config (round-trips through from_dict)."""
        raw = asdict(self)
        raw["schema_version"] = SCHEMA_VERSION
        raw["kind"] = "scenario"
        raw["indexes"] = [
            {k: v for k, v in index.items() if v is not None}
            for index in raw["indexes"]
        ]
        dims = raw["dataset"]["num_dimensions"]
        if isinstance(dims, tuple):
            raw["dataset"]["num_dimensions"] = list(dims)
        return raw


# ---------------------------------------------------------------------------
# Config files: loading, discovery, and the non-scenario kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrackerConfig:
    """One of the five serving perf trackers, config-driven.

    ``scales`` holds the ``smoke`` and ``full`` parameter sets handed to the
    tracker body in :mod:`repro.bench.trackers`; ``output`` is the historical
    ``BENCH_*.json`` file name the full run writes at the repo root.
    """

    name: str
    tracker: str
    description: str = ""
    smoke: bool = True
    output: str = ""
    seed: int | None = None
    params: Mapping = field(default_factory=dict)
    scales: Mapping[str, Mapping] = field(default_factory=dict)

    def validate(self) -> None:
        _require(bool(self.name), "tracker config name must be non-empty")
        _require(
            self.tracker in TRACKER_NAMES,
            f"tracker must be one of {TRACKER_NAMES}, got {self.tracker!r}",
        )
        _require(bool(self.output), "tracker config needs an output file name")
        for mode in ("smoke", "full"):
            _require(
                mode in self.scales, f"tracker config is missing scales[{mode!r}]"
            )

    @classmethod
    def from_dict(cls, raw: Mapping) -> "TrackerConfig":
        _check_keys(
            "tracker",
            raw,
            [
                "schema_version",
                "kind",
                "name",
                "tracker",
                "description",
                "smoke",
                "output",
                "seed",
                "params",
                "scales",
            ],
        )
        version = raw.get("schema_version", SCHEMA_VERSION)
        _require(
            version == SCHEMA_VERSION,
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})",
        )
        _require(raw.get("kind") == "tracker", "TrackerConfig requires kind 'tracker'")
        config = cls(
            name=raw.get("name", ""),
            tracker=raw.get("tracker", ""),
            description=raw.get("description", ""),
            smoke=bool(raw.get("smoke", True)),
            output=raw.get("output", ""),
            seed=raw.get("seed"),
            params=dict(raw.get("params", {})),
            scales={mode: dict(value) for mode, value in raw.get("scales", {}).items()},
        )
        config.validate()
        return config


@dataclass(frozen=True)
class FigureConfig:
    """A paper table/figure reproduced through repro.bench.experiments."""

    name: str
    experiment: str
    description: str = ""
    smoke: bool = False
    num_rows: int | None = None
    queries_per_type: int | None = None
    params: Mapping = field(default_factory=dict)

    def validate(self) -> None:
        _require(bool(self.name), "figure config name must be non-empty")
        _require(bool(self.experiment), "figure config needs an experiment name")
        # The experiment registry lives in repro.bench.cli; imported lazily to
        # avoid a cycle, and checked here so `validate` catches typos.
        from repro.bench.cli import EXPERIMENTS

        _require(
            self.experiment in EXPERIMENTS,
            f"unknown experiment {self.experiment!r}; "
            f"available: {sorted(EXPERIMENTS)}",
        )

    @classmethod
    def from_dict(cls, raw: Mapping) -> "FigureConfig":
        _check_keys(
            "figure",
            raw,
            [
                "schema_version",
                "kind",
                "name",
                "experiment",
                "description",
                "smoke",
                "num_rows",
                "queries_per_type",
                "params",
            ],
        )
        version = raw.get("schema_version", SCHEMA_VERSION)
        _require(
            version == SCHEMA_VERSION,
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})",
        )
        _require(raw.get("kind") == "figure", "FigureConfig requires kind 'figure'")
        config = cls(
            name=raw.get("name", ""),
            experiment=raw.get("experiment", ""),
            description=raw.get("description", ""),
            smoke=bool(raw.get("smoke", False)),
            num_rows=raw.get("num_rows"),
            queries_per_type=raw.get("queries_per_type"),
            params=dict(raw.get("params", {})),
        )
        config.validate()
        return config


AnyConfig = ScenarioConfig | TrackerConfig | FigureConfig

_PARSERS = {
    "scenario": ScenarioConfig.from_dict,
    "tracker": TrackerConfig.from_dict,
    "figure": FigureConfig.from_dict,
}


def parse_config(raw: Mapping, source: str = "<dict>") -> AnyConfig:
    """Parse one raw config mapping into its typed, validated form."""
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{source}: config must be a JSON object")
    kind = raw.get("kind", "scenario")
    parser = _PARSERS.get(kind)
    if parser is None:
        raise ConfigError(
            f"{source}: unknown config kind {kind!r}; "
            f"expected one of {sorted(_PARSERS)}"
        )
    try:
        return parser(raw)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(path: str | Path) -> AnyConfig:
    """Load and validate one config file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_config(raw, source=str(path))


def discover_configs(directory: str | Path) -> list[Path]:
    """Every ``*.json`` config file under ``directory``, sorted by name."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigError(f"config directory not found: {directory}")
    return sorted(directory.glob("*.json"))


def validate_directory(directory: str | Path) -> list[tuple[Path, AnyConfig]]:
    """Load and validate every config in ``directory`` (raises on the first bad one)."""
    return [(path, load_config(path)) for path in discover_configs(directory)]
