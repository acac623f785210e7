"""Benchmark harness: build indexes, measure them, and regenerate the paper's
tables and figures.

* :mod:`repro.bench.harness` — build/measure machinery shared by every experiment.
* :mod:`repro.bench.report` — plain-text table and series formatting.
* :mod:`repro.bench.experiments` — one driver per paper table/figure; the
  ``benchmarks/`` directory calls straight into these.
* :mod:`repro.bench.scenario` — the declarative config schema behind
  ``benchmarks/configs/`` (scenario / figure kinds).
* :mod:`repro.bench.workloads` — materializes a scenario's dataset, template
  pools, serving stream, and write schedule from its seed.
* :mod:`repro.bench.runner` — :class:`ScenarioRunner`: drives every configured
  index through the serving stack and emits a schema-versioned report.
* :mod:`repro.bench.cli` — ``python -m repro.bench.cli`` (experiments plus the
  ``run`` / ``validate`` / ``smoke`` config subcommands).
"""

from repro.bench.harness import (
    IndexMeasurement,
    measure_index,
    run_comparison,
    default_index_factories,
    learned_index_factories,
    tune_page_size,
)
from repro.bench.report import format_table, format_series, relative_factors
from repro.bench.scenario import (
    DatasetConfig,
    FigureConfig,
    IndexConfig,
    ScenarioConfig,
    WorkloadConfig,
    load_config,
    parse_config,
    validate_directory,
)

__all__ = [
    "IndexMeasurement",
    "measure_index",
    "run_comparison",
    "default_index_factories",
    "learned_index_factories",
    "tune_page_size",
    "format_table",
    "format_series",
    "relative_factors",
    "DatasetConfig",
    "FigureConfig",
    "IndexConfig",
    "ScenarioConfig",
    "WorkloadConfig",
    "load_config",
    "parse_config",
    "validate_directory",
]
