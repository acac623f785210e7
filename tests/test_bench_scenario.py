"""Tests for the config-driven scenario harness (PR 8).

Covers the three layers of ``repro.bench``'s scenario subsystem:

* :mod:`repro.bench.scenario` — the declarative config schema: parsing,
  strict validation, round-tripping, and the shipped ``benchmarks/configs/``
  directory.
* :mod:`repro.bench.workloads` — axis materialization: seed threading (the
  whole scenario derives from ``ScenarioConfig.seed``), template roles,
  drift schedules, write schedules, and the categorical column.
* :mod:`repro.bench.runner` — end-to-end scenario runs with the full-scan
  oracle, including the ≥100k-row categorical differential across the plain,
  delta-buffered, and sharded serving paths, threshold gating, and report
  schema validation.
"""

from pathlib import Path

import pytest

from repro.bench.runner import run_scenario, validate_report
from repro.bench.scenario import (
    FigureConfig,
    ScenarioConfig,
    TrackerConfig,
    load_config,
    parse_config,
    validate_directory,
)
from repro.bench.workloads import build_fault_plan, build_scenario_data
from repro.common.errors import ConfigError

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "benchmarks" / "configs"


def scenario_raw(**overrides) -> dict:
    raw = {
        "kind": "scenario",
        "name": "unit",
        "seed": 42,
        "dataset": {"source": "correlated_xyz", "num_rows": 4_000},
        "workload": {"num_templates": 8, "num_queries": 64},
        "indexes": [{"kind": "kdtree"}],
    }
    raw.update(overrides)
    return raw


class TestConfigSchema:
    def test_round_trip(self):
        config = parse_config(scenario_raw())
        assert isinstance(config, ScenarioConfig)
        again = parse_config(config.to_dict())
        assert again == config

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_config(scenario_raw(surprise=1))

    def test_unknown_nested_key_rejected(self):
        raw = scenario_raw()
        raw["workload"]["typo_knob"] = 3
        with pytest.raises(ConfigError, match="typo_knob"):
            parse_config(raw)

    @pytest.mark.parametrize("key", ["parallelism", "merge_strategy", "split_threshold"])
    def test_removed_index_options_rejected_as_unknown(self, key):
        raw = scenario_raw(indexes=[{"kind": "tsunami", "variant": "sharded", key: 1}])
        with pytest.raises(ConfigError, match=key):
            parse_config(raw)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config(scenario_raw(kind="mystery"))

    def test_unknown_index_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(scenario_raw(indexes=[{"kind": "btree"}]))

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(scenario_raw(schema_version=99))

    def test_writes_require_updatable_variant(self):
        raw = scenario_raw(indexes=[{"kind": "kdtree"}])
        raw["workload"]["writes"] = {"write_fraction": 0.1}
        with pytest.raises(ConfigError, match="write"):
            parse_config(raw)

    def test_writes_accept_delta_variant(self):
        raw = scenario_raw(indexes=[{"kind": "kdtree", "variant": "delta"}])
        raw["workload"]["writes"] = {"write_fraction": 0.1}
        config = parse_config(raw)
        assert config.workload.writes is not None

    def test_faults_require_all_sharded_and_no_verify(self):
        raw = scenario_raw(
            faults={"error_probability": 0.1},
            indexes=[{"kind": "kdtree"}],
        )
        with pytest.raises(ConfigError, match="shard"):
            parse_config(raw)
        sharded = scenario_raw(
            faults={"error_probability": 0.1},
            indexes=[{"kind": "kdtree", "variant": "sharded"}],
            thresholds={"require_correct": False},
        )
        with pytest.raises(ConfigError, match="verify"):
            parse_config(sharded)
        sharded["verify"] = False
        assert parse_config(sharded).faults is not None

    def test_duplicate_index_labels_rejected(self):
        with pytest.raises(ConfigError, match="label"):
            parse_config(scenario_raw(indexes=[{"kind": "kdtree"}, {"kind": "kdtree"}]))

    def test_dimension_sweep(self):
        raw = scenario_raw(
            dataset={"source": "uniform", "num_rows": 1_000, "num_dimensions": [3, 5]}
        )
        config = parse_config(raw)
        assert config.dataset.dimension_sweep() == (3, 5)

    def test_tracker_requires_both_scales(self):
        raw = {
            "kind": "tracker",
            "name": "t",
            "tracker": "faults",
            "output": "BENCH_x.json",
            "scales": {"smoke": {"num_rows": 1}},
        }
        with pytest.raises(ConfigError, match="full"):
            parse_config(raw)

    def test_figure_rejects_unknown_experiment(self):
        raw = {"kind": "figure", "name": "f", "experiment": "fig99"}
        with pytest.raises(ConfigError, match="fig99"):
            parse_config(raw)

    def test_load_config_reports_bad_json(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(bad)


class TestShippedConfigs:
    def test_every_shipped_config_is_valid(self):
        configs = validate_directory(CONFIG_DIR)
        assert len(configs) >= 15
        kinds = {type(config).__name__ for _, config in configs}
        assert kinds == {"ScenarioConfig", "TrackerConfig", "FigureConfig"}

    def test_tracker_configs_cover_all_five_bench_outputs(self):
        outputs = {
            config.output
            for _, config in validate_directory(CONFIG_DIR)
            if isinstance(config, TrackerConfig)
        }
        assert outputs == {
            "BENCH_throughput.json",
            "BENCH_updates.json",
            "BENCH_shards.json",
            "BENCH_serving.json",
            "BENCH_faults.json",
        }

    def test_scenario_axes_are_all_covered(self):
        scenarios = [
            config
            for _, config in validate_directory(CONFIG_DIR)
            if isinstance(config, ScenarioConfig)
        ]
        assert any(s.workload.writes is not None for s in scenarios)
        assert any(s.workload.point_lookup_fraction > 0 for s in scenarios)
        assert any(s.workload.categorical_fraction > 0 for s in scenarios)
        assert any(len(s.dataset.dimension_sweep()) > 1 for s in scenarios)
        schedules = {s.workload.drift.schedule for s in scenarios}
        assert {"step_shift", "rotating_hotspot"} <= schedules
        # Every new axis runs across at least three distinct baselines.
        kinds = {ix.kind for s in scenarios for ix in s.indexes}
        assert {"flood", "kdtree", "rtree", "zorder", "gridfile", "octree"} <= kinds

    def test_figure_configs_map_paper_experiments(self):
        figures = {
            config.experiment
            for _, config in validate_directory(CONFIG_DIR)
            if isinstance(config, FigureConfig)
        }
        assert {"fig7", "fig9a", "fig9b", "fig10"} <= figures


class TestSeedThreading:
    """One ``seed`` drives dataset, templates, stream, writes, and faults."""

    def _config(self, seed=42):
        raw = scenario_raw(
            seed=seed,
            verify=False,
            indexes=[
                {"kind": "kdtree", "variant": "sharded", "num_shards": 2}
            ],
            faults={"error_probability": 0.2},
            thresholds={"require_correct": False},
        )
        return parse_config(raw)

    def test_same_seed_reproduces_everything(self):
        config = self._config()
        a = build_scenario_data(config, 3)
        b = build_scenario_data(config, 3)
        assert a.stream == b.stream
        assert list(a.build_workload) == list(b.build_workload)
        assert a.fault_seed == b.fault_seed
        for name in a.table.column_names:
            assert (a.table.values(name) == b.table.values(name)).all()
        plan_a, plan_b = build_fault_plan(config, a), build_fault_plan(config, b)
        assert plan_a is not None and plan_b is not None
        # Both plans are seeded from the same derived fault seed, so their
        # injection decisions replay identically.
        assert plan_a._rng.random() == plan_b._rng.random()

    def test_same_seed_reproduces_write_batches(self):
        raw = scenario_raw(indexes=[{"kind": "kdtree", "variant": "delta"}])
        raw["workload"]["writes"] = {"write_fraction": 0.2, "rows_per_write": 16}
        config = parse_config(raw)
        a = build_scenario_data(config, 3)
        b = build_scenario_data(config, 3)
        assert [w.position for w in a.writes] == [w.position for w in b.writes]
        assert a.writes and a.writes[0].rows == b.writes[0].rows

    def test_different_seed_changes_the_stream(self):
        a = build_scenario_data(self._config(seed=1), 3)
        b = build_scenario_data(self._config(seed=2), 3)
        assert a.stream != b.stream
        assert a.fault_seed != b.fault_seed


class TestWorkloadAxes:
    def test_point_lookup_fraction_yields_equality_templates(self):
        raw = scenario_raw()
        raw["workload"]["point_lookup_fraction"] = 1.0
        data = build_scenario_data(parse_config(raw), 3)
        for query in data.build_workload:
            for low, high in query.filters().values():
                assert low == high

    def test_categorical_axis_adds_dictionary_predicates(self):
        raw = scenario_raw(
            dataset={
                "source": "correlated_xyz",
                "num_rows": 4_000,
                "categorical": {"dimension": "cat", "cardinality": 8},
            }
        )
        raw["workload"]["categorical_fraction"] = 1.0
        data = build_scenario_data(parse_config(raw), 3)
        assert "cat" in data.table.column_names
        assert data.table.column("cat").dictionary is not None
        hybrid = [q for q in data.build_workload if "cat" in q.filters()]
        assert hybrid, "no hybrid categorical templates generated"
        for query in hybrid:
            low, high = query.filters()["cat"]
            assert low == high  # dictionary predicates are equalities
            assert len(query.filters()) > 1  # hybrid: ranges + category

    def test_step_shift_changes_template_pool_between_phases(self):
        raw = scenario_raw()
        raw["workload"]["drift"] = {"schedule": "step_shift", "phases": 2}
        raw["workload"]["num_queries"] = 200
        data = build_scenario_data(parse_config(raw), 3)
        first = set(data.stream[:100])
        second = set(data.stream[100:])
        assert first.isdisjoint(second), "phases must draw from shifted pools"

    def test_write_schedule_interleaves_by_fraction(self):
        raw = scenario_raw(indexes=[{"kind": "kdtree", "variant": "delta"}])
        raw["workload"]["num_queries"] = 100
        raw["workload"]["writes"] = {"write_fraction": 0.25, "rows_per_write": 8}
        data = build_scenario_data(parse_config(raw), 3)
        # 25% writes -> one write event every ~3 queries, bounded by stream.
        assert len(data.writes) >= 20
        assert all(len(w.rows) == 8 for w in data.writes)
        assert all(0 < w.position <= 100 for w in data.writes)


class TestScenarioRunner:
    def test_report_passes_schema_validation(self):
        report = run_scenario(parse_config(scenario_raw()))
        assert validate_report(report) is report
        assert report["ok"] is True
        assert report["schema_version"] == 1

    def test_validate_report_rejects_missing_keys(self):
        report = run_scenario(parse_config(scenario_raw()))
        del report["results"][0]["indexes"][0]["queries_per_second"]
        with pytest.raises(ConfigError):
            validate_report(report)

    def test_oracle_catches_threshold_violation(self):
        raw = scenario_raw(
            thresholds={"min_queries_per_second": 1e12},
        )
        report = run_scenario(parse_config(raw))
        assert report["ok"] is False
        assert any("qps floor" in v for v in report["violations"])

    def test_relative_speedup_threshold(self):
        raw = scenario_raw(
            indexes=[{"kind": "kdtree"}, {"kind": "octree"}],
            thresholds={
                "speedup_of": "kdtree",
                "speedup_over": "octree",
                "min_speedup": 1e9,
            },
        )
        report = run_scenario(parse_config(raw))
        assert report["ok"] is False
        assert any("x floor" in v and "kdtree" in v for v in report["violations"])

    def test_dimension_sweep_produces_one_cell_per_dimensionality(self):
        raw = scenario_raw(
            dataset={"source": "uniform", "num_rows": 2_000, "num_dimensions": [3, 4]},
            workload={"num_templates": 6, "num_queries": 32},
        )
        report = run_scenario(parse_config(raw))
        assert [cell["num_dimensions"] for cell in report["results"]] == [3, 4]
        assert report["ok"] is True


class TestCategoricalDifferential:
    """Hybrid categorical predicates vs the full-scan oracle at 100k rows.

    ``CategoricalReordering`` rewrites dictionary equalities over the
    reordered column; the scenario runner serves every query through the
    index under test *and* replays it through ``execute_full_scan`` on the
    same reordered table, so any rewrite or layout bug shows up as a value
    mismatch.  Exercises the plain, delta-buffered, and sharded paths.
    """

    @pytest.fixture(scope="class")
    def report(self):
        raw = {
            "kind": "scenario",
            "name": "categorical-differential",
            "seed": 1234,
            "dataset": {
                "source": "correlated_xyz",
                "num_rows": 100_000,
                "categorical": {"dimension": "category", "cardinality": 16},
            },
            "workload": {
                "num_templates": 12,
                "num_queries": 96,
                "categorical_fraction": 0.5,
                "reorder_categorical": True,
            },
            "indexes": [
                {"kind": "gridfile"},
                {"kind": "kdtree", "variant": "delta"},
                {"kind": "zorder", "variant": "sharded", "num_shards": 4},
            ],
        }
        return run_scenario(parse_config(raw))

    def test_all_paths_match_the_oracle(self, report):
        assert report["ok"] is True, report["violations"]
        (cell,) = report["results"]
        variants = {ix["variant"]: ix for ix in cell["indexes"]}
        assert set(variants) == {"plain", "delta", "sharded"}
        for ix in cell["indexes"]:
            assert ix["correct"] is True, ix
            assert ix["mismatches"] == 0

    def test_reordering_was_actually_applied(self, report):
        (cell,) = report["results"]
        summary = cell.get("categorical_reordering")
        assert summary, "categorical reordering summary missing from report"
