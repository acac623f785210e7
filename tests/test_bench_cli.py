"""Tests for the experiment CLI (python -m repro.bench.cli)."""

import json
from pathlib import Path

import pytest

from repro.bench.cli import EXPERIMENTS, build_parser, main, run_experiment

REPO_CONFIGS = Path(__file__).resolve().parents[1] / "benchmarks" / "configs"


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiments == []
        assert args.rows is None

    def test_scale_flags(self):
        args = build_parser().parse_args(["fig7", "--rows", "1000", "--queries", "5"])
        assert args.experiments == ["fig7"]
        assert args.rows == 1000 and args.queries == 5


class TestRunExperiment:
    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            run_experiment("nope", None, None)

    def test_table3_runs_at_tiny_scale(self):
        result = run_experiment("table3", rows=2_000, queries=3)
        assert "dataset" in result.report

    def test_registry_covers_every_table_and_figure(self):
        paper_artifacts = {
            "table3",
            "table4",
            "fig7",
            "fig9a",
            "fig9b",
            "fig10",
            "fig11a",
            "fig11b",
            "fig12a",
            "fig12b",
        }
        assert paper_artifacts <= set(EXPERIMENTS)
        # Anything beyond the paper's tables/figures must be clearly marked as
        # a supplementary extension experiment.
        assert all(
            name.startswith("ext-") for name in set(EXPERIMENTS) - paper_artifacts
        )


class TestMain:
    def test_list_mode(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "table3" in output and "fig12b" in output

    def test_no_arguments_lists(self, capsys):
        assert main([]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_single_experiment(self, capsys):
        assert main(["table3", "--rows", "2000", "--queries", "3"]) == 0
        assert "Table 3" in capsys.readouterr().out


def _tiny_scenario(name="cli-tiny", **overrides):
    raw = {
        "kind": "scenario",
        "name": name,
        "smoke": True,
        "seed": 5,
        "dataset": {"source": "correlated_xyz", "num_rows": 2_000},
        "workload": {"num_templates": 6, "num_queries": 32},
        "indexes": [{"kind": "kdtree"}],
    }
    raw.update(overrides)
    return raw


class TestValidateSubcommand:
    def test_shipped_configs_all_validate(self, capsys):
        assert main(["validate", str(REPO_CONFIGS)]) == 0
        out = capsys.readouterr().out
        assert out.count("ok ") == len(list(REPO_CONFIGS.glob("*.json")))

    def test_broken_config_fails_validation(self, tmp_path, capsys):
        (tmp_path / "good.json").write_text(json.dumps(_tiny_scenario()))
        (tmp_path / "broken.json").write_text('{"kind": "scenario"')
        assert main(["validate", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "INVALID broken.json" in captured.err
        assert "ok good.json" in captured.out


class TestRunSubcommand:
    def test_run_scenario_writes_report(self, tmp_path, capsys):
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps(_tiny_scenario()))
        output = tmp_path / "report.json"
        assert main(["run", str(config), "--output", str(output)]) == 0
        report = json.loads(output.read_text())
        assert report["schema_version"] == 1
        assert report["name"] == "cli-tiny"
        assert report["ok"] is True
        # The report is also printed to stdout for interactive use.
        assert '"schema_version": 1' in capsys.readouterr().out

    def test_run_exits_nonzero_on_violation(self, tmp_path, capsys):
        config = tmp_path / "floor.json"
        raw = _tiny_scenario(thresholds={"max_bytes_per_value": 0.01})
        config.write_text(json.dumps(raw))
        assert main(["run", str(config)]) == 1
        assert "FAILURE:" in capsys.readouterr().err


class TestSmokeSubcommand:
    def test_matrix_runs_smoke_configs_and_writes_reports(self, tmp_path, capsys):
        configs = tmp_path / "configs"
        configs.mkdir()
        (configs / "a.json").write_text(json.dumps(_tiny_scenario(name="smoke-a")))
        (configs / "b.json").write_text(
            json.dumps(_tiny_scenario(name="full-only", smoke=False))
        )
        reports = tmp_path / "reports"
        assert (
            main(
                ["smoke", "--configs", str(configs), "--reports", str(reports)]
            )
            == 0
        )
        assert (reports / "smoke-a.json").exists()
        assert not (reports / "full-only.json").exists()
        err = capsys.readouterr().err
        assert "PASS a.json" in err
        assert "smoke matrix: 1/1 configs passed" in err

    def test_matrix_fails_on_gate_violation(self, tmp_path, capsys):
        configs = tmp_path / "configs"
        configs.mkdir()
        raw = _tiny_scenario(
            name="smoke-bad", thresholds={"max_bytes_per_value": 0.01}
        )
        (configs / "bad.json").write_text(json.dumps(raw))
        assert main(["smoke", "--configs", str(configs)]) == 1
        err = capsys.readouterr().err
        assert "FAIL bad.json" in err
        assert "smoke matrix: 0/1 configs passed" in err
