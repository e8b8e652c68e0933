import csv
import json

import pytest

from railsim.cli import main
from railsim.experiment import ExperimentConfig, scenario
from railsim.network import Deployment

SMALL_CFG = {
    "densities": [60],
    "runs_per_density": 2,
    "base_seed": 5,
}


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(SMALL_CFG))
    return str(p)


class TestRun:
    def test_writes_three_csvs(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "report.csv").open()))
        assert len(rows) == 3  # 3 algorithms x 1 density
        assert (out / "runs.csv").exists()
        assert (out / "errors.csv").exists()
        table = capsys.readouterr().out
        assert "RAIL" in table and "MinMax" in table and "RssiDvHop" in table

    def test_missing_config_exit_1(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["run", "--config", missing, "--out", str(tmp_path)]) == 1

    def test_malformed_config_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"densities": "sixty"}')
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("bad", [
        {"n_anchors": 2}, {"sigma": -1}, {"comm_range": 0}, {"densities": [0]},
        {"n_anchors": 3.5}, {"runs_per_density": 1.5}, {"base_seed": 1.5},
        {"base_seed": -1}, {"densities": [20.7]}, {"densities": [True]},
        {"densities": [60, 60]}, {"algorithms": ["RAIL", "MinMax", "RAIL"]},
    ])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_invalid_config_exit_1(self, bad, workers, tmp_path, caplog):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**SMALL_CFG, **bad}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out), "--workers", workers]) == 1
        assert "cannot load config" in caplog.text
        assert not out.exists()

    def test_seed_override_deterministic(self, cfg_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg_path, "--out", str(a), "--seed", "77"]) == 0
        assert main(["run", "--config", cfg_path, "--out", str(b), "--seed", "77"]) == 0
        for name in ("report.csv", "runs.csv", "errors.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_output(self, cfg_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg_path, "--out", str(a), "--seed", "77"])
        main(["run", "--config", cfg_path, "--out", str(b), "--seed", "78"])
        assert (a / "runs.csv").read_bytes() != (b / "runs.csv").read_bytes()


class TestDemo:
    def test_scene_outputs(self, cfg_path, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "--config", cfg_path, "--out", str(out)]) == 0
        svg = (out / "scene.svg").read_text()
        assert svg.count('class="ray"') == 3
        assert svg.count('class="bbox"') == 1
        scene = json.loads((out / "scene.json").read_text())
        dep = Deployment.from_json_dict(scene["deployment"])
        assert len(dep.nodes) == SMALL_CFG["densities"][0] + 3
        assert scene["target"] in {int(k) for k in scene["estimates"]}

    def test_draws_run_0_of_first_density(self, cfg_path, tmp_path):
        out = tmp_path / "demo"
        assert main(["demo", "--config", cfg_path, "--out", str(out), "--seed", "8"]) == 0
        scene = json.loads((out / "scene.json").read_text())
        cfg = ExperimentConfig.from_json_dict({**SMALL_CFG, "base_seed": 8})
        dep, _ = scenario(cfg, SMALL_CFG["densities"][0], 0)
        assert Deployment.from_json_dict(scene["deployment"]) == dep

    def test_target_selection(self, cfg_path, tmp_path):
        out = tmp_path / "demo"
        assert main(
            ["demo", "--config", cfg_path, "--out", str(out), "--target", "10"]
        ) == 0
        scene = json.loads((out / "scene.json").read_text())
        assert scene["target"] == 10

    def test_anchor_target_rejected(self, cfg_path, tmp_path):
        out = tmp_path / "demo"
        assert main(
            ["demo", "--config", cfg_path, "--out", str(out), "--target", "0"]
        ) == 1


class TestPlot:
    def test_one_chart_per_density(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", cfg_path, "--out", str(out)])
        charts = tmp_path / "charts"
        assert main(
            ["plot", "--runs", str(out / "runs.csv"), "--out", str(charts)]
        ) == 0
        svg = (charts / "errors_60.svg").read_text()
        assert svg.count('class="series"') == 3
        # one marker per run per algorithm
        assert svg.count('class="marker"') == 3 * SMALL_CFG["runs_per_density"]

    def test_missing_csv_exit_1(self, tmp_path):
        assert main(
            ["plot", "--runs", str(tmp_path / "no.csv"), "--out", str(tmp_path)]
        ) == 1

    def test_empty_csv_exit_1(self, tmp_path):
        p = tmp_path / "runs.csv"
        p.write_text("algorithm,density,run_index,seed,run_mean_error_m\n")
        assert main(["plot", "--runs", str(p), "--out", str(tmp_path)]) == 1

    def test_single_run_markers_only(self, tmp_path):
        p = tmp_path / "runs.csv"
        p.write_text(
            "algorithm,density,run_index,seed,run_mean_error_m\n"
            "RAIL,60,0,123,4.5000\n"
        )
        charts = tmp_path / "charts"
        assert main(["plot", "--runs", str(p), "--out", str(charts)]) == 0
        svg = (charts / "errors_60.svg").read_text()
        assert svg.count('class="marker"') == 1
        assert svg.count('class="series"') == 0  # no polyline for one point
