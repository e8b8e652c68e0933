import csv
import hashlib
import json
import os
import pathlib
import stat

import pytest

from railsim import cli, experiment
from railsim.cli import main
from railsim.experiment import ExperimentConfig, scenario
from railsim.network import Deployment

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

SMALL_CFG = {
    "densities": [60],
    "runs_per_density": 2,
    "base_seed": 5,
}


def exit_code(argv):
    """main's return value, or the code of the SystemExit it raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
        {"sigma": 3000}, {"sigma": True}, {"width": True, "height": True},
        {"comm_range": True}, {"n_anchors": 2000}, {"densities": [10**9]},
        {"densities": [5000], "comm_range": 80}, {"algorithms": []},
        {"algorithms": ["RAIL"]}, {"algorithms": ["RssiDvHop", "MinMax", "RAIL"]},
    ])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_invalid_config_exit_1(self, bad, workers, tmp_path, caplog):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**SMALL_CFG, **bad}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(p), "--out", str(out), "--workers", workers]) == 1
        assert "cannot load config" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "[]", json.dumps(list(SMALL_CFG.items())), '"densities"', "60", "null",
    ], ids=["list", "pairs", "string", "number", "null"])
    @pytest.mark.parametrize("command", [
        ["run", "--workers", "1"], ["run", "--workers", "2"], ["demo"],
    ], ids=["run-w1", "run-w2", "demo"])
    def test_non_object_config_exit_1(self, text, command, tmp_path, caplog):
        # dict() reads `[]` as the default config and a list of key/value
        # pairs as the config it spells: neither is a config file
        p = tmp_path / "cfg.json"
        p.write_text(text)
        out = tmp_path / "out"
        name, *flags = command
        assert main([name, "--config", str(p), "--out", str(out), *flags]) == 1
        assert "cannot load config" in caplog.text and "JSON object" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run", "--workers", "2"], ["demo"]])
    def test_pairs_bound_exit_1_before_any_deployment(self, command, tmp_path, caplog,
                                                      monkeypatch):
        # 5000 nodes with R past the area's diagonal expect all 12.5 M pairs
        # in range; the config is refused at load, before any sampling
        def no_deployment(*args, **kwargs):
            raise AssertionError("a deployment was sampled")

        monkeypatch.setattr(experiment, "generate_deployment", no_deployment)
        p = tmp_path / "dense.json"
        p.write_text(json.dumps({**SMALL_CFG, "densities": [5000], "comm_range": 80}))
        out = tmp_path / "out"
        name, *flags = command
        assert main([name, "--config", str(p), "--out", str(out), *flags]) == 1
        assert "cannot load config" in caplog.text and "node pairs" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run", "--workers", "1"], ["run", "--workers", "2"], ["demo"],
    ])
    def test_infeasible_deployment_exit_2(self, command, tmp_path, caplog):
        # four anchors pairwise farther apart than the 10 m range do not
        # fit on 8 x 8 m; the failed command leaves no --out directory
        p = tmp_path / "tight.json"
        p.write_text(json.dumps(
            {**SMALL_CFG, "width": 8, "height": 8, "n_anchors": 4, "densities": [20]}))
        out = tmp_path / "out"
        name, *flags = command
        assert main([name, "--config", str(p), "--out", str(out), *flags]) == 2
        assert "deployment generation failed" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3", "abc", "1.5"])
    def test_workers_below_1_exit_1(self, cfg_path, workers, tmp_path, caplog, capsys):
        # 0 and -3 are refused by cmd_run, abc and 1.5 by the parser
        out = tmp_path / "out"
        assert exit_code(["run", "--config", cfg_path, "--out", str(out),
                          "--workers", workers]) == 1
        assert "--workers" in caplog.text + capsys.readouterr().err
        assert not out.exists()

    def test_base_seed_changes_output(self, tmp_path):
        # a sweep follows from its config file alone; running one config
        # twice gives the same bytes (TestDeterminism, TestCsv)
        outs = []
        for seed in (77, 78):
            p = tmp_path / f"seed{seed}.json"
            p.write_text(json.dumps({**SMALL_CFG, "base_seed": seed}))
            outs.append(tmp_path / f"out{seed}")
            assert main(["run", "--config", str(p), "--out", str(outs[-1])]) == 0
        a, b = outs
        assert (a / "runs.csv").read_bytes() != (b / "runs.csv").read_bytes()


class TestUsage:
    """A malformed command line is bad input: exit 1 with the usage on
    stderr and no --out, where argparse alone exits 2, the code of an
    infeasible deployment."""

    @pytest.mark.parametrize("argv", [
        ["run", "--out", "OUT"],
        ["run", "--config", "CFG", "--out", "OUT", "--seed", "5"],
        ["demo", "--config", "CFG", "--out", "OUT", "--target", "x"],
        ["plot", "--out", "OUT"],
        ["frobnicate", "--out", "OUT"],
        [],
    ], ids=["run-no-config", "run-seed", "demo-target-x", "plot-no-runs", "unknown-command",
            "no-command"])
    def test_usage_error_exit_1(self, argv, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([{"OUT": str(out), "CFG": cfg_path}.get(a, a) for a in argv])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: rail") and "error:" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exit_0(self, argv, capsys):
        assert exit_code(argv) == 0
        assert capsys.readouterr().out.startswith("usage: rail")


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

    def test_draws_run_0_of_first_density(self, tmp_path):
        p = tmp_path / "seed8.json"
        p.write_text(json.dumps({**SMALL_CFG, "base_seed": 8}))
        out = tmp_path / "demo"
        assert main(["demo", "--config", str(p), "--out", str(out)]) == 0
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

    @pytest.mark.parametrize("config, target, scene_json, scene_svg", [
        ("table2.json", "17",
         "59a8f17817a2029c65600684b8482c7986e58324848a2575a117d6c5c46794cc",
         "2802083b3b61d86b025e191fea0cf280bfb2fb8fb2d5af8ef3801cb83a386247"),
        ("noisy6.json", None,
         "67d60cf90703b6afb2901c4af31157a8c8feeac40e20abc63d1adca2b1a126d1",
         "a33cde9eaf02134b36e700da71cbb1607ce51e07401ef3b1aa57e67ca85660b3"),
    ], ids=["table2-target17", "noisy6"])
    def test_pinned_scene_bytes(self, config, target, scene_json, scene_svg, tmp_path):
        # one sigma-0 and one noisy 6-anchor scene, byte for byte
        out = tmp_path / "demo"
        argv = ["demo", "--config", str(CONFIGS / config), "--out", str(out)]
        assert main(argv + (["--target", target] if target else [])) == 0
        for name, digest in (("scene.json", scene_json), ("scene.svg", scene_svg)):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

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

    @pytest.mark.parametrize("row, why", [
        ("MinMax,60,0,123,nan", "must be finite"),
        ("MinMax,60,0,123,inf", "must be finite"),
        ("MinMax,60,0,123,-inf", "must be finite"),
        ("MinMax,60", "NoneType"),  # a short row
        # a series name is printed into the SVG as its label
        ("R<&AIL,60,0,123,4.5000", "unknown algorithm 'R<&AIL'"),
    ])
    def test_bad_row_exit_1(self, row, why, tmp_path, caplog):
        # a chart cannot place a non-finite or missing mean error; no SVG
        # is written
        p = tmp_path / "runs.csv"
        p.write_text(
            "algorithm,density,run_index,seed,run_mean_error_m\n"
            f"RAIL,60,0,123,4.5000\n{row}\n"
        )
        charts = tmp_path / "charts"
        assert main(["plot", "--runs", str(p), "--out", str(charts)]) == 1
        assert "cannot read runs csv" in caplog.text and why in caplog.text
        assert not charts.exists()

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


RUNS_CSV = "algorithm,density,run_index,seed,run_mean_error_m\nRAIL,60,0,123,4.5000\n"


def out_argv(command, cfg_path, runs_path, out):
    if command == "plot":
        return ["plot", "--runs", runs_path, "--out", str(out)]
    return [command, "--config", cfg_path, "--out", str(out)]


class TestOut:
    """--out must name a directory or nothing yet: a command refuses an
    existing file before any work, and an OSError while writing is exit 1."""

    @pytest.fixture()
    def runs_path(self, tmp_path):
        p = tmp_path / "runs.csv"
        p.write_text(RUNS_CSV)
        return str(p)

    @pytest.mark.parametrize("command", ["run", "demo", "plot"])
    def test_existing_file_exit_1_before_any_work(self, command, cfg_path, runs_path,
                                                  tmp_path, caplog, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work was done")

        for name in ("_load_config", "read_runs_csv", "run_experiment", "scenario"):
            monkeypatch.setattr(cli, name, no_work)
        afile = tmp_path / "afile"
        afile.write_bytes(b"keep me\n")
        assert main(out_argv(command, cfg_path, runs_path, afile)) == 1
        assert f"cannot write output: {afile} is not a directory" in caplog.text
        assert afile.read_bytes() == b"keep me\n"

    @pytest.mark.parametrize("command", ["run", "demo", "plot"])
    def test_unwritable_out_exit_1(self, command, cfg_path, runs_path, tmp_path, caplog):
        # a directory below a regular file cannot be made
        afile = tmp_path / "afile"
        afile.write_bytes(b"keep me\n")
        assert main(out_argv(command, cfg_path, runs_path, afile / "sub")) == 1
        assert "cannot write output" in caplog.text
        assert afile.read_bytes() == b"keep me\n"

    @pytest.mark.parametrize("command", ["run", "demo", "plot"])
    def test_existing_directory_written(self, command, cfg_path, runs_path, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert main(out_argv(command, cfg_path, runs_path, out)) == 0
        assert any(out.iterdir())

    @pytest.mark.parametrize("command", ["run", "demo", "plot"])
    def test_files_follow_the_umask(self, command, cfg_path, runs_path, tmp_path):
        # every file gets the mode open() would give it, not mkstemp's 0600
        out = tmp_path / "out"
        old = os.umask(0o022)
        try:
            assert main(out_argv(command, cfg_path, runs_path, out)) == 0
        finally:
            os.umask(old)
        modes = {f.name: stat.S_IMODE(f.stat().st_mode) for f in out.iterdir()}
        assert modes and set(modes.values()) == {0o644}, modes
