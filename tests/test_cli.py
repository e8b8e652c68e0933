import csv
import hashlib
import json
import math
import os
import pathlib
import stat
import subprocess
import sys
import warnings

import pytest

from railsim import cli, experiment
from railsim.cli import main
from railsim.experiment import N_TARGETS_MAX, RUN_TARGETS, ExperimentConfig, scenario
from railsim.network import Deployment, Unreachable

ROOT = pathlib.Path(__file__).resolve().parents[1]

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
    def test_prints_the_table(self, cfg_path, tmp_path, capsys):
        # each density's pooled mean and std per algorithm, as report.csv has them
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == (
            "                      RAIL        MinMax     RssiDvHop\n"
            "      60 mean       17.0606       15.6240       31.1984\n"
            "         std       10.8769        9.3861       17.7683\n")

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
        # anything but a list, named as written: tuple() would have split
        # "100" into ('1', '0', '0') and {"100": 1} into ('100',)
        {"densities": "100"}, {"densities": {"100": 1}}, {"densities": 5},
        {"densities": None},
        # width * height overflows: it loaded, then sampled 1000 times into
        # NaN anchor-triangle cross products and exited 2
        {"width": 1e308, "height": 1e308},
        # 401-digit integers, too large for a float: they ended in an
        # OverflowError traceback from math.isfinite
        {"width": 10**400}, {"sigma": 10**400},
    ])
    @pytest.mark.parametrize("command", [
        ["run", "--workers", "1"], ["run", "--workers", "2"], ["demo"],
    ], ids=["1", "2", "demo"])
    def test_invalid_config_exit_1(self, bad, command, tmp_path, caplog):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**SMALL_CFG, **bad}))
        out = tmp_path / "out"
        name, *flags = command
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([name, "--config", str(p), "--out", str(out), *flags]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "cannot load config" in caplog.text
        assert not out.exists()
        if not isinstance(bad.get("densities", []), list):
            assert f"densities must be a list, got {bad['densities']!r}" in caplog.text

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

    @pytest.mark.parametrize("command", [["run", "--workers", "2"], ["demo"]],
                             ids=["run-w2", "demo"])
    def test_targets_bound_exit_1_before_any_chunk(self, command, tmp_path, caplog,
                                                   monkeypatch):
        # 10**12 runs of 60 targets would build 6e10 chunk bounds before the
        # first run; the config is refused at load
        def no_work(*args, **kwargs):
            raise AssertionError("the sweep was started")

        monkeypatch.setattr(experiment, "chunks", no_work)
        monkeypatch.setattr(experiment, "generate_deployment", no_work)
        p = tmp_path / "long.json"
        p.write_text(json.dumps({**SMALL_CFG, "runs_per_density": 10**12}))
        out = tmp_path / "out"
        name, *flags = command
        assert main([name, "--config", str(p), "--out", str(out), *flags]) == 1
        assert "cannot load config" in caplog.text
        assert f"at most {N_TARGETS_MAX:,} targets" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run", "--workers", "1"], ["run", "--workers", "2"],
                                         ["demo"]], ids=["run-w1", "run-w2", "demo"])
    def test_run_cost_bound_exit_1_before_any_chunk(self, command, tmp_path, caplog,
                                                    monkeypatch):
        # 500,000 runs of 8 targets are 4 M targets, but each run's record
        # costs as much as RUN_TARGETS more; the config is refused at load
        def no_work(*args, **kwargs):
            raise AssertionError("the sweep was started")

        monkeypatch.setattr(experiment, "chunks", no_work)
        monkeypatch.setattr(experiment, "generate_deployment", no_work)
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps({**SMALL_CFG, "width": 22, "height": 22, "densities": [8],
                                 "runs_per_density": 500_000}))
        out = tmp_path / "out"
        name, *flags = command
        assert main([name, "--config", str(p), "--out", str(out), *flags]) == 1
        assert "cannot load config" in caplog.text
        assert f"counting {RUN_TARGETS} more per run" in caplog.text
        assert "4,000,000 targets" in caplog.text and "500,000 runs" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run", "--workers", "1"], ["run", "--workers", "2"], ["demo"],
    ], ids=["run-w1", "run-w2", "demo"])
    def test_underflowing_area_exit_1(self, command, tmp_path, caplog):
        # 2 * width * height underflows to 0: it printed a bare
        # ZeroDivisionError from expected_pairs
        p = tmp_path / "small.json"
        p.write_text(json.dumps({"densities": [20], "runs_per_density": 1,
                                 "width": 1e-300, "height": 1e-300}))
        out = tmp_path / "out"
        name, *flags = command
        assert main([name, "--config", str(p), "--out", str(out), *flags]) == 1
        assert "cannot load config" in caplog.text
        assert "2 * width * height must be > 0" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run", "--workers", "1"], ["run", "--workers", "2"], ["demo"],
    ], ids=["run-w1", "run-w2", "demo"])
    def test_side_above_1e100_exit_1(self, command, tmp_path, caplog):
        # 1e200 wide loaded: run ended in an OverflowError traceback from
        # the DV-hop solve's pow, demo in the pair sweep's overflowing squares
        p = tmp_path / "wide.json"
        p.write_text(json.dumps({"width": 1e200, "height": 1.0, "comm_range": 3e199,
                                 "densities": [20], "runs_per_density": 1}))
        out = tmp_path / "out"
        name, *flags = command
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([name, "--config", str(p), "--out", str(out), *flags]) == 1
        assert "cannot load config" in caplog.text
        assert "width must be at most 1e+100, got 1e+200" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("area", [(1e100, 1.0), (1.0, 1e100)], ids=["wide", "tall"])
    @pytest.mark.parametrize("command", [
        ["run", "--workers", "1"], ["run", "--workers", "2"], ["demo"],
    ], ids=["run-w1", "run-w2", "demo"])
    def test_side_at_1e100_runs(self, area, command, tmp_path):
        # the largest side a config may give runs with no RuntimeWarning
        width, height = area
        p = tmp_path / "wide.json"
        p.write_text(json.dumps({"width": width, "height": height, "comm_range": 3e99,
                                 "densities": [20], "runs_per_density": 1}))
        out = tmp_path / "out"
        name, *flags = command
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([name, "--config", str(p), "--out", str(out), *flags]) == 0
        assert out.is_dir()

    def test_noisy_dv_hop_past_float_range_scored_finite(self, tmp_path):
        # at 100 dB on a 1e95 m square the noisy multi-hop distances overflow
        # the DV-hop solve: run exited 0 with nan as RssiDvHop's mean and std,
        # or ended in a traceback with RuntimeWarnings raised
        p = tmp_path / "noisy.json"
        p.write_text(json.dumps({"width": 1e95, "height": 1e95, "comm_range": 3e94,
                                 "densities": [100], "runs_per_density": 3, "sigma": 100}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(p), "--out", str(out)]) == 0
        rows = list(csv.DictReader((out / "report.csv").open()))
        assert [row["algorithm"] for row in rows] == list(experiment.ALL_ALGORITHMS)
        assert all(math.isfinite(float(row[k])) for row in rows
                   for k in ("mean_error_m", "std_error_m"))

    @pytest.mark.parametrize("text", ["[" * 1000 + "]" * 1000, '{"a": ' * 1000 + "1" + "}" * 1000],
                             ids=["arrays", "objects"])
    @pytest.mark.parametrize("command", [["run", "--workers", "1"], ["demo"]],
                             ids=["run", "demo"])
    def test_deeply_nested_config_exit_1(self, text, command, tmp_path, caplog):
        # json raises RecursionError from about 1000 levels
        p = tmp_path / "deep.json"
        p.write_text(text)
        out = tmp_path / "out"
        name, *flags = command
        assert main([name, "--config", str(p), "--out", str(out), *flags]) == 1
        assert "cannot load config" in caplog.text
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
    def test_workers_below_1_exit_1(self, cfg_path, workers, tmp_path, capsys):
        # the parser refuses all four, as a usage error
        out = tmp_path / "out"
        assert exit_code(["run", "--config", cfg_path, "--out", str(out),
                          "--workers", workers]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: rail run") and "error: argument --workers" in err
        assert not out.exists()

    def test_other_errors_propagate(self, cfg_path, tmp_path, caplog, monkeypatch):
        # only bad input (1) and an infeasible deployment (2) have exit codes;
        # anything else is a fault of the program and keeps its traceback
        def unreachable(*args, **kwargs):
            raise Unreachable("node 7 unreachable from 0")

        monkeypatch.setattr(cli, "run_experiment", unreachable)
        out = tmp_path / "out"
        with pytest.raises(Unreachable, match="node 7"):
            main(["run", "--config", cfg_path, "--out", str(out)])
        assert not caplog.records
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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_benchmark_golden_digests(workers, tmp_path):
    # the benchmark refuses every sweep whose CSVs differ from the digests
    # stored in perfbench/golden.json; its table2 workload is the
    # tests/pins.json entry table2-golden, and its sweep must give them here
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["table2"]
    pin = json.loads((ROOT / "tests" / "pins.json").read_text())["table2-golden"]
    assert (pin["config"], pin["digests"]) == (golden["config"], golden["digests"])
    assert int(workers) in pin["workers"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(golden["config"]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--workers", workers]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in golden["digests"]}
    assert got == golden["digests"]


@pytest.mark.parametrize("levels", [("off", "info"), ("info", "off")])
def test_rail_log_applies_to_every_main(levels, cfg_path, tmp_path):
    # two `rail run`s in one fresh process (no handler on the root logger
    # yet, unlike under pytest): each follows RAIL_LOG as set for it
    script = (
        "import os, sys\n"
        "from railsim import cli\n"
        "cfg, out = sys.argv[1:3]\n"
        "for k, level in enumerate(sys.argv[3:]):\n"
        "    os.environ['RAIL_LOG'] = level\n"
        "    assert cli.main(['run', '--config', cfg, '--out', f'{out}{k}']) == 0\n"
        "    print('-- end of call', file=sys.stderr, flush=True)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, cfg_path, str(tmp_path / "out"), *levels],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = proc.stderr.split("-- end of call\n")[:2]
    for level, err in zip(levels, calls):
        wrote = "INFO wrote report.csv, runs.csv, errors.csv to " in err
        assert wrote == (level == "info"), (level, err)


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
    existing file, or a path below one, before any work, and an OSError
    while writing is exit 1."""

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
    def test_empty_out_exit_1_before_any_work(self, command, cfg_path, runs_path, caplog,
                                              monkeypatch):
        # "" names no directory: os.makedirs("") fails, so a command that
        # reached its writes would fail only after its sweep or scene
        def no_work(*args, **kwargs):
            raise AssertionError("work was done")

        for name in ("_load_config", "read_runs_csv", "run_experiment", "scenario"):
            monkeypatch.setattr(cli, name, no_work)
        assert main(out_argv(command, cfg_path, runs_path, "")) == 1
        assert "cannot write output: --out is empty" in caplog.text

    @pytest.mark.parametrize("command", [["run", "--workers", "1"], ["run", "--workers", "2"],
                                         ["demo"], ["plot"]],
                             ids=["run-w1", "run-w2", "demo", "plot"])
    def test_out_under_a_file_exit_1_before_any_work(self, command, cfg_path, runs_path,
                                                     tmp_path, caplog, monkeypatch):
        # a directory cannot be made below a regular file, however deep
        def no_work(*args, **kwargs):
            raise AssertionError("work was done")

        monkeypatch.setattr(experiment, "chunks", no_work)
        for name in ("_load_config", "read_runs_csv", "scenario"):
            monkeypatch.setattr(cli, name, no_work)
        afile = tmp_path / "afile"
        afile.write_bytes(b"keep me\n")
        argv = out_argv(command[0], cfg_path, runs_path, afile / "sub" / "deeper") + command[1:]
        assert main(argv) == 1
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
