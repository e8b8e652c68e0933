"""The benchmark's correctness checker and tracer, run as they are on small
sweeps. They read names of the program that no other test reads through
them: a run record's ``estimates`` (``.x``, ``.y``), ``node_ids``,
``density``, ``run_index`` and ``rail_box_contains``, the report's
``records``, the config's ``algorithms`` key and ``NetworkGraph.adjacency``.
A change that drops one of them fails here, not in the benchmark."""

import importlib.util
import json
import pathlib

import pytest

from railsim import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def perfbench(name):
    """perfbench/<name>.py as a module, loaded without putting perfbench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks, tracing, workloads = (perfbench(n) for n in ("checks", "tracing", "workloads"))


def checked_sweep(config, tmp_path, monkeypatch):
    """One `rail run` of config through cli.main, its report captured as
    perfbench/sweep.py captures it; the checker's problems."""
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(config))
    captured, run_experiment = [], cli.run_experiment

    def capture(*args, **kwargs):
        captured.append(run_experiment(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(cli, "run_experiment", capture)
    code = cli.main(["run", "--config", str(path), "--out", str(out)])
    problems, mean_error = checks.check_sweep(code, config, str(out), captured[-1], None)
    assert sorted(mean_error) == ["dvhop_err_m", "minmax_err_m", "rail_err_m"]
    return problems


@pytest.mark.parametrize("config", [
    {**workloads.TABLE2, "runs_per_density": 1},
    {**workloads.WORKLOADS["noisy6"]["config"], "runs_per_density": 2},
], ids=["table2", "noisy6"])
def test_check_sweep_passes(config, tmp_path, monkeypatch):
    assert checked_sweep(config, tmp_path, monkeypatch) == []


def test_traced_sweep_passes(tmp_path, monkeypatch):
    config = {**workloads.TABLE2, "densities": [100], "runs_per_density": 1}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert checked_sweep(config, tmp_path, monkeypatch) == []
    finally:
        tracer.uninstall()
    # the edge count reads NetworkGraph.adjacency of every graph built
    assert tracer.calls("network.build_graph") == 1 and tracer.count["network.edges"] > 0
    assert tracer.calls("experiment.aggregate") == 1
