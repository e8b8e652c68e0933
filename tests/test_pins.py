"""Every pinned output byte. ``tests/pins.json`` holds one entry per pinned
run: its command (``run``, ``demo``, or ``records``, which hashes a
sweep's estimates and errors to the last bit), its config (a path under
``configs/`` or inline), the worker counts a ``run`` compares or the
``--target`` of a ``demo``, and the sha256 of each file it writes. A
failing entry prints its new ``digests`` object; a deliberate change of
output pastes it into the manifest and gives each changed digest's reason
in CHANGES.md."""

import hashlib
import json
import pathlib
import warnings

import pytest

from railsim.cli import main
from railsim.experiment import ExperimentConfig, run_experiment

ROOT = pathlib.Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "tests" / "pins.json").read_text())


def records_digest(report) -> str:
    """sha256 of every estimate and error (float.hex) and each run's box
    count: the CSVs round to 4 decimals."""
    h = hashlib.sha256()
    for rec in report.records:
        for alg in sorted(rec.estimates):
            for p, err in zip(rec.estimates[alg], rec.errors[alg]):
                h.update(f"{alg} {rec.density} {rec.run_index} "
                         f"{p.x.hex()} {p.y.hex()} {err.hex()}\n".encode())
        h.update(f"box {rec.rail_box_contains}\n".encode())
    return h.hexdigest()


def written(pin, tmp_path) -> dict[str, dict[str, str]]:
    """{how it ran: {file name: sha256}} for each run of the entry."""
    config = pin["config"]
    if isinstance(config, str):
        path = ROOT / config
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
    if pin["command"] == "records":
        report = run_experiment(ExperimentConfig.from_json_file(str(path)))
        return {"run_experiment": {"records": records_digest(report)}}
    if pin["command"] == "run":
        runs = {f"--workers {w}": ["run", "--workers", str(w)] for w in pin["workers"]}
    else:
        runs = {"demo": ["demo"] + (["--target", str(pin["target"])] if "target" in pin else [])}
    got = {}
    for k, (how, (command, *flags)) in enumerate(runs.items()):
        out = tmp_path / f"out{k}"
        assert main([command, "--config", str(path), "--out", str(out), *flags]) == 0, how
        got[how] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                    for f in sorted(out.iterdir())}
    return got


@pytest.mark.parametrize("name", list(PINS))
def test_pinned_outputs(name, tmp_path):
    # in process, with a numpy RuntimeWarning an error; forked pool workers
    # inherit the filter
    pin = PINS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = written(pin, tmp_path)
    (first, digests), *others = got.items()
    for how, other in others:
        assert other == digests, f"{name}: {how} wrote other bytes than {first}"
    want = pin["digests"]
    wrong = [f"{name}/{f}: expected {want.get(f)}, got {digests.get(f)}"
             for f in sorted(want.keys() | digests.keys()) if want.get(f) != digests.get(f)]
    assert not wrong, "\n".join(
        wrong + [f'a deliberate re-pin of {name} pastes "digests": '
                 f"{json.dumps(digests, indent=2)}"])


def test_every_shipped_config_pinned():
    pinned = {pin["config"] for pin in PINS.values() if isinstance(pin["config"], str)}
    shipped = {p.relative_to(ROOT).as_posix() for p in (ROOT / "configs").glob("*.json")}
    assert shipped <= pinned, sorted(shipped - pinned)

