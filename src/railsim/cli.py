"""Command-line front end: run experiments, inspect one seeded scenario,
and turn runs.csv into per-density error charts.

The commands raise; ``main`` alone logs an error and picks the exit code:

    0  success
    1  bad input (``BadInput``): a malformed command line, a config that fails
       to load, an unreadable or empty runs.csv, a --target that is not an
       unknown node, an --out that is empty, is not a directory, lies below a
       file or cannot be written
    2  infeasible deployment (``GenerationFailed``)
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys

import numpy as np

from . import rail
from .experiment import (ALL_ALGORITHMS, ExperimentConfig, _atomic_write, read_runs_csv,
                         run_experiment, scenario, write_errors_csv, write_report_csv,
                         write_runs_csv)
from .network import GenerationFailed

log = logging.getLogger("railsim")


def _setup_logging() -> None:
    level = {"off": logging.CRITICAL, "info": logging.INFO}.get(
        os.environ.get("RAIL_LOG", "info").lower(), logging.INFO
    )
    # basicConfig adds the stderr handler once; the level is set on every
    # call, so each main() in a process follows RAIL_LOG as it is then
    logging.basicConfig(format="%(levelname)s %(message)s")
    log.setLevel(level)


class BadInput(Exception):
    """A refusal of the command's input; ``main`` logs its message and exits 1."""


@contextlib.contextmanager
def _refused(what: str, *errors: type[Exception]):
    """Raise any of ``errors`` from the block as BadInput("<what>: <error>")."""
    try:
        yield
    except errors as exc:
        raise BadInput(f"{what}: {exc}") from exc


def _load_config(path: str) -> ExperimentConfig:
    with _refused("cannot load config", OSError, ValueError, TypeError, KeyError,
                  RecursionError):  # RecursionError: JSON nested about 1000 deep
        return ExperimentConfig.from_json_file(path)


@contextlib.contextmanager
def _out_dir(out: str):
    """Create --out for the block, which names a file in it ``at(name)``; an
    OSError there is bad input."""
    with _refused("cannot write output", OSError):
        os.makedirs(out, exist_ok=True)
        yield lambda name: os.path.join(out, name)


def _check_out(out: str) -> None:
    """Refuse, before any work, an --out that could not be made a directory:
    it must not be empty, and its nearest existing ancestor (--out itself if
    it exists) must be one. --out is not made here, so a run that fails
    leaves none."""
    if not out:
        raise BadInput("cannot write output: --out is empty")
    path = out
    while path and not os.path.lexists(path):
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        raise BadInput(f"cannot write output: {path} is not a directory")


def cmd_run(args) -> None:
    cfg = _load_config(args.config)
    report = run_experiment(cfg, n_workers=args.workers)
    with _out_dir(args.out) as at:
        write_report_csv(report, at("report.csv"))
        write_runs_csv(report, at("runs.csv"))
        write_errors_csv(report, at("errors.csv"))
    print(f"{'':>12}" + "".join(f"{alg:>14}" for alg in ALL_ALGORITHMS))
    for d in cfg.densities:
        for label, stat in ((f"{d:>8} mean", report.mean_error),
                            (f"{'':>9}std", report.std_error)):
            print(label + "".join(f"{stat[(alg, d)]:>14.4f}" for alg in ALL_ALGORITHMS))
    log.info("wrote report.csv, runs.csv, errors.csv to %s", args.out)


def cmd_demo(args) -> None:
    from . import svgplot  # only demo and plot draw, so `rail run` never loads it

    cfg = _load_config(args.config)
    # run 0 of the first density, exactly as `rail run` scores it
    dep, g = scenario(cfg, cfg.densities[0], 0)
    res = rail.localize_all(dep, g)

    targets = res.targets.tolist()  # ascending node ids
    target = args.target if args.target is not None else targets[0]
    if target not in targets:
        raise BadInput(f"node {target} is not an unknown node of this scenario")
    # one pass over the targets' columns as plain floats; a ray is
    # (x, y, dx, dy), a ray-pair hit (x, y) where it is found
    rows = zip(targets, res.x.tolist(), res.y.tolist(), res.case.tolist(), res.box.T.tolist(),
               np.array(res.rays).T.tolist(), *(a.T.tolist() for a in res.hits))
    estimates, diagnostics = {}, {}
    for t, x, y, case, box, rays, hit_x, hit_y, hit in rows:
        hits = [[hx, hy] for hx, hy, ok in zip(hit_x, hit_y, hit) if ok]
        estimates[str(t)] = [x, y]
        diagnostics[str(t)] = {
            "case_fired": rail.CASES[case],
            "box": box,
            "rays": [{"origin": r[:2], "direction": r[2:]} for r in rays],
            "intersections": hits,
        }
        if t == target:
            drawn = box, rays, hits, (x, y)

    scene = {"deployment": dep.to_json_dict(), "target": target, "estimates": estimates,
             "diagnostics": diagnostics}
    svg = svgplot.scene_svg(dep.width, dep.height, dep.coords.tolist(), dep.anchor_ids,
                            target, *drawn)
    with _out_dir(args.out) as at:
        _atomic_write(at("scene.json"), [json.dumps(scene, indent=2), "\n"])
        _atomic_write(at("scene.svg"), [svg])
    log.info("wrote scene.json and scene.svg to %s", args.out)


def cmd_plot(args) -> None:
    from . import svgplot

    # TypeError: a short row
    with _refused("cannot read runs csv", OSError, ValueError, KeyError, TypeError):
        rows = read_runs_csv(args.runs)
    if not rows:
        raise BadInput(f"runs csv {args.runs} has no data rows")
    series: dict[int, dict[str, list[tuple[float, float]]]] = {}  # density, algorithm
    for r in rows:
        series.setdefault(r["density"], {}).setdefault(r["algorithm"], []).append(
            (float(r["run_index"]), r["run_mean_error_m"]))
    charts = {f"errors_{d}.svg": svgplot.line_chart(
        {name: sorted(pts) for name, pts in series[d].items()},
        title=f"Per-run mean localization error, {d} unknown nodes") for d in sorted(series)}
    with _out_dir(args.out) as at:
        for name, svg in charts.items():
            _atomic_write(at(name), [svg])
    log.info("wrote %d chart(s) to %s", len(charts), args.out)


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a malformed command line, as on any bad input; argparse's
    own 2 is the code of an infeasible deployment. Subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _workers(text: str) -> int:
    """A --workers value: an integer >= 1, or a usage error."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="rail", description="RSSI-based localization simulator")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full Monte Carlo sweep")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--workers", type=_workers, default=1)
    run.set_defaults(func=cmd_run)

    demo = sub.add_parser("demo", help="render one seeded scenario")
    demo.add_argument("--config", required=True)
    demo.add_argument("--target", type=int, default=None)
    demo.add_argument("--out", required=True)
    demo.set_defaults(func=cmd_demo)

    plot = sub.add_parser("plot", help="chart per-run errors from runs.csv")
    plot.add_argument("--runs", required=True)
    plot.add_argument("--out", required=True)
    plot.set_defaults(func=cmd_plot)
    return p


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        args.func(args)
    except BadInput as exc:
        log.error("%s", exc)
        return 1
    except GenerationFailed as exc:
        log.error("deployment generation failed: %s", exc)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
