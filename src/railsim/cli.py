"""Command-line front end: run experiments, inspect one seeded scenario,
and turn runs.csv into per-density error charts.

Exit codes: 0 success, 1 bad input (a malformed command line, config, CSV,
--out), 2 infeasible deployment.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import rail, svgplot
from .experiment import (
    ALL_ALGORITHMS,
    ExperimentConfig,
    _atomic_write,
    read_runs_csv,
    run_experiment,
    scenario,
    write_errors_csv,
    write_report_csv,
    write_runs_csv,
)
from .network import GenerationFailed

log = logging.getLogger("railsim")


def _setup_logging() -> None:
    level = {"off": logging.CRITICAL, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("RAIL_LOG", "info").lower(), logging.INFO
    )
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")


def _load_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    return ExperimentConfig.from_json_file(path)


def _cannot_write(exc: OSError) -> int:
    log.error("cannot write output: %s", exc)
    return 1


def cmd_run(args) -> int:
    if args.workers < 1:
        log.error("--workers must be >= 1, got %d", args.workers)
        return 1
    try:
        cfg = _load_config(args.config)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        log.error("cannot load config: %s", exc)
        return 1
    try:
        report = run_experiment(cfg, n_workers=args.workers)
    except GenerationFailed as exc:
        log.error("deployment generation failed: %s", exc)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
        write_report_csv(report, os.path.join(args.out, "report.csv"))
        write_runs_csv(report, os.path.join(args.out, "runs.csv"))
        write_errors_csv(report, os.path.join(args.out, "errors.csv"))
    except OSError as exc:
        return _cannot_write(exc)

    print(f"{'':>12}" + "".join(f"{alg:>14}" for alg in ALL_ALGORITHMS))
    for d in cfg.densities:
        row = f"{d:>8} mean"
        for alg in ALL_ALGORITHMS:
            row += f"{report.mean_error[(alg, d)]:>14.4f}"
        print(row)
        row = f"{'':>9}std"
        for alg in ALL_ALGORITHMS:
            row += f"{report.std_error[(alg, d)]:>14.4f}"
        print(row)
    log.info("wrote report.csv, runs.csv, errors.csv to %s", args.out)
    return 0


def cmd_demo(args) -> int:
    try:
        cfg = _load_config(args.config)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        log.error("cannot load config: %s", exc)
        return 1
    try:
        # run 0 of the first density, exactly as `rail run` scores it
        dep, g = scenario(cfg, cfg.densities[0], 0)
    except GenerationFailed as exc:
        log.error("deployment generation failed: %s", exc)
        return 2
    res = rail.localize_all(dep, g)

    targets = res.targets.tolist()  # ascending node ids
    target = args.target if args.target is not None else targets[0]
    if target not in targets:
        log.error("node %s is not an unknown node of this scenario", target)
        return 1

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

    scene = {
        "deployment": dep.to_json_dict(),
        "target": target,
        "estimates": estimates,
        "diagnostics": diagnostics,
    }
    svg = svgplot.scene_svg(dep.width, dep.height, dep.coords.tolist(), dep.anchor_ids,
                            target, *drawn)
    try:
        os.makedirs(args.out, exist_ok=True)
        _atomic_write(os.path.join(args.out, "scene.json"), json.dumps(scene, indent=2) + "\n")
        _atomic_write(os.path.join(args.out, "scene.svg"), svg)
    except OSError as exc:
        return _cannot_write(exc)
    log.info("wrote scene.json and scene.svg to %s", args.out)
    return 0


def cmd_plot(args) -> int:
    try:
        rows = read_runs_csv(args.runs)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # TypeError: a short row
        log.error("cannot read runs csv: %s", exc)
        return 1
    if not rows:
        log.error("runs csv %s has no data rows", args.runs)
        return 1
    densities = sorted({r["density"] for r in rows})
    charts = {}
    for d in densities:
        series: dict[str, list[tuple[float, float]]] = {}
        for r in rows:
            if r["density"] == d:
                series.setdefault(r["algorithm"], []).append(
                    (float(r["run_index"]), r["run_mean_error_m"])
                )
        charts[f"errors_{d}.svg"] = svgplot.line_chart(
            {name: sorted(pts) for name, pts in series.items()},
            title=f"Per-run mean localization error, {d} unknown nodes",
            x_label="run index", y_label="mean error (m)")
    try:
        os.makedirs(args.out, exist_ok=True)
        for name, svg in charts.items():
            _atomic_write(os.path.join(args.out, name), svg)
    except OSError as exc:
        return _cannot_write(exc)
    log.info("wrote %d chart(s) to %s", len(densities), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a malformed command line, as on any bad input; argparse's
    own 2 is the code of an infeasible deployment. Subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="rail", description="RSSI-based localization simulator")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full Monte Carlo sweep")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--workers", type=int, default=1)
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
    if os.path.exists(args.out) and not os.path.isdir(args.out):  # before any work
        log.error("cannot write output: %s is not a directory", args.out)
        return 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
