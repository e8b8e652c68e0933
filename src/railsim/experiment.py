"""Seeded Monte Carlo evaluation: batch runs over node densities, the
Euclidean error metric, and mean/std aggregation with CSV export.

Per-run seeds derive from (base_seed, density, run_index), so runs can
execute serially or in parallel with bit-identical results; all three
algorithms share one deployment and graph per run for paired comparison.

A run's record holds arrays, not per-node objects: each algorithm's
estimates are one record array with fields ``x`` and ``y`` and its errors
one float array, so a record crosses the process pool as a few buffers.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import baselines, rail
from .geometry import libm
from .network import (
    Deployment,
    GenerationFailed,
    NetworkGraph,
    build_graph,
    generate_deployment,
    hop_tree_ranging,
)
from .radio import PathLossModel

ALL_ALGORITHMS = ("RAIL", "MinMax", "RssiDvHop")


@dataclass(frozen=True)
class ExperimentConfig:
    width: float = 50.0
    height: float = 50.0
    densities: tuple[int, ...] = (100, 200, 500)
    n_anchors: int = 3
    comm_range: float = 10.0
    sigma: float = 0.0
    runs_per_density: int = 50
    base_seed: int = 1
    algorithms: tuple[str, ...] = ALL_ALGORITHMS

    def __post_init__(self):
        def whole(x, low):  # an int, not a bool, >= low
            return isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= low

        def distinct(xs):
            return len(set(xs)) == len(xs)

        # isfinite rejects NaN too; an infinite sigma would hang the
        # shortest-path tie resolution
        rules = {
            "n_anchors": (whole(self.n_anchors, 3), "an integer >= 3"),
            "runs_per_density": (whole(self.runs_per_density, 1), "an integer >= 1"),
            "base_seed": (whole(self.base_seed, 0), "an integer >= 0"),
            "densities": (bool(self.densities) and all(whole(d, 1) for d in self.densities)
                          and distinct(self.densities), "distinct integers >= 1"),
            "width": (math.isfinite(self.width) and self.width > 0, "finite and > 0"),
            "height": (math.isfinite(self.height) and self.height > 0, "finite and > 0"),
            "comm_range": (math.isfinite(self.comm_range) and self.comm_range > 0,
                           "finite and > 0"),
            "sigma": (math.isfinite(self.sigma) and self.sigma >= 0, "finite and >= 0"),
            "algorithms": (set(self.algorithms) <= set(ALL_ALGORITHMS)
                           and distinct(self.algorithms), f"distinct names from {ALL_ALGORITHMS}"),
        }
        for name, (ok, rule) in rules.items():
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        kwargs = dict(d)
        if "densities" in kwargs:
            kwargs["densities"] = tuple(kwargs["densities"])
        if "algorithms" in kwargs:
            kwargs["algorithms"] = tuple(kwargs["algorithms"])
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_json_dict(json.load(f))

    def to_json_dict(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "densities": list(self.densities),
            "n_anchors": self.n_anchors,
            "comm_range": self.comm_range,
            "sigma": self.sigma,
            "runs_per_density": self.runs_per_density,
            "base_seed": self.base_seed,
            "algorithms": list(self.algorithms),
        }


@dataclass
class RunRecord:
    density: int
    run_index: int
    seed: int
    node_ids: list[int]
    estimates: dict[str, np.recarray]  # per algorithm, fields x and y per node
    errors: dict[str, np.ndarray]  # per algorithm, float64 per node
    run_mean_error: dict[str, float]
    rail_box_contains: int = 0  # targets whose box held the true position


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    mean_error: dict[tuple[str, int], float]
    std_error: dict[tuple[str, int], float]
    run_series: dict[tuple[str, int], list[float]]
    records: list[RunRecord] = field(repr=False, default_factory=list)


def localization_errors(true_x, true_y, x, y) -> np.ndarray:
    """Euclidean distances between true and estimated coordinates, elementwise."""
    return libm(math.hypot, true_x - x, true_y - y)  # geometry.distance


def clamp_all(x: np.ndarray, y: np.ndarray, width: float, height: float):
    """Clip estimates into the deployment region, elementwise.

    All nodes are known to live inside the region, so estimates outside it
    are trimmed; applied uniformly to every algorithm.
    """
    return np.clip(x, 0.0, width), np.clip(y, 0.0, height)


def run_seed(base_seed: int, density: int, run_index: int) -> int:
    """Stable per-run seed derived from the base seed and run identity."""
    ss = np.random.SeedSequence([base_seed, density, run_index])
    return int(ss.generate_state(1)[0])


def scenario(
    cfg: ExperimentConfig, density: int, run_index: int
) -> tuple[Deployment, NetworkGraph]:
    """The deployment and RSSI graph of one run of the sweep.

    The deployment and the edge noise draw from two streams spawned from
    (base_seed, density, run_index); ``rail run`` scores this scenario and
    ``rail demo`` renders it.
    """
    ss = np.random.SeedSequence([cfg.base_seed, density, run_index])
    dep_stream, noise_stream = ss.spawn(2)
    try:
        dep = generate_deployment(
            cfg.width, cfg.height, density, cfg.n_anchors, cfg.comm_range, dep_stream
        )
    except GenerationFailed as exc:
        raise GenerationFailed(
            f"density {density}, run {run_index}: {exc}"
        ) from exc
    model = PathLossModel(sigma=cfg.sigma)
    return dep, build_graph(dep, model, rng=np.random.default_rng(noise_stream))


def _run_single(cfg: ExperimentConfig, density: int, run_index: int) -> RunRecord:
    seed = run_seed(cfg.base_seed, density, run_index)
    dep, g = scenario(cfg, density, run_index)
    targets = list(dep.unknown_ids)
    truth_x, truth_y = dep.coords[targets, 0], dep.coords[targets, 1]

    found: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    rail_contained = 0

    if "RAIL" in cfg.algorithms:
        results = rail.localize_all(dep, g)
        found["RAIL"] = (results.x, results.y)
        rail_contained = int(results.box_contains(truth_x, truth_y).sum())

    if "MinMax" in cfg.algorithms or "RssiDvHop" in cfg.algorithms:
        # Both baselines flood beacons by hop count: one BFS tree per anchor
        # gives Min-Max its minimum hop counts and DV-hop its accumulated
        # RSSI distance along the hop-minimal path (not the distance-optimal
        # one RAIL uses).
        floods = [hop_tree_ranging(g, a) for a in dep.anchor_ids]
        acc = np.stack([f[0] for f in floods])[:, targets]
        hops = np.stack([f[1] for f in floods])[:, targets]
        anchor_x, anchor_y = dep.coords[list(dep.anchor_ids)].T

    if "MinMax" in cfg.algorithms:
        found["MinMax"] = baselines.min_max_all(anchor_x, anchor_y, hops, cfg.comm_range)[:2]

    if "RssiDvHop" in cfg.algorithms:
        # the three anchors with the shortest accumulated distance, nearest first
        chosen = np.argsort(acc, axis=0, kind="stable")[:3]
        found["RssiDvHop"] = baselines.rssi_dv_hop_all(
            anchor_x, anchor_y, chosen, np.take_along_axis(acc, chosen, axis=0)
        )[:2]

    estimates: dict[str, np.recarray] = {}
    errors: dict[str, np.ndarray] = {}
    for alg, (x, y) in found.items():
        x, y = clamp_all(x, y, cfg.width, cfg.height)
        estimates[alg] = np.rec.fromarrays((x, y), names="x,y")
        errors[alg] = localization_errors(truth_x, truth_y, x, y)

    return RunRecord(
        density=density,
        run_index=run_index,
        seed=seed,
        node_ids=targets,
        estimates=estimates,
        errors=errors,
        run_mean_error={alg: float(np.mean(errs)) for alg, errs in errors.items()},
        rail_box_contains=rail_contained,
    )


def aggregate(records: Sequence[RunRecord], cfg: ExperimentConfig) -> ExperimentReport:
    """Pooled per-node mean and population std per (algorithm, density),
    plus the per-run mean series.
    """
    if not records:
        raise ValueError("no run records to aggregate")
    records = sorted(records, key=lambda r: (r.density, r.run_index))
    pooled: dict[tuple[str, int], list[np.ndarray]] = {}
    series: dict[tuple[str, int], list[float]] = {}
    for rec in records:
        for alg, errs in rec.errors.items():
            pooled.setdefault((alg, rec.density), []).append(errs)
            series.setdefault((alg, rec.density), []).append(rec.run_mean_error[alg])
    pooled_errs = {k: np.concatenate(v) for k, v in pooled.items()}
    mean = {k: float(np.mean(v)) for k, v in pooled_errs.items()}
    std = {k: float(np.std(v)) for k, v in pooled_errs.items()}
    return ExperimentReport(
        config=cfg,
        mean_error=mean,
        std_error=std,
        run_series=series,
        records=list(records),
    )


def run_experiment(cfg: ExperimentConfig, n_workers: int = 1) -> ExperimentReport:
    """Execute the full (density x run) sweep; deterministic given cfg."""
    jobs = [(d, r) for d in cfg.densities for r in range(cfg.runs_per_density)]
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            records = list(pool.map(_run_single, *zip(*[(cfg, d, r) for d, r in jobs])))
    else:
        records = [_run_single(cfg, d, r) for d, r in jobs]
    return aggregate(records, cfg)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def write_report_csv(report: ExperimentReport, path: str) -> None:
    lines = ["algorithm,density,mean_error_m,std_error_m"]
    for alg in report.config.algorithms:
        for d in report.config.densities:
            key = (alg, d)
            if key in report.mean_error:
                lines.append(
                    f"{alg},{d},{_fmt(report.mean_error[key])},{_fmt(report.std_error[key])}"
                )
    _atomic_write(path, "\n".join(lines) + "\n")


def write_runs_csv(report: ExperimentReport, path: str) -> None:
    lines = ["algorithm,density,run_index,seed,run_mean_error_m"]
    for rec in report.records:
        for alg in report.config.algorithms:
            if alg in rec.run_mean_error:
                lines.append(
                    f"{alg},{rec.density},{rec.run_index},{rec.seed},"
                    f"{_fmt(rec.run_mean_error[alg])}"
                )
    _atomic_write(path, "\n".join(lines) + "\n")


def write_errors_csv(report: ExperimentReport, path: str) -> None:
    blocks = ["algorithm,density,run_index,node_id,error_m\n"]
    for rec in report.records:
        fields = [None] * (2 * len(rec.node_ids))  # node, error, node, error, ...
        fields[::2] = rec.node_ids
        for alg in report.config.algorithms:
            if alg in rec.errors:
                fields[1::2] = rec.errors[alg].tolist()
                row = f"{alg},{rec.density},{rec.run_index},%d,%.4f\n"
                blocks.append(row * len(rec.node_ids) % tuple(fields))
    _atomic_write(path, "".join(blocks))


def read_runs_csv(path: str) -> list[dict]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    for row in rows:
        row["density"] = int(row["density"])
        row["run_index"] = int(row["run_index"])
        row["run_mean_error_m"] = float(row["run_mean_error_m"])
    return rows
