"""Seeded Monte Carlo evaluation: batch runs over node densities, the
Euclidean error metric, and mean/std aggregation with CSV export.

Per-run seeds derive from (base_seed, density, run_index), so runs can
execute serially or in parallel with bit-identical results; every run
scores all three algorithms (``ALL_ALGORITHMS``, in that order) on one
deployment and graph for paired comparison.
The unit of work is a chunk of runs of one density (``chunks``): each run
draws its own scenario, the runs' graphs are stacked as the blocks of one
``NetworkGraph``, and ``_run_chunk``'s stages (``_scenes``, RAIL's one
composition ``rail._localize``, ``_baselines`` and ``_score``) run once over
the targets of all of them, so their fixed cost is paid once per chunk; each
block keeps its run's node ids.

A run's record holds arrays, not per-node objects: each algorithm's
estimates are one record array with fields ``x`` and ``y`` and its errors
one float array, views of the rows of the chunk's (algorithm, run, target)
arrays, so a record crosses the process pool as a few buffers.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from . import baselines, rail
from .geometry import _require, _whole, libm
from .network import (
    N_NODES_MAX,
    Deployment,
    GenerationFailed,
    NetworkGraph,
    _require_deployable,
    build_graph,
    generate_deployment,
    hop_floods,
)
from .radio import PathLossModel

ALL_ALGORITHMS = ("RAIL", "MinMax", "RssiDvHop")
# the dtype of one algorithm's estimates: an (x, y) record per target
ESTIMATE = np.dtype([("x", float), ("y", float)])
# the most targets a sweep may score (``ExperimentConfig.targets``), each of
# its runs counting as RUN_TARGETS more. Every run's record stays in memory
# until the CSVs are written: at 100-500 nodes per run a sweep's peak RSS
# grows by about 120 bytes per target (72 MB at 40,000 targets, 104 MB at
# 320,000), so this ceiling needs about 0.6 GB. A record also costs about
# 2.0 KB whatever its size (peak RSS of 2,500 and 10,000 runs of 8 nodes),
# the bytes of 17 targets, so below 17 nodes per run it outweighs them; at
# 15 targets per run, 8-node runs reach the ceiling near 0.65 GB
N_TARGETS_MAX = 5_000_000
RUN_TARGETS = 15
# the most nodes (anchors included) one chunk of same-density runs holds:
# a chunk's array passes run once over all its runs' targets, so each run
# adds its arrays to the chunk's memory while the passes' fixed cost is paid
# once; 8 runs of 206 nodes, 3 of 503, one at 4503
CHUNK_NODES = 1700


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

    def __post_init__(self):
        _require("runs_per_density", self.runs_per_density, _whole(self.runs_per_density, 1),
                 "an integer >= 1")
        _require("base_seed", self.base_seed, _whole(self.base_seed, 0), "an integer >= 0")
        # each element checked as given, an array's as the Python number it
        # holds (``network._node_ids``' rule), and kept as a tuple of ints;
        # the deployment rule below refuses a density above N_NODES_MAX
        d = self.densities.tolist() if isinstance(self.densities, np.ndarray) else self.densities
        _require("densities", self.densities, isinstance(d, Sequence) and len(d) > 0
                 and all(_whole(x, 1) for x in d) and len(set(d)) == len(d),
                 f"distinct integers in [1, {N_NODES_MAX}]")
        object.__setattr__(self, "densities", tuple(int(x) for x in d))
        # the node, anchor, area and pair rules of a deployment at the
        # largest density, and the channel's sigma rule
        _require_deployable(max(d), self.n_anchors, self.width, self.height, self.comm_range,
                            unknown="the largest density")
        PathLossModel(self.sigma)
        if self.targets + RUN_TARGETS * self.runs > N_TARGETS_MAX:
            raise ValueError(
                f"a sweep must score at most {N_TARGETS_MAX:,} targets, counting {RUN_TARGETS} "
                f"more per run for its record, got {self.targets:,} targets (runs_per_density "
                f"x the sum of densities) in {self.runs:,} runs (runs_per_density x the number "
                f"of densities): lower runs_per_density or densities")

    @property
    def targets(self) -> int:
        """The targets the sweep scores, runs_per_density x sum(densities)."""
        return self.runs_per_density * sum(self.densities)

    @property
    def runs(self) -> int:
        """The runs of the sweep, runs_per_density x len(densities)."""
        return self.runs_per_density * len(self.densities)

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):  # dict() would also take a list of pairs
            raise TypeError(f"a config must be a JSON object, got {type(d).__name__}")
        kwargs = dict(d)
        # anything but a list is named as written, not as the characters of
        # a string that the densities rule would read
        if not isinstance(kwargs.get("densities", ()), (list, tuple)):
            raise ValueError(f"densities must be a list, got {kwargs['densities']!r}")
        # a sweep scores every algorithm; the key may only say so
        algorithms = kwargs.pop("algorithms", list(ALL_ALGORITHMS))
        if algorithms != list(ALL_ALGORITHMS):
            raise ValueError(f"algorithms must be {list(ALL_ALGORITHMS)} or absent, "
                             f"got {algorithms!r}")
        return cls(**kwargs)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_json_dict(json.load(f))


@dataclass
class RunRecord:
    density: int
    run_index: int
    node_ids: tuple[int, ...]  # one tuple, shared by the records of a chunk
    estimates: dict[str, np.recarray]  # per algorithm, fields x and y per node
    errors: dict[str, np.ndarray]  # per algorithm, float64 per node
    rail_box_contains: int  # targets whose box held the true position


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    mean_error: dict[tuple[str, int], float]
    std_error: dict[tuple[str, int], float]
    records: list[RunRecord] = field(repr=False, default_factory=list)


def localization_errors(true_x, true_y, x, y) -> np.ndarray:
    """Euclidean distances between true and estimated coordinates, elementwise."""
    return libm(math.hypot, true_x - x, true_y - y)  # geometry.distance


def run_seed(base_seed: int, density: int, run_index: int) -> int:
    """Stable per-run seed derived from the base seed and run identity, the
    ``seed`` column of runs.csv. It identifies the run but does not seed it:
    ``scenario(cfg, density, run_index)`` rebuilds the run."""
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


def _scenes(cfg: ExperimentConfig, density: int, runs: Sequence[int]):
    """The scenarios of some runs of one density, stacked: their (runs, n,
    2) coordinates, their anchor and target ids (the same in every run) and
    their graphs as the blocks of one (``NetworkGraph.stack``). Each
    deployment is dropped once its graph is built, and each graph once the
    stack holds its links."""
    coords, graphs = [], []
    for r in runs:
        dep, g = scenario(cfg, density, r)
        coords.append(dep.coords)
        graphs.append(g)
    return (np.stack(coords), np.array(dep.anchor_ids), dep.unknown_ids,
            NetworkGraph.stack(graphs))


def _baselines(cfg: ExperimentConfig, g: NetworkGraph, anchors, targets, anchor_x, anchor_y):
    """Min-Max's and DV-hop's estimates, each an (x, y) pair of (run,
    target) arrays. Both flood beacons by hop count: one BFS tree per anchor
    gives Min-Max its minimum hop counts and DV-hop its accumulated RSSI
    distance along the hop-minimal path (not the distance-optimal one RAIL
    uses), both (anchor, run, target), and DV-hop solves from the three
    anchors with the shortest accumulated distance, nearest first."""
    floods = hop_floods(g, anchors)
    acc, hops = (a[:, :, targets].transpose(1, 0, 2) for a in (floods.dist, floods.hops))
    mm_x, mm_y, _ = baselines.min_max_all(anchor_x, anchor_y, hops, cfg.comm_range)
    chosen = np.argsort(acc, axis=0, kind="stable")[:3]
    dv_x, dv_y, _ = baselines.rssi_dv_hop_all(anchor_x, anchor_y, chosen,
                                              np.take_along_axis(acc, chosen, axis=0))
    return (mm_x, mm_y), (dv_x, dv_y)


def _score(cfg: ExperimentConfig, truth: np.ndarray, *estimates):
    """The ``ESTIMATE`` records and the errors of every algorithm's (x, y)
    estimates, given in ``ALL_ALGORITHMS`` order, in one stacked pass over
    (algorithm, run, target) arrays. Every node lies inside the area, so
    every estimate is clipped into it."""
    x, y = np.stack(estimates, axis=1)
    x, y = np.clip(x, 0.0, cfg.width), np.clip(y, 0.0, cfg.height)
    return np.rec.fromarrays((x, y), dtype=ESTIMATE), localization_errors(*truth, x, y)


def _run_chunk(cfg: ExperimentConfig, density: int, runs: Sequence[int]) -> list[RunRecord]:
    """The records of some runs of one density, in ``runs`` order: the
    stages ``_scenes``, ``rail._localize``, ``_baselines`` and ``_score``,
    each once over the (run, target) arrays of all runs (``localize_chunk``'s
    column order), and then each run's record as views of its rows.
    """
    coords, anchors, targets, g = _scenes(cfg, density, runs)
    truth = np.moveaxis(coords[:, targets], 2, 0)  # (x or y, run, target)
    anchor_x, anchor_y = coords[:, anchors].T  # (anchor, run), for all three algorithms
    geo, _, _, _, (x, y, _, _) = rail._localize(anchor_x, anchor_y, anchors, g)
    held = rail._inside(geo.box, *truth.reshape(2, -1)).reshape(truth.shape[1:]).sum(axis=1)
    est, err = _score(cfg, truth, np.reshape((x, y), truth.shape),
                      *_baselines(cfg, g, anchors, targets, anchor_x, anchor_y))
    return [RunRecord(
        density=density,
        run_index=run_index,
        node_ids=targets,
        estimates=dict(zip(ALL_ALGORITHMS, est[:, b])),
        errors=dict(zip(ALL_ALGORITHMS, err[:, b])),
        rail_box_contains=int(held[b]),
    ) for b, run_index in enumerate(runs)]


def aggregate(records: Sequence[RunRecord], cfg: ExperimentConfig) -> ExperimentReport:
    """Pooled per-node mean and population std per (algorithm, density)."""
    if not records:
        raise ValueError("no run records to aggregate")
    records = sorted(records, key=lambda r: (r.density, r.run_index))
    pooled: dict[tuple[str, int], list[np.ndarray]] = {}
    for rec in records:
        for alg, errs in rec.errors.items():
            pooled.setdefault((alg, rec.density), []).append(errs)
    pooled_errs = {k: np.concatenate(v) for k, v in pooled.items()}
    mean = {k: float(np.mean(v)) for k, v in pooled_errs.items()}
    std = {k: float(np.std(v)) for k, v in pooled_errs.items()}
    return ExperimentReport(
        config=cfg,
        mean_error=mean,
        std_error=std,
        records=list(records),
    )


def chunks(cfg: ExperimentConfig, n_workers: int = 1) -> list[tuple[int, range]]:
    """The sweep's chunks as (density, runs), largest density first: each
    density's runs in consecutive ranges of near-equal length, as few as
    keep a chunk within ``CHUNK_NODES`` nodes, but at least ``n_workers``
    (and at most one per run)."""
    out = []
    runs = cfg.runs_per_density
    for d in sorted(cfg.densities, reverse=True):
        per_chunk = max(1, CHUNK_NODES // (d + cfg.n_anchors))
        count = min(runs, max(n_workers, -(-runs // per_chunk)))
        bounds = [k * runs // count for k in range(count + 1)]
        out += [(d, range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
    return out


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def run_experiment(cfg: ExperimentConfig, n_workers: int = 1) -> ExperimentReport:
    """Execute the full (density x run) sweep; deterministic given cfg.
    ValueError unless ``n_workers`` is an integer >= 1, not a bool."""
    _require("n_workers", n_workers, _whole(n_workers, 1), "an integer >= 1")
    jobs = chunks(cfg, n_workers)
    # the pool starts every worker at once: no more than the jobs or the CPUs
    n_workers = min(n_workers, len(jobs), _cpus())
    if n_workers > 1:
        # imported here, not at the top, so a serial sweep never loads the
        # pool's multiprocessing modules; scipy is imported once here so
        # that the forked workers inherit it
        from concurrent.futures import ProcessPoolExecutor

        import scipy.sparse.csgraph  # noqa: F401

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            done = pool.map(_run_chunk, *zip(*[(cfg, d, runs) for d, runs in jobs]))
            records = [rec for chunk in done for rec in chunk]
    else:
        records = [rec for d, runs in jobs for rec in _run_chunk(cfg, d, runs)]
    return aggregate(records, cfg)


def _atomic_write(path: str, parts) -> None:
    """Write the strings of the iterable ``parts`` to ``path`` as one
    replacement: a reader sees the old file or the whole new one. The
    parts are written as they come, so a generator never holds the file."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        umask = os.umask(0)  # mkstemp makes the file 0600; give it open()'s mode
        os.umask(umask)
        with os.fdopen(fd, "w", newline="") as f:
            os.fchmod(fd, 0o666 & ~umask)
            f.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def write_report_csv(report: ExperimentReport, path: str) -> None:
    def rows():
        yield "algorithm,density,mean_error_m,std_error_m\n"
        for alg in ALL_ALGORITHMS:
            for d in report.config.densities:
                yield (f"{alg},{d},{_fmt(report.mean_error[(alg, d)])},"
                       f"{_fmt(report.std_error[(alg, d)])}\n")

    _atomic_write(path, rows())


def write_runs_csv(report: ExperimentReport, path: str) -> None:
    """One row per run and algorithm: the run's seed (``run_seed``) and the
    mean of its errors, both derived from the record as the row is written."""
    def rows():
        yield "algorithm,density,run_index,seed,run_mean_error_m\n"
        for rec in report.records:
            seed = run_seed(report.config.base_seed, rec.density, rec.run_index)
            for alg in ALL_ALGORITHMS:
                yield (f"{alg},{rec.density},{rec.run_index},{seed},"
                       f"{_fmt(float(np.mean(rec.errors[alg])))}\n")

    _atomic_write(path, rows())


def write_errors_csv(report: ExperimentReport, path: str) -> None:
    """One row per target, run and algorithm, written one run's algorithm
    at a time."""
    def blocks():
        yield "algorithm,density,run_index,node_id,error_m\n"
        for rec in report.records:
            fields = [None] * (2 * len(rec.node_ids))  # node, error, node, error, ...
            fields[::2] = rec.node_ids
            for alg in ALL_ALGORITHMS:
                fields[1::2] = rec.errors[alg].tolist()
                row = f"{alg},{rec.density},{rec.run_index},%d,%.4f\n"
                yield row * len(rec.node_ids) % tuple(fields)

    _atomic_write(path, blocks())


def read_runs_csv(path: str) -> list[dict]:
    """The rows of a runs.csv; ValueError on an algorithm outside ``ALL_ALGORITHMS``
    or a non-finite run_mean_error_m, which no chart can label or place."""
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    for row in rows:
        row["density"] = int(row["density"])
        row["run_index"] = int(row["run_index"])
        row["run_mean_error_m"] = float(row["run_mean_error_m"])
        if not math.isfinite(row["run_mean_error_m"]):
            raise ValueError(f"run_mean_error_m must be finite, got {row['run_mean_error_m']} "
                             f"(density {row['density']}, run {row['run_index']})")
        if row["algorithm"] not in ALL_ALGORITHMS:
            raise ValueError(f"unknown algorithm {row['algorithm']!r} "
                             f"(density {row['density']}, run {row['run_index']})")
    return rows
