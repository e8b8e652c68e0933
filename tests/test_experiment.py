import csv
import dataclasses
import json
import math
import pathlib
import runpy

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from railsim import baselines, experiment, geometry, network, radio, rail
from railsim.experiment import (
    ALL_ALGORITHMS,
    CHUNK_NODES,
    N_TARGETS_MAX,
    RUN_TARGETS,
    ExperimentConfig,
    RunRecord,
    _run_chunk,
    aggregate,
    chunks,
    localization_errors,
    read_runs_csv,
    run_experiment,
    run_seed,
    scenario,
    write_errors_csv,
    write_report_csv,
    write_runs_csv,
)
from railsim.geometry import MAGNITUDE_MAX, distance
from railsim.network import (
    N_ANCHORS_MAX,
    N_NODES_MAX,
    N_PAIRS_MAX,
    GenerationFailed,
    generate_deployment,
)
from railsim.radio import SIGMA_MAX_DB, PathLossModel

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
SMALL = ExperimentConfig(densities=(60, 80), runs_per_density=3, base_seed=9)


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(SMALL)


def assert_records_equal(got, want):
    """Two sweeps' records hold the same runs, estimates and errors, bit
    for bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.density, a.run_index) == (b.density, b.run_index)
        assert a.node_ids == b.node_ids
        assert a.rail_box_contains == b.rail_box_contains
        assert a.estimates.keys() == b.estimates.keys() == a.errors.keys()
        for alg in a.estimates:
            assert np.array_equal(a.estimates[alg].x, b.estimates[alg].x)
            assert np.array_equal(a.estimates[alg].y, b.estimates[alg].y)
            assert np.array_equal(a.errors[alg], b.errors[alg])


def write_csvs(report, out_dir):
    """The three CSVs of a report, as {name: bytes}."""
    out = {}
    for name, write in (("report.csv", write_report_csv), ("runs.csv", write_runs_csv),
                        ("errors.csv", write_errors_csv)):
        write(report, str(out_dir / name))
        out[name] = (out_dir / name).read_bytes()
    return out


class TestBasics:
    def test_localization_error(self):
        zero = np.array([0.0])
        errs = localization_errors(zero, zero, np.array([3.0]), np.array([4.0]))
        assert errs.tolist() == pytest.approx([5.0])

    def test_clamp(self, monkeypatch):
        # every algorithm's estimates are clipped into the area: Min-Max's,
        # moved far past its left and top edges, land on them
        min_max_all = baselines.min_max_all

        def outside(*args):
            x, y, inverted = min_max_all(*args)
            return x - 1e3, y + 1e3, inverted

        monkeypatch.setattr(baselines, "min_max_all", outside)
        est = _run_chunk(SMALL, 60, (0,))[0].estimates["MinMax"]
        assert (est.x == 0.0).all() and (est.y == SMALL.height).all()

    def test_one_anchor_cut_for_all_three(self, monkeypatch):
        # the chunk's anchors are cut once as (anchor, run) arrays, and RAIL,
        # Min-Max and DV-hop each take those same two arrays
        seen = {}
        for module, name in ((rail, "_localize"), (baselines, "min_max_all"),
                             (baselines, "rssi_dv_hop_all")):
            def spy(ax, ay, *rest, fn=getattr(module, name), name=name):
                seen[name] = ax, ay
                return fn(ax, ay, *rest)
            monkeypatch.setattr(module, name, spy)
        _run_chunk(SMALL, 60, (0, 1))
        (ax, ay), *others = seen.values()
        assert len(others) == 2 and all(x is ax and y is ay for x, y in others)
        assert ax.shape == ay.shape == (SMALL.n_anchors, 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(runs_per_density=0)
        with pytest.raises(ValueError):
            ExperimentConfig(densities=())
        for bad in (
            {"n_anchors": 2},
            {"width": 0.0},
            {"height": -5.0},
            {"comm_range": 0.0},
            {"comm_range": math.nan},
            {"sigma": -1.0},
            {"densities": (100, 0)},
            {"n_anchors": 3.5},
            {"runs_per_density": 1.5},
            {"base_seed": 1.5},
            {"base_seed": -1},
            {"densities": (20.7,)},
            {"densities": (True,)},
            {"width": math.inf},
            {"height": math.nan},
            {"comm_range": math.inf},
            {"sigma": math.inf},
            {"sigma": math.nan},
            {"sigma": 100.5},
            {"sigma": 3000.0},
            {"sigma": True},
            {"width": True, "height": True},
            {"comm_range": True},
            {"sigma": "4"},
            {"densities": (100, 100)},
            {"n_anchors": N_ANCHORS_MAX + 1},
            {"n_anchors": 2000},
            {"densities": (100, N_NODES_MAX + 1)},
            {"densities": (10**9,)},
            # all 12.5 M pairs of 5000 nodes in range: R at or past the diagonal
            {"densities": (N_NODES_MAX,), "comm_range": math.hypot(50, 50)},
            {"densities": (100, N_NODES_MAX), "comm_range": 1000.0},
            {"densities": (N_NODES_MAX,), "width": 30.0, "height": 30.0},
            {"width": 1e300, "height": 1e300, "comm_range": 1e300},  # NaN expectation
            {"width": 1e-300, "height": 1e-300},  # 2 * width * height underflows to 0
            # one past the target ceiling: 800 targets in 3 runs, then 8 in 1,
            # per runs_per_density
            {"runs_per_density": N_TARGETS_MAX // (800 + 3 * RUN_TARGETS) + 1},
            {"densities": (8,), "runs_per_density": N_TARGETS_MAX // (8 + RUN_TARGETS) + 1},
            {"runs_per_density": 10**12},
            # too large for a float: refused by the rules, not an OverflowError
            {"comm_range": 10**400}, {"width": 10**400}, {"sigma": 10**400},
        ):
            with pytest.raises(ValueError):
                ExperimentConfig(**bad)
        # every sweep scores all three algorithms: a config may name them,
        # in ALL_ALGORITHMS order, and nothing else
        for algorithms in ([], ["Nope"], ["RAIL"], ["RAIL", "RAIL"],
                           ["RAIL", "MinMax", "RssiDvHop", "RAIL"],
                           ["RssiDvHop", "MinMax", "RAIL"], "RAIL", None):
            with pytest.raises(ValueError, match="algorithms must be"):
                ExperimentConfig.from_json_dict({"algorithms": algorithms})

    def test_ceilings_accepted(self):
        # the ceilings themselves load (test_config_validation rejects one
        # past them), and every config in the repo, the benchmark's
        # workloads included, lies within them
        ExperimentConfig(n_anchors=N_ANCHORS_MAX, densities=(1, N_NODES_MAX))
        ExperimentConfig(densities=(N_NODES_MAX,))
        for nodes in (N_NODES_MAX + N_ANCHORS_MAX, N_NODES_MAX + 3):  # on 50 x 50 m, R = 10
            assert 1.5e6 < network.expected_pairs(nodes, 50.0, 50.0, 10.0) <= N_PAIRS_MAX
        # the target ceiling in runs of 800 targets (3 densities) and of 8
        ExperimentConfig(runs_per_density=N_TARGETS_MAX // (800 + 3 * RUN_TARGETS))
        ExperimentConfig(densities=(8,), runs_per_density=N_TARGETS_MAX // (8 + RUN_TARGETS))
        configs = pathlib.Path(__file__).resolve().parents[1] / "configs"
        for path in configs.glob("*.json"):
            cfg = ExperimentConfig.from_json_file(path)
            assert cfg.n_anchors <= N_ANCHORS_MAX and max(cfg.densities) <= N_NODES_MAX
            assert network.expected_pairs(max(cfg.densities) + cfg.n_anchors, cfg.width,
                                          cfg.height, cfg.comm_range) <= N_PAIRS_MAX
            assert cfg.targets + RUN_TARGETS * cfg.runs <= N_TARGETS_MAX
        workloads = runpy.run_path(str(CONFIGS.parent / "perfbench" / "workloads.py"))
        for spec in workloads["WORKLOADS"].values():
            cfg = ExperimentConfig.from_json_dict(spec["config"])
            assert cfg.targets + RUN_TARGETS * cfg.runs <= N_TARGETS_MAX

    @pytest.mark.parametrize("owner, name, patched, at, past, config, library", [
        (radio, "SIGMA_MAX_DB", None, SIGMA_MAX_DB, math.nextafter(SIGMA_MAX_DB, math.inf),
         lambda v: {"sigma": v}, lambda v, rng: PathLossModel(sigma=v)),
        (network, "N_ANCHORS_MAX", None, N_ANCHORS_MAX, N_ANCHORS_MAX + 1,
         lambda v: {"n_anchors": v}, lambda v, rng: generate_deployment(50, 50, 0, v, 10, rng)),
        # small limits, so that no case allocates at scale: 100 unknowns,
        # and the pairs that 100 unknowns and 3 anchors expect on 50 x 50 m
        (network, "N_NODES_MAX", 100, 100, 101, lambda v: {"densities": (v,)},
         lambda v, rng: generate_deployment(50, 50, v, 3, 10, rng)),
        (network, "N_PAIRS_MAX", network.expected_pairs(103, 50.0, 50.0, 10.0), 100, 101,
         lambda v: {"densities": (v,)}, lambda v, rng: generate_deployment(50, 50, v, 3, 10, rng)),
        (geometry, "MAGNITUDE_MAX", None, MAGNITUDE_MAX, math.nextafter(MAGNITUDE_MAX, math.inf),
         lambda v: {"width": v}, lambda v, rng: generate_deployment(v, 50, 10, 3, 10, rng)),
    ], ids=["sigma", "anchors", "nodes", "pairs", "side"])
    def test_config_and_library_agree_on_limit(self, owner, name, patched, at, past, config,
                                               library, monkeypatch):
        # each limit has one owner, which the config calls: at the limit both
        # accept, one past it both refuse, the library before any draw
        if patched is not None:
            monkeypatch.setattr(owner, name, patched)
        monkeypatch.setattr(network, "MAX_ATTEMPTS", 1)
        ExperimentConfig(**config(at))
        try:
            library(at, np.random.default_rng(1))
        except GenerationFailed:  # accepted, then sampled once without success
            pass
        with pytest.raises(ValueError):
            ExperimentConfig(**config(past))
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            library(past, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("densities", [[100, 200], np.array([100, 200]),
                                           np.array([100, 200], dtype=np.uint16)],
                             ids=["list", "array", "uint16-array"])
    def test_densities_kept_as_int_tuple(self, densities):
        # a list or an array is stored as a tuple of Python ints, so the
        # frozen config hashes and equals the tuple config
        cfg = ExperimentConfig(densities=densities)
        assert cfg.densities == (100, 200) and all(type(d) is int for d in cfg.densities)
        assert cfg == ExperimentConfig(densities=(100, 200))
        assert hash(cfg) == hash(ExperimentConfig(densities=(100, 200)))

    @pytest.mark.parametrize("densities", [
        [100, 100], [100, 0], [100, 2.0], [True], np.array([100, 100]),
        np.array([100.0, 200.0]), np.array([True, False]), np.array([[100, 200]]),
        np.array([], dtype=int), np.array(100), 100, {100: 1},
    ])
    def test_bad_densities_rule_message(self, densities):
        # each element checked as given: an array's refused by the rule, not
        # by numpy's ambiguous truth value
        with pytest.raises(ValueError,
                           match=r"^densities must be distinct integers in \[1, 5000\], got "):
            ExperimentConfig(densities=densities)

    def test_expected_pairs(self):
        # n^2 min(pi R^2, W H) / (2 W H), for n nodes anchors included
        assert network.expected_pairs(200, 40.0, 25.0, 5.0) == \
            pytest.approx(200**2 * math.pi * 25 / 2000)
        # a range past the diagonal puts every pair in range
        assert network.expected_pairs(100, 50.0, 50.0, 71.0) == pytest.approx(100**2 / 2)
        with pytest.raises(ValueError, match="node pairs"):
            ExperimentConfig(densities=(N_NODES_MAX,), comm_range=71.0)

    def test_sigma_ceiling_runs(self):
        # sigma in the thousands of dB overflowed the path-loss inverse mid
        # sweep; the ceiling is accepted and every run scores finite errors
        report = run_experiment(ExperimentConfig(densities=(60,), runs_per_density=3,
                                                 sigma=SIGMA_MAX_DB))
        for rec in report.records:
            assert all(np.isfinite(errs).all() for errs in rec.errors.values())

    def test_config_json_round_trip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dataclasses.asdict(SMALL)))
        assert ExperimentConfig.from_json_file(p) == SMALL
        # the one accepted algorithms key changes nothing
        named = {**dataclasses.asdict(SMALL), "algorithms": ["RAIL", "MinMax", "RssiDvHop"]}
        assert ExperimentConfig.from_json_dict(named) == SMALL

    def test_run_seed_distinct(self):
        seeds = {run_seed(1, d, r) for d in (100, 200) for r in range(10)}
        assert len(seeds) == 20


class TestAggregate:
    def test_pooled_stats_match_raw_errors(self, small_report):
        algo, dens = "RAIL", SMALL.densities[0]
        errs = []
        for r in small_report.records:
            if r.density == dens:
                errs.extend(r.errors[algo])
        assert small_report.mean_error[(algo, dens)] == pytest.approx(
            float(np.mean(errs)), abs=1e-12
        )
        assert small_report.std_error[(algo, dens)] == pytest.approx(
            float(np.std(errs)), abs=1e-12
        )

    def test_pure_over_records(self, small_report):
        again = aggregate(small_report.records, SMALL)
        assert again.mean_error == small_report.mean_error
        assert again.std_error == small_report.std_error

    def test_run_series_length(self, small_report, tmp_path):
        # one runs.csv row per algorithm and run: the run's seed and the mean
        # of its errors, derived from the record as the row is written
        assert len(small_report.records) == len(SMALL.densities) * SMALL.runs_per_density
        p = tmp_path / "runs.csv"
        write_runs_csv(small_report, str(p))
        rows = [tuple(row.values()) for row in csv.DictReader(p.open())]
        assert rows == [
            (alg, str(rec.density), str(rec.run_index),
             str(run_seed(SMALL.base_seed, rec.density, rec.run_index)),
             f"{float(np.mean(rec.errors[alg])):.4f}")
            for rec in small_report.records for alg in ALL_ALGORITHMS]

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], SMALL)


class TestDeterminism:
    def test_repeat_identical(self, small_report):
        r2 = run_experiment(SMALL)
        assert r2.mean_error == small_report.mean_error
        assert_records_equal(r2.records, small_report.records)

    def test_parallel_matches_serial(self, small_report):
        r2 = run_experiment(SMALL, n_workers=2)
        assert r2.mean_error == small_report.mean_error
        assert r2.std_error == small_report.std_error

    @pytest.mark.parametrize("n_workers", [0, -1, True, False, 1.5, 2.0, "2", None])
    def test_bad_worker_count_rejected(self, n_workers, monkeypatch):
        # refused before any chunk runs, not run serially or as a bare TypeError
        def no_chunk(*args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(experiment, "_run_chunk", no_chunk)
        with pytest.raises(ValueError,
                           match=f"n_workers must be an integer >= 1, got {n_workers!r}$"):
            run_experiment(SMALL, n_workers=n_workers)

    def test_pool_bounded_by_job_count(self, monkeypatch):
        # the pool starts all its workers at the first submit, so it gets no
        # more than there are runs or CPUs, and a single run or CPU stays
        # serial; the chunks still follow the requested count
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # run_experiment imports the pool from here when it opens one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiment, "_cpus", lambda: 64)
        two_runs = ExperimentConfig(densities=(60,), runs_per_density=2)
        assert len(run_experiment(two_runs, n_workers=500).records) == 2
        assert len(run_experiment(SMALL, n_workers=2).records) == 6
        one_run = ExperimentConfig(densities=(60,), runs_per_density=1)
        assert len(run_experiment(one_run, n_workers=8).records) == 1
        assert sizes == [2, 2]

        cut = []
        monkeypatch.setattr(experiment, "chunks", lambda cfg, n: cut.append(n) or chunks(cfg, n))
        many_runs = ExperimentConfig(densities=(60,), runs_per_density=6)
        monkeypatch.setattr(experiment, "_cpus", lambda: 3)
        assert len(run_experiment(many_runs, n_workers=5000).records) == 6
        monkeypatch.setattr(experiment, "_cpus", lambda: 1)
        assert len(run_experiment(many_runs, n_workers=5000).records) == 6
        assert cut == [5000, 5000]
        assert sizes == [2, 2, 3]

    def test_seed_changes_results(self, small_report):
        cfg = ExperimentConfig(
            densities=SMALL.densities, runs_per_density=SMALL.runs_per_density,
            base_seed=10,
        )
        r2 = run_experiment(cfg)
        assert r2.mean_error != small_report.mean_error


class TestChunks:
    """A sweep scores its runs in chunks of one density: contiguous runs,
    within CHUNK_NODES nodes, at least one per worker, largest density
    first; how they are cut never changes a record."""

    @pytest.mark.parametrize("densities, runs, workers", [
        ((100, 200, 500), 8, 1), ((100, 200, 500), 8, 2), ((200,), 40, 1),
        ((60, 150), 5, 3), ((4500,), 1, 2), ((60,), 2, 500),
    ])
    def test_cover_each_run_once(self, densities, runs, workers):
        cfg = ExperimentConfig(densities=densities, runs_per_density=runs, comm_range=5.0)
        got = chunks(cfg, workers)
        assert [d for d, _ in got] == sorted((d for d, _ in got), reverse=True)
        for d in densities:
            mine = [r for dd, r in got if dd == d]
            assert [i for r in mine for i in r] == list(range(runs))
            assert len(mine) >= min(workers, runs)
            sizes = [len(r) for r in mine]
            assert max(sizes) - min(sizes) <= 1
            # the fewest chunks of at most CHUNK_NODES nodes, or one per worker
            fewest = -(-runs // max(1, CHUNK_NODES // (d + cfg.n_anchors)))
            assert len(mine) == min(runs, max(workers, fewest))

    def test_paper_sweep_chunks(self):
        cfg = ExperimentConfig.from_json_file(CONFIGS / "noisy6.json")
        assert [len(r) for _, r in chunks(cfg)] == [8] * 5
        cfg = ExperimentConfig.from_json_file(CONFIGS / "table2.json")
        assert [len(r) for d, r in chunks(cfg) if d == 500] == [2] + [3] * 16


@st.composite
def small_configs(draw):
    """Small sweeps of 3-6 anchors on non-square areas, sigma in [0, 100]
    dB, whose range gives the sparsest density about ten neighbors."""
    width = draw(st.floats(40.0, 90.0))
    height = draw(st.floats(30.0, 60.0))
    densities = draw(st.lists(st.integers(30, 90), min_size=1, max_size=2, unique=True))
    degree = draw(st.floats(9.0, 14.0))
    return ExperimentConfig(
        width=width, height=height, densities=tuple(densities),
        n_anchors=draw(st.integers(3, 6)),
        comm_range=math.sqrt(degree * width * height / (math.pi * min(densities))),
        sigma=draw(st.floats(0.0, 100.0)), runs_per_density=draw(st.integers(1, 4)),
        base_seed=draw(st.integers(0, 2**16)))


def same_record(a, b) -> bool:
    """Every RunRecord field equal, the arrays bit for bit."""
    def arrays(rec):
        return [(alg, rec.estimates[alg].tobytes(), rec.errors[alg].tobytes())
                for alg in rec.estimates]

    return ((a.density, a.run_index, a.node_ids, a.rail_box_contains)
            == (b.density, b.run_index, b.node_ids, b.rail_box_contains)
            and list(a.errors) == list(b.errors) and arrays(a) == arrays(b))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(small_configs())
def test_chunking_never_changes_a_record(cfg):
    # one chunk per density, chunks of one run, and the pool's chunks
    runs = range(cfg.runs_per_density)
    single = [_run_chunk(cfg, d, (r,))[0] for d in cfg.densities for r in runs]
    key = {(rec.density, rec.run_index): rec for rec in single}
    whole = [rec for d in cfg.densities for rec in _run_chunk(cfg, d, runs)]
    pooled = run_experiment(cfg, n_workers=2).records
    for rec in whole + pooled:
        assert same_record(rec, key[rec.density, rec.run_index])
    assert len(whole) == len(pooled) == len(single)


@st.composite
def run_configs(draw):
    """One-run configs of 3-6 anchors and 10-120 unknowns at a mean degree
    of about 6 to 20, sides up to 5:1 either way, sigma in [0, 100] dB and
    any seed."""
    anchors, n = draw(st.integers(3, 6)), draw(st.integers(10, 120))
    comm_range = draw(st.floats(5.0, 20.0))
    area = (n + anchors) * math.pi * comm_range**2 / draw(st.floats(6.0, 20.0))
    width = math.sqrt(area * draw(st.floats(0.2, 5.0)))
    return ExperimentConfig(
        width=width, height=area / width, densities=(n,), n_anchors=anchors,
        comm_range=comm_range, sigma=draw(st.floats(0.0, 100.0)), runs_per_density=1,
        base_seed=draw(st.integers(min_value=0)))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(run_configs())
def test_a_run_gives_finite_in_area_estimates(cfg):
    # a loaded config's run either fails to place its deployment or scores
    # every target of every algorithm inside the area (a NaN is in no area)
    (n,) = cfg.densities
    try:
        rec = _run_chunk(cfg, n, (0,))[0]
    except GenerationFailed:
        reject()
    assert list(rec.estimates) == list(ALL_ALGORITHMS)
    for est in rec.estimates.values():
        assert ((0 <= est.x) & (est.x <= cfg.width)).all()
        assert ((0 <= est.y) & (est.y <= cfg.height)).all()
    case = rail.localize_all(*scenario(cfg, n, 0)).case
    assert ((0 <= case) & (case < len(rail.CASES))).all()


class TestCsv:
    def test_report_csv_shape(self, small_report, tmp_path):
        p = tmp_path / "report.csv"
        write_report_csv(small_report, str(p))
        rows = list(csv.DictReader(p.open()))
        assert len(rows) == len(ALL_ALGORITHMS) * len(SMALL.densities)
        assert set(rows[0]) == {
            "algorithm", "density", "mean_error_m", "std_error_m",
        }
        for r in rows:
            # exactly four decimal places
            assert len(r["mean_error_m"].split(".")[1]) == 4

    def test_runs_csv_round_trip(self, small_report, tmp_path):
        p = tmp_path / "runs.csv"
        write_runs_csv(small_report, str(p))
        rows = read_runs_csv(str(p))
        assert len(rows) == (
            len(ALL_ALGORITHMS) * len(SMALL.densities) * SMALL.runs_per_density
        )
        rec = small_report.records[0]
        algo = ALL_ALGORITHMS[0]
        first = next(
            r for r in rows
            if r["density"] == rec.density
            and r["run_index"] == rec.run_index
            and r["algorithm"] == algo
        )
        assert first["run_mean_error_m"] == pytest.approx(
            float(np.mean(rec.errors[algo])), abs=5e-5
        )
        assert int(first["seed"]) == run_seed(SMALL.base_seed, rec.density, rec.run_index)

    def test_errors_csv_one_row_per_node(self, small_report, tmp_path):
        p = tmp_path / "errors.csv"
        write_errors_csv(small_report, str(p))
        rows = list(csv.DictReader(p.open()))
        want = sum(
            len(r.errors[a]) for r in small_report.records
            for a in ALL_ALGORITHMS
        )
        assert len(rows) == want
        assert all(math.isfinite(float(r["error_m"])) for r in rows)

    def test_byte_identical_across_runs(self, small_report, tmp_path):
        # the records come back from the pool's workers unpickled
        pooled = run_experiment(SMALL, n_workers=2)
        assert_records_equal(pooled.records, small_report.records)
        (tmp_path / "serial").mkdir()
        (tmp_path / "pooled").mkdir()
        assert write_csvs(pooled, tmp_path / "pooled") == write_csvs(
            small_report, tmp_path / "serial")


class TestRecords:
    def test_all_estimates_in_arena(self, small_report):
        for rec in small_report.records:
            for pts in rec.estimates.values():
                for p in pts:
                    assert 0 <= p.x <= SMALL.width
                    assert 0 <= p.y <= SMALL.height

    def test_errors_match_estimates(self, small_report):
        for rec in small_report.records:
            nodes = scenario(SMALL, rec.density, rec.run_index)[0].nodes
            truths = [nodes[t] for t in rec.node_ids]
            for alg, pts in rec.estimates.items():
                for truth, est, err in zip(truths, pts, rec.errors[alg]):
                    assert err == distance(truth, est)

    def test_records_hold_what_the_run_measured(self):
        # a run's seed and its mean errors are derived where runs.csv is written
        assert [f.name for f in dataclasses.fields(RunRecord)] == [
            "density", "run_index", "node_ids", "estimates", "errors", "rail_box_contains"]

    def test_writers_stream(self, small_report, tmp_path, monkeypatch):
        # each writer hands _atomic_write an iterator of its rows, never a
        # list or a string of its whole file
        atomic_write, streamed = experiment._atomic_write, []

        def spy(path, parts):
            streamed.append(iter(parts) is parts)
            atomic_write(path, parts)

        monkeypatch.setattr(experiment, "_atomic_write", spy)
        write_csvs(small_report, tmp_path)
        assert streamed == [True] * 3

    def test_records_hold_arrays(self, small_report):
        for rec in small_report.records:
            for alg in ALL_ALGORITHMS:
                est, err = rec.estimates[alg], rec.errors[alg]
                assert est.dtype.names == ("x", "y")
                assert est.shape == err.shape == (len(rec.node_ids),)
                assert est.x.dtype == est.y.dtype == err.dtype == np.float64

    def test_sweep_builds_no_points(self, monkeypatch, tmp_path):
        calls = []
        post_init = geometry.Point.__post_init__

        def counting(self):
            calls.append(1)
            post_init(self)

        monkeypatch.setattr(geometry.Point, "__post_init__", counting)
        write_csvs(run_experiment(ExperimentConfig(
            densities=(60, 120), n_anchors=4, sigma=2.0, runs_per_density=2)), tmp_path)
        assert len(calls) == 0
        geometry.Point(0.0, 0.0)  # the counter sees every Point
        assert len(calls) == 1

    def test_box_contains_counts(self, small_report):
        for rec in small_report.records:
            assert 0 <= rec.rail_box_contains <= len(rec.errors["RAIL"])
