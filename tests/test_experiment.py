import csv
import dataclasses
import hashlib
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from railsim import experiment, geometry, rail
from railsim.experiment import (
    ALL_ALGORITHMS,
    CHUNK_NODES,
    N_ANCHORS_MAX,
    N_NODES_MAX,
    N_PAIRS_MAX,
    SIGMA_MAX_DB,
    ExperimentConfig,
    _run_chunk,
    _run_single,
    aggregate,
    chunks,
    clamp_all,
    localization_errors,
    read_runs_csv,
    run_experiment,
    run_seed,
    scenario,
    write_errors_csv,
    write_report_csv,
    write_runs_csv,
)
from railsim.geometry import distance
from railsim.network import GenerationFailed

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
SMALL = ExperimentConfig(densities=(60, 80), runs_per_density=3, base_seed=9)

# the reduced sweeps whose outputs TestCsv pins
PIN_BASE = {"densities": (60, 120), "runs_per_density": 3, "base_seed": 4}
NOISY6_SMALL = {"densities": (200,), "n_anchors": 6, "sigma": 4.0, "runs_per_density": 4}


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(SMALL)


def assert_records_equal(got, want):
    """Two sweeps' records hold the same runs, estimates and errors, bit
    for bit."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.density, a.run_index, a.seed) == (b.density, b.run_index, b.seed)
        assert a.node_ids == b.node_ids
        assert a.rail_box_contains == b.rail_box_contains
        assert a.run_mean_error == b.run_mean_error
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

    def test_clamp(self):
        x, y = clamp_all(np.array([-3.0, 12.0]), np.array([60.0, 7.0]), 50, 50)
        assert (x.tolist(), y.tolist()) == ([0, 12], [50, 7])

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
        # past them), and every config in the repo lies within them
        ceiling = ExperimentConfig(n_anchors=N_ANCHORS_MAX, densities=(1, N_NODES_MAX))
        assert 1.5e6 < ceiling.expected_pairs <= N_PAIRS_MAX  # 5000 + 50 nodes, R = 10
        assert 1.5e6 < ExperimentConfig(densities=(N_NODES_MAX,)).expected_pairs <= N_PAIRS_MAX
        configs = pathlib.Path(__file__).resolve().parents[1] / "configs"
        for path in configs.glob("*.json"):
            cfg = ExperimentConfig.from_json_file(path)
            assert cfg.n_anchors <= N_ANCHORS_MAX and max(cfg.densities) <= N_NODES_MAX
            assert cfg.expected_pairs <= N_PAIRS_MAX

    def test_expected_pairs(self):
        # n^2 min(pi R^2, W H) / (2 W H) for the largest density plus the anchors
        cfg = ExperimentConfig(width=40.0, height=25.0, densities=(90, 197), comm_range=5.0)
        assert cfg.expected_pairs == pytest.approx(200**2 * math.pi * 25 / 2000)
        # a range past the diagonal puts every pair in range
        assert ExperimentConfig(densities=(97,), comm_range=71.0).expected_pairs == \
            pytest.approx(100**2 / 2)
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

    def test_run_series_length(self, small_report):
        # one run mean per algorithm and run, equal to the mean of its errors
        assert len(small_report.records) == len(SMALL.densities) * SMALL.runs_per_density
        for rec in small_report.records:
            assert rec.run_mean_error.keys() == rec.errors.keys() == set(ALL_ALGORITHMS)
            for alg, errs in rec.errors.items():
                assert rec.run_mean_error[alg] == float(np.mean(errs))

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

    def test_pool_bounded_by_job_count(self, monkeypatch):
        # the pool starts all its workers at the first submit, so it gets no
        # more than there are runs, and a single run stays serial
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

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
        two_runs = ExperimentConfig(densities=(60,), runs_per_density=2)
        assert len(run_experiment(two_runs, n_workers=500).records) == 2
        assert len(run_experiment(SMALL, n_workers=2).records) == 6
        one_run = ExperimentConfig(densities=(60,), runs_per_density=1)
        assert len(run_experiment(one_run, n_workers=8).records) == 1
        assert sizes == [2, 2]

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

    return ((a.density, a.run_index, a.seed, a.node_ids, a.rail_box_contains)
            == (b.density, b.run_index, b.seed, b.node_ids, b.rail_box_contains)
            and [(k, v.hex()) for k, v in a.run_mean_error.items()]
            == [(k, v.hex()) for k, v in b.run_mean_error.items()]
            and list(a.errors) == list(b.errors) and arrays(a) == arrays(b))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(small_configs())
def test_chunking_never_changes_a_record(cfg):
    # one chunk per density, chunks of one run, and the pool's chunks
    runs = range(cfg.runs_per_density)
    single = [_run_single(cfg, d, r) for d in cfg.densities for r in runs]
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
        rec = _run_single(cfg, n, 0)
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
            rec.run_mean_error[algo], abs=5e-5
        )
        assert int(first["seed"]) == rec.seed

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

    # sha256 of (report.csv, runs.csv, errors.csv) of reduced sweeps, captured
    # before the shortest-path layer was rewritten on scipy (sigma 0 and 2) and
    # before the run pipeline became array-native (6 anchors, sigma 4); any
    # change to what a run computes shows here
    @pytest.mark.parametrize("overrides, digests", [
        pytest.param(
            {"sigma": 0.0},
            ("847715c6ae8ff3c38ab9c7a487e9164a82d683db590dc9534e54f1f0290fdddc",
             "b694d53eb43a88daf0a8f1dc6aa87949dad3e5f60942e0f771f57e99821d6511",
             "80cd06c6d52dffb0454bda00661005ad680139b36bae33c5d2007e4f3822a6fa"),
            id="0.0-digests0"),
        pytest.param(
            {"sigma": 2.0},
            ("59337e97f6e8e6587a4464738ad9c252913275e6d306b468336b15f74303fa46",
             "7cbc7b4fec97b54dcb6637c677a9860e7e3369b62c57a61e04520210c1458013",
             "b9503c5228d4270a4902ecbbed4e0fb733d145dab3c58f07b8da2be4cf26d2e1"),
            id="2.0-digests1"),
        pytest.param(
            NOISY6_SMALL,
            ("de58fa17306341669742829e2b0a4d2a06a965f32a7c52489b7e3edee3a997c2",
             "1a4d8a163b30a6dd96ecb30c5094ee29d1701c815e7c19559b85f9c4eb895d37",
             "3c9367d09186c1f73a11c03fdb688de9949392d11b7c54b1a1125fce49e83093"),
            id="4.0-6anchors"),
    ])
    def test_pinned_digests(self, overrides, digests, tmp_path):
        cfg = ExperimentConfig(**{**PIN_BASE, **overrides})
        csvs = write_csvs(run_experiment(cfg), tmp_path)
        got = tuple(hashlib.sha256(data).hexdigest() for data in csvs.values())
        assert got == digests

    # the CSVs round to 4 decimals; these pin every estimate and error to the
    # last bit (float.hex), captured before the run pipeline became
    # array-native
    @pytest.mark.parametrize("overrides, digest", [
        pytest.param(
            {"densities": (100, 500), "runs_per_density": 2},
            "7ff2696894e89d05cc4439231feb02685456b026c4e31c7039575d7bc596f3c2",
            id="sigma0-500nodes"),
        pytest.param(
            NOISY6_SMALL,
            "5de454e0bfe300adbf293ac838048a4e91a8b99f5c577ff337d3c9968d7065e7",
            id="sigma4-6anchors"),
        # a non-square area with 4 anchors: targets of one run use different
        # anchor triples
        pytest.param(
            {"width": 80.0, "height": 30.0, "n_anchors": 4, "sigma": 2.0},
            "c75bb3bf0d947d60043e0bbe2872e8ca1e10f51d193f4b96bd917174fcd7bb49",
            id="sigma2-4anchors-80x30"),
    ])
    def test_pinned_estimates(self, overrides, digest):
        report = run_experiment(ExperimentConfig(**{**PIN_BASE, **overrides}))
        h = hashlib.sha256()
        for rec in report.records:
            for alg in sorted(rec.estimates):
                for p, err in zip(rec.estimates[alg], rec.errors[alg]):
                    h.update(f"{alg} {rec.density} {rec.run_index} "
                             f"{p.x.hex()} {p.y.hex()} {err.hex()}\n".encode())
            h.update(f"box {rec.rail_box_contains}\n".encode())
        assert h.hexdigest() == digest

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
