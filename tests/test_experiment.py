import csv
import hashlib
import json
import math

import numpy as np
import pytest

from railsim import geometry
from railsim.experiment import (
    ExperimentConfig,
    aggregate,
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
        with pytest.raises(ValueError):
            ExperimentConfig(algorithms=("Nope",))
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
            {"densities": (100, 100)},
            {"algorithms": ("RAIL", "RAIL")},
        ):
            with pytest.raises(ValueError):
                ExperimentConfig(**bad)

    def test_config_json_round_trip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(SMALL.to_json_dict()))
        assert ExperimentConfig.from_json_file(p) == SMALL

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
        for key, series in small_report.run_series.items():
            assert len(series) == SMALL.runs_per_density

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

    def test_algorithm_order_irrelevant(self, small_report):
        cfg = ExperimentConfig(
            densities=SMALL.densities, runs_per_density=SMALL.runs_per_density,
            base_seed=SMALL.base_seed,
            algorithms=tuple(reversed(SMALL.algorithms)),
        )
        r2 = run_experiment(cfg)
        assert r2.mean_error == small_report.mean_error

    def test_seed_changes_results(self, small_report):
        cfg = ExperimentConfig(
            densities=SMALL.densities, runs_per_density=SMALL.runs_per_density,
            base_seed=10,
        )
        r2 = run_experiment(cfg)
        assert r2.mean_error != small_report.mean_error


class TestCsv:
    def test_report_csv_shape(self, small_report, tmp_path):
        p = tmp_path / "report.csv"
        write_report_csv(small_report, str(p))
        rows = list(csv.DictReader(p.open()))
        assert len(rows) == len(SMALL.algorithms) * len(SMALL.densities)
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
            len(SMALL.algorithms) * len(SMALL.densities) * SMALL.runs_per_density
        )
        rec = small_report.records[0]
        algo = SMALL.algorithms[0]
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
            for a in SMALL.algorithms
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
            for alg in SMALL.algorithms:
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
