"""Sweep process of the benchmark: runs `rail run` on one generated config
again and again for a given number of seconds, checks every sweep's output,
and writes what it measured as JSON.

    python3 perfbench/sweep.py JOB.json RESULT.json

JOB.json holds the workload job (see workloads.job) plus ``config_path``,
``out_dir``, ``seconds`` and ``trace``. run.py starts this process with
BLAS/OpenMP thread counts already set to 1; it runs as its own process so
that its peak RSS and its pool workers' are its own.

Untraced, the process asks run.py for a set-up probe after every timed
sweep, by writing a line to its standard output, and waits until run.py
answers on its standard input; so the probes are spread over the run and
see the same machine as the sweeps, and their interpreters are run.py's
children, not this process's. The program's own prints go to standard
error.
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from railsim import cli  # noqa: E402

MIN_TIMED = 3  # timed sweeps (traced: sweep pairs), however short --seconds is


class Sweeper:
    """Runs one job's sweeps and keeps the tallies across them."""

    def __init__(self, job: dict):
        self.job = job
        self.golden = checks.load_golden(job["golden"]) if job["golden"] else None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.mean_error = {}
        self.report = None
        self._first_digests = None

    def run_cli(self) -> int:
        """One `rail run` of the job; the sweep that every mode times."""
        return cli.main(["run", "--config", self.job["config_path"],
                         "--out", self.job["out_dir"], "--workers", str(self.job["workers"])])

    def sweep(self, tracer=None) -> float:
        """Run, time and check one sweep; returns its wall time in seconds."""
        self.attempted += 1
        self.report = None  # the last sweep's report is not the program's memory
        captured = []
        run_experiment = cli.run_experiment

        def capture(*args, **kwargs):
            captured.append(run_experiment(*args, **kwargs))
            return captured[-1]

        cli.run_experiment = capture
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            code = self.run_cli()
        except Exception as exc:  # a crash is a failed sweep, not a crashed benchmark
            code = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
            cli.run_experiment = run_experiment
        self.report = captured[-1] if captured else None
        problems, mean_error = checks.check_sweep(
            code, self.job["config"], self.job["out_dir"], self.report, self.golden)
        if not problems:
            found = checks.digests(self.job["out_dir"])
            if self._first_digests is None:
                self._first_digests = found
            elif found != self._first_digests:
                problems.append("outputs differ from the first sweep of this run")
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
        else:
            self.mean_error = mean_error
        return elapsed


def pickle_round_trip(records) -> tuple[float, float]:
    """Mean pickled size (bytes) and dumps+loads time (ms) of one run's
    record: what the process pool pays per run at --workers > 1.
    """
    sizes, secs = [], []
    for rec in records:
        start = time.perf_counter()
        blob = pickle.dumps(rec)
        pickle.loads(blob)
        secs.append(time.perf_counter() - start)
        sizes.append(len(blob))
    return statistics.fmean(sizes), 1000.0 * statistics.fmean(secs)


def measure(sw: Sweeper, seconds: float, traced: bool, probe=None) -> dict:
    """Warm up with one sweep, then time sweeps for ``seconds``; traced runs
    alternate untraced and traced sweeps so that both see the same machine,
    untraced ones call ``probe`` (if given) after each sweep.
    """
    sw.sweep()
    plain_s, traced_s = [], []
    tracer = tracing.Tracer() if traced else None
    end = time.perf_counter() + seconds
    step = 0.0  # wall time of the last iteration; stop before one would overrun
    while len(plain_s) < MIN_TIMED or time.perf_counter() + step < end:
        start = time.perf_counter()
        plain_s.append(sw.sweep())
        if traced:
            traced_s.append(sw.sweep(tracer))
        elif probe is not None:
            probe()
        step = time.perf_counter() - start
    result = {"attempted": sw.attempted, "failed": sw.failed, "problems": sw.problems[:20],
              "sweep_s": plain_s}
    if not traced:
        result["mean_error"] = sw.mean_error
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = (self_kb + child_kb) / 1024.0
        return result

    cfg = sw.job["config"]
    runs_per_sweep = cfg["runs_per_density"] * len(cfg["densities"])
    layers = tracing.layer_metrics(tracer, runs_per_sweep * len(traced_s))
    records = sw.report.records if sw.report is not None else []
    targets = sum(len(r.node_ids) for r in records)
    held = sum(r.rail_box_contains for r in records)
    paths = [os.path.join(sw.job["out_dir"], n) for n in checks.CSV_FILES]
    csv_bytes = sum(os.path.getsize(p) for p in paths if os.path.exists(p))
    result_bytes, ipc_ms = pickle_round_trip(records) if records else (0.0, 0.0)
    layers.update({
        "rail.box_hold_frac": (held / targets if targets else 0.0, "share"),
        "experiment.csv_bytes": (csv_bytes / runs_per_sweep, "bytes"),
        "experiment.pool.result_bytes": (result_bytes, "bytes"),
        "experiment.pool.ipc_ms": (ipc_ms, "ms"),
        "trace.overhead_frac": (statistics.median(traced_s) / statistics.median(plain_s),
                                "ratio"),
    })
    result["layers"] = layers
    result["absent"] = tracer.absent
    return result


def toolchain() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv) -> int:
    job_path, result_path = argv
    with open(job_path) as f:
        job = json.load(f)
    control = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def probe():
        control.write("probe\n")
        control.flush()
        if sys.stdin.readline() != "done\n":
            raise RuntimeError("set-up probe failed")

    result = measure(Sweeper(job), job["seconds"], job["trace"], probe)
    result["toolchain"] = toolchain()
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
