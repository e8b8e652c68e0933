"""Benchmark of railsim's Monte Carlo sweep, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; railsim is imported from ``src/``.
Each workload (see workloads.py) writes a `rail run` config into
``.perfbench_work/`` and runs ``railsim.cli.main(["run", ...])`` on it in a
separate sweep process (sweep.py), over and over for S seconds after one
warm-up sweep. Every sweep's CSVs and report are checked (checks.py); a
sweep that exits nonzero, raises or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the mean
sweep wall time, set-up time (mean of fresh-interpreter probes of
importing railsim.cli and loading the config, one after each sweep while
the sweep process waits), peak RSS of the sweep process plus its largest
pool worker, and the pooled mean error of each algorithm. Both times are
means, not medians, because the machine switches between speed regimes
(1.4-1.8x apart) within a run: the median of a two-regime sample jumps
from one regime to the other, while the mean follows their mix (over
three ten-run sets its interquartile spread across runs was 5-30% smaller
than the median's); interleaving the probes with the sweeps gives both
times the same mix. ``--trace 1`` reports the per-layer metrics instead,
from sweeps traced by wrapping the package's module-level names
(tracing.py), alternated with untraced sweeps to give the tracing
overhead.

Output: one line per metric with its unit and better direction, a line of
machine and toolchain facts, and as the last line one JSON object with the
keys correct, attempted, failed and metrics. The same facts are written to
``.perfbench_work/<workload>-seed<N>-trace<T>.json``.

    python3 perfbench/selftest.py   # checks the benchmark itself in ~30 s
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# One BLAS/OpenMP thread per process, so --workers 2 means two busy cores.
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
DEADLINE_S = 170.0  # a run must end within 180 s
WORK_DIR = os.path.join(ROOT, ".perfbench_work")


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _start(argv: list, stdin, stdout, stderr) -> subprocess.Popen:
    """Start a Python child in its own process group."""
    env = dict(os.environ, RAIL_LOG="off", **THREAD_CAPS)
    return subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env, text=True,
                            stdin=stdin, stdout=stdout, stderr=stderr,
                            start_new_session=True)


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def setup_probe(config_path: str, deadline: float) -> float:
    """Set-up seconds of one fresh interpreter (setup_probe.py)."""
    proc = _start([os.path.join(HERE, "setup_probe.py"), config_path],
                  subprocess.DEVNULL, subprocess.PIPE, subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        _kill(proc)
        proc.communicate()
        raise RuntimeError("set-up probe overran the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
    return float(out.split()[-1])


def sweep_and_probe(job_path: str, result_path: str, config_path: str, work: str,
                    deadline: float) -> list:
    """Run the sweep process (sweep.py) to the end, timing a set-up probe
    each time it asks for one; returns the probes' seconds.
    """
    with open(os.path.join(work, "sweep.log"), "w+") as log:
        proc = _start([os.path.join(HERE, "sweep.py"), job_path, result_path],
                      subprocess.PIPE, subprocess.PIPE, log)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), _kill, (proc,))
        timer.start()
        samples = []
        try:
            for _ in proc.stdout:
                samples.append(setup_probe(config_path, deadline))
                proc.stdin.write("done\n")
                proc.stdin.flush()
        except BaseException:
            _kill(proc)
            raise
        finally:
            timer.cancel()
            proc.stdin.close()
            proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            log.seek(0)
            raise RuntimeError(f"sweep process exited with {proc.returncode}: "
                               f"{log.read().strip()[-1000:]}")
    return samples


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model}


def run(job: dict, seconds: float, trace: bool, tag: str) -> dict:
    """Measure one job; returns attempted, failed, problems, metrics
    ({name: (value, unit)}), absent names and machine facts.
    """
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(WORK_DIR, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as f:
        json.dump(job["config"], f, indent=2)
    sweep_job = {**job, "config_path": config_path, "out_dir": os.path.join(work, "out"),
                 "seconds": seconds, "trace": trace}
    if trace:  # spans are only seen in this process, so traced sweeps run serially
        sweep_job["workers"] = 1
    job_path, result_path = os.path.join(work, "job.json"), os.path.join(work, "result.json")
    with open(job_path, "w") as f:
        json.dump(sweep_job, f)

    info = {"attempted": 1, "failed": 1, "problems": [], "metrics": {}, "absent": [],
            "machine": machine()}
    try:
        setup = sweep_and_probe(job_path, result_path, config_path, work, deadline)
        with open(result_path) as f:
            res = json.load(f)
    except (OSError, RuntimeError, ValueError) as exc:
        info["problems"].append(str(exc))
        return info
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info.update(attempted=res["attempted"], failed=res["failed"], problems=res["problems"],
                metrics=metrics_from(res, trace, statistics.fmean(setup) if setup else None),
                absent=res.get("absent", []),
                sweep_s=res["sweep_s"])
    info["machine"].update(res["toolchain"])
    return info


def metrics_from(res: dict, trace: bool, setup) -> dict:
    """{name: (value, unit)} of one sweep-process result (see sweep.measure)."""
    if trace:
        return {**{name: tuple(v) for name, v in res["layers"].items()},
                "failed_frac": (res["failed"] / res["attempted"], "share")}
    err = res["mean_error"]
    return {
        "sweep_s": (statistics.fmean(res["sweep_s"]), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        **{name: (err.get(name, 0.0), "m") for name in ("rail_err_m", "dvhop_err_m", "minmax_err_m")},
    }


def report_lines(info: dict, declared: list) -> list:
    """Human-readable lines, and the closing JSON line, for one result.

    Raises ValueError if the metrics are not exactly the declared ones with
    the declared units, so the benchmark cannot drift from BENCHMARK.json.
    """
    metrics = info["metrics"]
    lines = []
    if metrics or not info["failed"]:
        names = [m["name"] for m in declared]
        if sorted(metrics) != sorted(names):
            raise ValueError(f"metrics {sorted(set(metrics) ^ set(names))} "
                             "are not both emitted and declared")
        for m in declared:
            value, unit = metrics[m["name"]]
            if unit != m["unit"]:
                raise ValueError(f"{m['name']}: unit {unit}, declared {m['unit']}")
            lines.append(f"{m['name']} = {value:.6g} {unit} ({m['better']} is better)")
    lines += [f"absent from the program: {name}" for name in info["absent"]]
    lines += [f"problem: {p}" for p in info["problems"]]
    lines.append("machine: " + json.dumps(info["machine"], sort_keys=True))
    lines.append(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        p.error("--seed must be >= 0 and --seconds in (0, 60]")
    if not os.path.isfile(os.path.join(ROOT, "src", "railsim", "cli.py")):
        print(f"perfbench: no railsim source at {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = run(workloads.job(args.workload, args.seed), args.seconds, bool(args.trace), tag)
    declared = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    lines = report_lines(info, declared)
    with open(os.path.join(WORK_DIR, tag + ".json"), "w") as f:
        json.dump(info, f, indent=1)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
