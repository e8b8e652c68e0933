"""Self-test of the benchmark on tiny sizes of each workload; about 30 s.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and the code agree; that tracing tolerates a
name the program lacks and restores every name it wrapped; that every
declared metric is emitted with its unit and better direction on every
workload, traced and untraced, with no failed sweep; that corrupted CSVs
raise failed_frac; and that the benchmark refuses to run without the
railsim source.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

os.environ.update(run.THREAD_CAPS, RAIL_LOG="off")

import checks  # noqa: E402
import sweep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny(job: dict) -> dict:
    """A fraction-of-a-second variant of a workload job, with no golden
    digests; the area shrinks with the node count so deployments stay
    connected.
    """
    config = dict(job["config"])
    config.update(width=30.0, height=30.0, runs_per_density=1,
                  densities=[40 + 20 * i for i in range(min(2, len(config["densities"])))])
    return {**job, "config": config, "golden": None}


def check_declarations(spec: dict) -> None:
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            assert m["unit"] and m["better"] in ("lower", "higher"), m


def check_workload(name: str, spec: dict) -> None:
    job = tiny(workloads.job(name, 7))
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        info = run.run(job, 0.2, trace, f"selftest-{name}-{int(trace)}")
        assert info["failed"] == 0, (name, trace, info["problems"])
        lines = run.report_lines(info, spec[section])
        for m in spec[section]:
            assert any(line.startswith(f"{m['name']} = ") and
                       line.endswith(f" {m['unit']} ({m['better']} is better)")
                       for line in lines), (name, m["name"])
        print(f"ok  {name} trace={int(trace)}: {len(spec[section])} metrics")


class Corrupting(sweep.Sweeper):
    """Sweeper whose every sweep leaves a damaged CSV behind."""

    def __init__(self, job, damage):
        super().__init__(job)
        self.damage = damage

    def run_cli(self) -> int:
        code = super().run_cli()
        path = os.path.join(self.job["out_dir"], "errors.csv")
        with open(path) as f:
            lines = f.read().splitlines()
        with open(path, "w") as f:
            f.write("\n".join(self.damage(lines)) + "\n")
        return code


def _retyped(lines, value):
    *head, last = lines
    return head + [last.rsplit(",", 1)[0] + "," + value]


DAMAGES = {
    "dropped row": lambda lines: lines[:-1],
    "nan error": lambda lines: _retyped(lines, "nan"),
    "changed digit": lambda lines: _retyped(lines, "0.0001"),
}


def check_corruption(tmp: str) -> None:
    job = tiny(workloads.job("table2_w2", 7))
    job.update(config_path=os.path.join(tmp, "config.json"), out_dir=os.path.join(tmp, "out"))
    with open(job["config_path"], "w") as f:
        json.dump(job["config"], f)
    clean = sweep.Sweeper(job)
    with contextlib.redirect_stdout(io.StringIO()):
        clean.sweep()
    assert clean.failed == 0, clean.problems
    golden = {"config": job["config"], "digests": checks.digests(job["out_dir"])}
    for what, damage in DAMAGES.items():
        sw = Corrupting(job, damage)
        sw.golden = golden
        with contextlib.redirect_stdout(io.StringIO()):
            res = sweep.measure(sw, 0.0, True)
        frac = run.metrics_from(res, True, None)["failed_frac"][0]
        assert frac == 1.0, (what, frac, res["problems"])
        print(f"ok  {what} in errors.csv: failed_frac {frac} ({res['problems'][0]})")


def check_absent_names() -> None:
    missing = ("railsim.experiment", "no_such_stage", "experiment.gone", "span", None)
    tracer = tracing.Tracer(tracing.TARGETS + (missing,))
    originals = [tracing._lookup(m, a) for m, a, *_ in tracing.TARGETS]
    tracer.install()
    try:
        wrapped = [tracing._lookup(m, a)[2] for m, a, *_ in tracing.TARGETS]
        assert all(w is not o[2] for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert all(tracing._lookup(m, a)[2] is o[2]
               for (m, a, *_), o in zip(tracing.TARGETS, originals)), "originals not restored"
    assert tracer.absent == ["railsim.experiment.no_such_stage"], tracer.absent
    assert tracer.calls("experiment.gone") == 0
    assert tracing.layer_metrics(tracer, 1)["trace.absent_names"] == (1, "count")
    print("ok  absent name: 0 calls, marked absent, originals restored")


def check_refuses_without_source(tmp: str) -> None:
    bare = os.path.join(tmp, "bare")
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
                           "--workload", "table2_w2", "--seed", "1", "--seconds", "1"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"ok  without src/: exit {proc.returncode}, no result printed")


def main() -> int:
    spec = run.benchmark_spec()
    check_declarations(spec)
    check_absent_names()
    for name in workloads.WORKLOADS:
        check_workload(name, spec)
    os.makedirs(run.WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        check_corruption(tmp)
        check_refuses_without_source(tmp)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
