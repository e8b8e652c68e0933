"""Rewrites golden.json: the sha256 of report.csv, runs.csv and errors.csv
of each sigma-0 workload's sweep, as the current source computes them in a
serial run; a workload that uses the process pool must match them byte for
byte.

    python3 perfbench/capture_golden.py

Run it only to re-pin outputs on purpose; the benchmark fails every sweep
whose output differs from the pinned digests.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from railsim import cli  # noqa: E402

golden = {}
for name, spec in workloads.WORKLOADS.items():
    key = spec["golden"]
    if key is None or key in golden:
        continue
    config = workloads.job(name, 0)["config"]
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        config_path = os.path.join(tmp, "config.json")
        with open(config_path, "w") as f:
            json.dump(config, f)
        if cli.main(["run", "--config", config_path, "--out", tmp]) != 0:
            sys.exit(f"{name}: rail run failed")
        golden[key] = {"config": config, "digests": checks.digests(tmp)}
    print(key, golden[key]["digests"])

with open(checks.GOLDEN_PATH, "w") as f:
    json.dump(golden, f, indent=2, sort_keys=True)
    f.write("\n")
