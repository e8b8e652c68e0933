"""Correctness checks on the output of one `rail run` sweep.

A sweep passes when `rail run` exited 0 and:

* report.csv, runs.csv and errors.csv have one row per algorithm x density,
  per algorithm x run and per algorithm x run x unknown node;
* every error is finite and no longer than the area's diagonal;
* every estimate in the returned report is finite and inside the area;
* at sigma 0, the bounding box held every target's true position;
* at sigma 0, the three files' sha256 equal the digests in golden.json.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

CSV_FILES = ("report.csv", "runs.csv", "errors.csv")
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
ERROR_COLUMN = {"RAIL": "rail_err_m", "RssiDvHop": "dvhop_err_m", "MinMax": "minmax_err_m"}


def digests(out_dir: str) -> dict:
    out = {}
    for name in CSV_FILES:
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as f:
            for block in iter(lambda: f.read(1 << 16), b""):
                h.update(block)
        out[name] = h.hexdigest()
    return out


def load_golden(key: str) -> dict:
    """The stored config and digests of one sigma-0 reference sweep."""
    with open(GOLDEN_PATH) as f:
        return json.load(f)[key]


def _add_error(row: dict, diagonal: float, sums: dict, counts: dict) -> list[str]:
    """Add one errors.csv row to the per-algorithm sums; its problems."""
    try:
        err = float(row["error_m"])
    except (KeyError, TypeError, ValueError):
        return [f"errors.csv: unreadable row {row}"]
    if not (math.isfinite(err) and 0.0 <= err <= diagonal + 1e-6):
        return [f"errors.csv: error {err} outside [0, {diagonal:.4f}]"]
    alg = row["algorithm"]
    sums[alg] = sums.get(alg, 0.0) + err
    counts[alg] = counts.get(alg, 0) + 1
    return []


def check_sweep(code, config: dict, out_dir: str, report, golden) -> tuple[list[str], dict]:
    """Problems found in one sweep's output, and the pooled mean error per
    algorithm read back from errors.csv.

    ``report`` is the ExperimentReport the sweep returned, or None if it
    never got that far; ``golden`` is the entry of golden.json the outputs
    must match, or None to skip the digest comparison.
    """
    if code != 0:
        return [f"rail run failed: {code}"], {}
    if report is None:
        return ["rail run returned no report"], {}
    problems = []
    algs = config["algorithms"]
    runs = config["runs_per_density"]
    dens = config["densities"]
    w, h = config["width"], config["height"]
    diagonal = math.hypot(w, h)
    expected = {
        "report.csv": len(algs) * len(dens),
        "runs.csv": len(algs) * len(dens) * runs,
        "errors.csv": len(algs) * runs * sum(dens),
    }
    # The files are streamed, not loaded, so that the checker adds next to
    # nothing to the sweep process's peak RSS.
    sums, counts, bad_rows = {}, {}, []
    for name in CSV_FILES:
        try:
            with open(os.path.join(out_dir, name), newline="") as f:
                rows = 0
                for row in csv.DictReader(f):
                    rows += 1
                    if name == "errors.csv" and not bad_rows:
                        bad_rows = _add_error(row, diagonal, sums, counts)
        except OSError as exc:
            return [f"{name}: {exc}"], {}
        if rows != expected[name]:
            problems.append(f"{name}: {rows} rows, expected {expected[name]}")
    problems += bad_rows
    mean_error = {ERROR_COLUMN[a]: sums[a] / counts[a] for a in sums if a in ERROR_COLUMN}

    for rec in report.records:
        n = len(rec.node_ids)
        for alg in algs:
            est = rec.estimates.get(alg, [])
            if len(est) != n:
                problems.append(f"{alg} density {rec.density} run {rec.run_index}: "
                                f"{len(est)} estimates for {n} nodes")
            elif not all(math.isfinite(p.x) and math.isfinite(p.y)
                         and 0.0 <= p.x <= w and 0.0 <= p.y <= h for p in est):
                problems.append(f"{alg} density {rec.density} run {rec.run_index}: "
                                "estimate outside the area")
        if config["sigma"] == 0 and rec.rail_box_contains != n:
            problems.append(f"density {rec.density} run {rec.run_index}: box held "
                            f"{rec.rail_box_contains} of {n} targets at sigma 0")

    if golden is not None:
        if golden["config"] != config:
            problems.append("golden.json was captured for another config")
        else:
            got = digests(out_dir)
            problems += [f"{name}: sha256 differs from golden.json"
                         for name in CSV_FILES if got[name] != golden["digests"][name]]
    return problems, mean_error
