"""The benchmark's workloads and the `rail run` config each one feeds the
program.

Why each workload exists (layer shares of a traced serial run's time,
measured on a 2-vCPU Xeon at 2.1 GHz):

* ``table2_w2``: the paper's sweep, ``configs/table2.json`` as shipped
  (50x50 m, 100/200/500 nodes, 3 anchors, sigma 0) with 8 runs per density,
  at ``--workers 2`` (= nproc): the process pool, end to end. Per-target RAIL
  work dominates its traced (serial) sweeps: rail 58%, network 33%. Its
  outputs must equal, byte for byte, those of a serial run of the same
  config (golden.json).
* ``noisy6``: 200 nodes, 6 anchors, sigma 4 dB, 40 runs, serial. 83% of
  targets hit the empty-box fallback and the anchor work doubles (rail 64%,
  network 27%); this is where accuracy fixes show.

There is no serial ``table2`` workload and no 2000-node graph-layer
workload. The machine switches between speed regimes 1.4-1.8x apart that
last from seconds to minutes, so every timed workload risks a spread above
the largest bound the benchmark may set (0.25): ten-run sets of a serial
table2 reached 0.14, 0.41 and 0.25, of a 2000-node sweep 0.25. Two
workloads with 45 s runs keep that risk lowest while still covering the
pool, the sigma-0 digests, the noisy channel and, through the traced
sweeps, every layer.

The sigma-0 workloads replay the shipped base seed, because their outputs
are compared with digests captured once; ``--seed`` picks the scenario of
``noisy6`` only. At sigma 0 the pooled mean error of a few runs is
heavy-tailed across base seeds (interquartile spread 15-65% of the median),
so a seed-dependent scenario there would drown any accuracy change.
"""

from __future__ import annotations

REFERENCE_SEED = 1  # base_seed of configs/table2.json

TABLE2 = {
    "width": 50.0,
    "height": 50.0,
    "densities": [100, 200, 500],
    "n_anchors": 3,
    "comm_range": 10.0,
    "sigma": 0.0,
    "runs_per_density": 8,
    "base_seed": REFERENCE_SEED,
    "algorithms": ["RAIL", "MinMax", "RssiDvHop"],
}

WORKLOADS = {
    "table2_w2": {"config": TABLE2, "workers": 2, "golden": "table2"},
    "noisy6": {
        "config": {
            **TABLE2,
            "densities": [200],
            "n_anchors": 6,
            "sigma": 4.0,
            "runs_per_density": 40,
        },
        "workers": 1,
        "golden": None,
    },
}


def job(name: str, seed: int) -> dict:
    """The config, worker count and golden-digest key of one workload."""
    spec = WORKLOADS[name]
    config = dict(spec["config"])
    if spec["golden"] is None:
        config["base_seed"] = seed
    return {"workload": name, "config": config, "workers": spec["workers"],
            "golden": spec["golden"]}

