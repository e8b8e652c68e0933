"""Compare the three algorithms across node densities.

Runs a reduced Monte Carlo sweep (10 runs per density instead of 50; about
1.5 s on a 2-vCPU Xeon) and prints a mean/std table in the style of the full
`rail run` report.

Run:  python3 demos/02_density_sweep.py
"""

from railsim.experiment import ALL_ALGORITHMS, ExperimentConfig, run_experiment

cfg = ExperimentConfig(runs_per_density=10)
print(f"arena {cfg.width:g} x {cfg.height:g} m, {cfg.n_anchors} anchors, "
      f"R = {cfg.comm_range:g} m, sigma = {cfg.sigma:g} dB, "
      f"{cfg.runs_per_density} runs per density\n")

report = run_experiment(cfg)

header = f"{'density':>8}" + "".join(f"{alg:>16}" for alg in ALL_ALGORITHMS)
print(header)
for d in cfg.densities:
    cells = "".join(
        f"{report.mean_error[(alg, d)]:>9.3f} ±{report.std_error[(alg, d)]:>5.2f}"
        for alg in ALL_ALGORITHMS
    )
    print(f"{d:>8}{cells}")

print("\nmean localization error in metres (± population std); "
      "the ray-intersection method improves with density while Min-Max "
      "stays flat and RSSI DV-hop improves only slowly.")
