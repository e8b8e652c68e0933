"""Walk through localizing one network, step by step.

Generates a seeded 50 x 50 m deployment with 3 anchors and 100 unknown
nodes, localizes every unknown with the ray-intersection pipeline, prints
the stages for one target, and renders the scene to demo_scene.svg.

Run:  python3 demos/01_single_network.py
"""

import pathlib

from railsim import PathLossModel
from railsim.experiment import localization_errors
from railsim.network import build_graph, generate_deployment
from railsim.rail import CASES, localize_all
from railsim.svgplot import scene_svg

dep = generate_deployment(
    width=50, height=50, n_unknown=100, n_anchors=3, comm_range=10, seed=1
)
print(f"deployment: {len(dep.nodes)} nodes, anchors at ids {list(dep.anchor_ids)}")
for a in dep.anchor_ids:
    p = dep.nodes[a]
    print(f"  anchor {a}: ({p.x:.2f}, {p.y:.2f})")

graph = build_graph(dep, PathLossModel())  # sigma=0: noise-free RSSI
results = localize_all(dep, graph)  # one column per target, in results.targets order
truth_x, truth_y = dep.coords[results.targets].T
errors = localization_errors(truth_x, truth_y, results.x, results.y)

i = 0  # the first target's column
target = int(results.targets[i])
x_min, x_max, y_min, y_max = results.box[:, i].tolist()
rays = list(zip(*(a[:, i].tolist() for a in results.rays)))  # (x, y, dx, dy) each
hit_x, hit_y, hit = (a[:, i].tolist() for a in results.hits)
intersections = [(hx, hy) for hx, hy, ok in zip(hit_x, hit_y, hit) if ok]
estimate = (results.x[i].item(), results.y[i].item())

print(f"\ntarget node {target}, true position ({truth_x[i]:.2f}, {truth_y[i]:.2f})")
print(f"  bounding box: x [{x_min:.2f}, {x_max:.2f}], y [{y_min:.2f}, {y_max:.2f}]")
print(f"  ray intersections found: {len(intersections)}")
print(f"  case fired: {CASES[results.case[i]]}")
print(f"  estimate ({estimate[0]:.2f}, {estimate[1]:.2f}), error {errors[i]:.2f} m")

print(f"\nmean error over all {len(errors)} unknowns: {errors.mean():.3f} m")

out = pathlib.Path(__file__).with_name("demo_scene.svg")
out.write_text(
    scene_svg(
        dep.width, dep.height, dep.coords.tolist(), dep.anchor_ids, target,
        (x_min, x_max, y_min, y_max), rays, intersections, estimate,
    )
)
print(f"scene rendered to {out}")
