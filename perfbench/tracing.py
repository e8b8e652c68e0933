"""Per-layer tracing of the sweep, from outside the package.

The sweep's layers reach one another through module-level names looked up
at call time: ``experiment._run_single`` calls ``build_graph`` and
``rail.localize_all``, ``localize_all`` calls ``estimate_angle``, and so on.
``Tracer.install`` replaces each such name with a wrapper and
``Tracer.uninstall`` puts the originals back. A span wrapper records calls,
inclusive time and self time (inclusive minus the time of the spans nested
in it); a tally wrapper only counts. A name the program no longer has is
recorded as absent, and its layer reports 0 calls.

``radio`` and ``geometry`` helpers are not wrapped: they run once per edge
or per target and are timed inside their callers' spans (``build_graph``,
``precise_location``).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter


def _edges(tr, args, kwargs, graph, dur):
    tr.count["network.edges"] += sum(len(nbrs) for nbrs in graph.adjacency) // 2


def _case(tr, args, kwargs, result, dur):
    box = args[0] if args else kwargs.get("box")
    tr.count["rail.empty_box"] += box is None
    tr.count["rail.case." + result[1].case_fired.value] += 1


def _flag(key):
    def hook(tr, args, kwargs, result, dur):
        tr.count[key] += result.degenerate
    return hook


def _clamped(tr, args, kwargs, result, dur):
    tr.count["experiment.clamped"] += result != args[0]


def _run(tr, args, kwargs, result, dur):
    tr.run_s.append(dur)


# (module, attribute, span or tally name, kind, hook)
TARGETS = (
    ("railsim.experiment", "_run_single", "experiment.run", "span", _run),
    ("railsim.experiment", "aggregate", "experiment.aggregate", "span", None),
    ("railsim.experiment", "clamp_to_area", "experiment.clamp", "tally", _clamped),
    ("railsim.cli", "write_report_csv", "experiment.write_csv", "span", None),
    ("railsim.cli", "write_runs_csv", "experiment.write_csv", "span", None),
    ("railsim.cli", "write_errors_csv", "experiment.write_csv", "span", None),
    ("railsim.experiment", "generate_deployment", "network.generate_deployment", "span", None),
    ("railsim.network", "_components_ok", "network.deploy.check", "tally", None),
    ("railsim.experiment", "build_graph", "network.build_graph", "span", _edges),
    ("railsim.experiment", "shortest_ranging", "network.shortest_ranging", "span", None),
    ("railsim.network", "dijkstra_tree", "network.dijkstra_tree", "span", None),
    ("railsim.rail", "dijkstra_tree", "network.dijkstra_tree", "span", None),
    ("railsim.experiment", "min_hops", "network.min_hops", "span", None),
    ("railsim.experiment", "hop_tree_ranging", "network.hop_tree_ranging", "span", None),
    ("railsim.network", "NetworkGraph.edge_weight", "network.edge_weight", "tally", None),
    ("railsim.rail", "localize_all", "rail.localize_all", "span", None),
    ("railsim.rail", "estimate_angle", "rail.estimate_angle", "span", None),
    ("railsim.rail", "_csgraph_dijkstra", "rail.aux_dijkstra", "span", None),
    ("railsim.rail", "per_hop_error", "rail.per_hop_error", "tally", None),
    ("railsim.rail", "bounding_box", "rail.bounding_box", "span", None),
    ("railsim.rail", "build_rays", "rail.build_rays", "span", None),
    ("railsim.rail", "precise_location", "rail.precise_location", "span", _case),
    ("railsim.baselines", "min_max", "baselines.min_max", "span",
     _flag("baselines.min_max.inverted")),
    ("railsim.baselines", "rssi_dv_hop", "baselines.rssi_dv_hop", "span",
     _flag("baselines.rssi_dv_hop.degenerate")),
)


class Tracer:
    """Span and tally totals of every traced sweep since construction."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = {}  # name -> [calls, inclusive s, self s]
        self.count = Counter()  # tallies and hook counters
        self.run_s = []  # inclusive time of each experiment.run span
        self.absent = sorted({f"{m}.{a}" for m, a, *_ in targets if _lookup(m, a) is None})
        self._open = []  # child time accumulated by each open span
        self._saved = []  # (owner, attribute, original)

    def install(self) -> None:
        try:
            for module, attr, name, kind, hook in self.targets:
                found = _lookup(module, attr)
                if found is None:
                    continue
                owner, leaf, original = found
                make = self._span if kind == "span" else self._tally
                setattr(owner, leaf, make(name, original, hook))
                self._saved.append((owner, leaf, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)
        self._open.clear()

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0,))[0] or self.count[name]

    def seconds(self, name: str, self_time: bool = False) -> float:
        stat = self.spans.get(name)
        return 0.0 if stat is None else stat[2 if self_time else 1]

    def _span(self, name, fn, hook):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - nested
            if hook is not None:
                hook(self, args, kwargs, result, dur)
            return result

        return wrapper

    def _tally(self, name, fn, hook):
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result, 0.0)
            return result

        return wrapper


def _lookup(module: str, attr: str):
    """(owner, leaf name, current value) of a dotted attribute, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, leaf, None)
    return None if value is None else (owner, leaf, value)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def layer_metrics(tr: Tracer, runs: int) -> dict:
    """Per-layer figures over ``runs`` traced Monte Carlo runs, as
    {name: (value, unit)}; times are ms per run, counts per run unless the
    name says otherwise.
    """
    def ms(name, self_time=False):
        return (1000.0 * tr.seconds(name, self_time) / runs, "ms")

    def per_run(name):
        return (tr.calls(name) / runs, "count")

    located = tr.calls("rail.precise_location")
    cases = {"multi": "MultiIntersection", "single": "SingleIntersection",
             "all_outside": "AllOutside", "none": "NoIntersection"}
    out = {
        "network.generate_deployment.ms": ms("network.generate_deployment"),
        "network.deploy.checks_per_run": (
            _share(tr.calls("network.deploy.check"), tr.calls("network.generate_deployment")),
            "count"),
        "network.build_graph.ms": ms("network.build_graph"),
        "network.edges": (tr.count["network.edges"] / runs, "count"),
        "network.dijkstra_tree.ms": ms("network.dijkstra_tree"),
        "network.dijkstra_tree.calls": per_run("network.dijkstra_tree"),
        "network.shortest_ranging.ms": ms("network.shortest_ranging"),
        "network.min_hops.ms": ms("network.min_hops"),
        "network.hop_tree_ranging.ms": ms("network.hop_tree_ranging"),
        "network.edge_weight.calls": per_run("network.edge_weight"),
        "rail.localize_all.ms": ms("rail.localize_all"),
        "rail.localize_all.self_ms": ms("rail.localize_all", True),
        "rail.estimate_angle.ms": ms("rail.estimate_angle"),
        "rail.estimate_angle.calls": per_run("rail.estimate_angle"),
        "rail.aux_dijkstra.ms": ms("rail.aux_dijkstra"),
        "rail.aux_dijkstra.calls": per_run("rail.aux_dijkstra"),
        "rail.per_hop_error.calls": per_run("rail.per_hop_error"),
        "rail.bounding_box.ms": ms("rail.bounding_box"),
        "rail.build_rays.ms": ms("rail.build_rays"),
        "rail.precise_location.ms": ms("rail.precise_location"),
        "rail.empty_box_frac": (_share(tr.count["rail.empty_box"], located), "share"),
        "baselines.min_max.ms": ms("baselines.min_max"),
        "baselines.rssi_dv_hop.ms": ms("baselines.rssi_dv_hop"),
        "baselines.min_max.inverted_frac": (
            _share(tr.count["baselines.min_max.inverted"], tr.calls("baselines.min_max")),
            "share"),
        "baselines.rssi_dv_hop.degenerate_frac": (
            _share(tr.count["baselines.rssi_dv_hop.degenerate"],
                   tr.calls("baselines.rssi_dv_hop")),
            "share"),
        "experiment.run.ms_p50": (1000.0 * _percentile(tr.run_s, 0.5), "ms"),
        "experiment.run.ms_p90": (1000.0 * _percentile(tr.run_s, 0.9), "ms"),
        "experiment.run.samples": (len(tr.run_s), "count"),
        "experiment.run.self_ms": ms("experiment.run", True),
        "experiment.clamped_frac": (
            _share(tr.count["experiment.clamped"], tr.calls("experiment.clamp")), "share"),
        "experiment.aggregate.ms": ms("experiment.aggregate"),
        "experiment.write_csv.ms": ms("experiment.write_csv"),
        "trace.absent_names": (len(tr.absent), "count"),
    }
    for short, case in cases.items():
        out["rail.case." + short] = (_share(tr.count["rail.case." + case], located), "share")
    return out
