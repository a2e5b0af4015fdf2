"""Layer tracing from outside the program.

`install` wraps every public function of the traced xpand modules and
replaces each reference to it in every loaded xpand module, so calls are
seen wherever a name is looked up: `kernels.min_ratio_node_cut` through
the module attribute, and `from`-imported names such as
`experiments.prune` or `cli.canonical_json` in the importing module.

Spans stay in memory. Each open span adds up the time of its child
spans, so a layer's self time is its span minus its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# the layers; a span is named "<module>.<function>"
MODULES = (
    "kernels",
    "expansion",
    "pruning",
    "span",
    "experiments",
    "graph",
    "faults",
    "manifest",
    "cli",
)

# one private name is traced: replay is the CLI's second entry point
EXTRA = {"cli": ("_replay",)}


class Tracer:
    """Per-span-name call counts, inclusive and self time, plus counts
    read from arguments and results at the same boundaries."""

    def __init__(self):
        self.stats = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = {}
        self._children = []  # child time of each open span
        self.enabled = False

    def reset(self):
        self.stats = {}
        self.counts = {}

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn, count=None):
        clock = time.perf_counter
        children = self._children

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = children.pop()
                if children:
                    children[-1] += dt
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dt
                st[2] += dt - child
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
        }


def _sweep_count(tracer, args, _kwargs, _result, *, key):
    n = args[0]
    tracer.add(key + ".subsets", 1 << n)
    if n > tracer.counts.get("kernels.max_sweep_n", 0):
        tracer.counts["kernels.max_sweep_n"] = n


def _node_cut(tracer, args, kwargs, result):
    _sweep_count(tracer, args, kwargs, result, key="kernels.min_ratio_node_cut")


def _edge_cut(tracer, args, kwargs, result):
    _sweep_count(tracer, args, kwargs, result, key="kernels.min_ratio_edge_cut")


def _compact(tracer, _args, _kwargs, result):
    tracer.add("kernels.compact_masks.sets", len(result))


def _steiner(tracer, _args, _kwargs, result):
    if result is not None:
        tracer.add("kernels.steiner_min_tree." + result[2], 1)


def _prune_steps(tracer, _args, _kwargs, result):
    tracer.add("pruning.steps", len(result.steps))


def _span_sets(tracer, _args, _kwargs, result):
    tracer.add("span.walked", result.considered + result.skipped)
    tracer.add("span.skipped", result.skipped)


def _fault_sets(tracer, _args, _kwargs, result):
    report = result[0] if isinstance(result, tuple) else result
    tracer.add("experiments.fault_sets", report.iterations)


COUNTERS = {
    "kernels.min_ratio_node_cut": _node_cut,
    "kernels.min_ratio_edge_cut": _edge_cut,
    "kernels.compact_masks": _compact,
    "kernels.steiner_min_tree": _steiner,
    "pruning.prune": _prune_steps,
    "pruning.prune2": _prune_steps,
    "span.span_exact": _span_sets,
    "experiments.adversary_exhaustive": _fault_sets,
}


def _public_functions(module):
    short = module.__name__.rsplit(".", 1)[1]
    names = [n for n in vars(module) if not n.startswith("_")]
    names.extend(EXTRA.get(short, ()))
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield f"{short}.{name}", fn


def install(tracer: Tracer) -> None:
    """Import the traced modules, wrap their public functions and patch
    every xpand module that holds a reference."""
    modules = [importlib.import_module("xpand." + m) for m in MODULES]
    wrapped = {}
    for module in modules:
        for name, fn in _public_functions(module):
            wrapped[id(fn)] = (fn, tracer.wrap(name, fn, COUNTERS.get(name)))
    for modname, module in list(sys.modules.items()):
        if modname != "xpand" and not modname.startswith("xpand."):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[attr] = hit[1]


def merge(snapshots) -> dict:
    """Sum several snapshots, such as one per CLI invocation of a pass."""
    stats: dict = {}
    counts: dict = {}
    for snap in snapshots:
        for name, (calls, incl, self_s) in snap["stats"].items():
            st = stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += incl
            st[2] += self_s
        for key, value in snap["counts"].items():
            if key == "kernels.max_sweep_n":
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
    return {"stats": stats, "counts": counts}


def unit(name: str) -> str:
    """Unit of a per-layer metric. Counts derived from 2^n are marked
    computed: nothing measured them."""
    if name.endswith(".subsets"):
        return "count-computed"
    if name == "kernels.table_bytes_max":
        return "B-computed"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("per_fault_set"):
        return "ratio"
    if name == "kernels.max_sweep_n":
        return "nodes"
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(snap: dict) -> dict:
    """The per-layer metric values of one traced pass, by metric name.
    Layers a workload does not reach read 0."""
    stats = snap["stats"]
    counts = snap["counts"]

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    out = {}
    for name in ("kernels.min_ratio_node_cut", "kernels.min_ratio_edge_cut"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
        out[name + ".subsets"] = counts.get(name + ".subsets", 0)
    max_n = counts.get("kernels.max_sweep_n", 0)
    out["kernels.max_sweep_n"] = max_n
    # what one 4-byte-per-subset table for the largest sweep would take
    out["kernels.table_bytes_max"] = 4 * (1 << max_n) if max_n else 0
    out["kernels.compact_masks.calls"] = calls("kernels.compact_masks")
    out["kernels.compact_masks.self_s"] = self_s("kernels.compact_masks")
    out["kernels.compact_masks.sets"] = counts.get("kernels.compact_masks.sets", 0)
    out["kernels.steiner_min_tree.calls"] = calls("kernels.steiner_min_tree")
    out["kernels.steiner_min_tree.self_s"] = self_s("kernels.steiner_min_tree")
    for method in ("sweep", "dw"):
        key = "kernels.steiner_min_tree." + method
        out[key] = counts.get(key, 0)
    out["span.span_exact.self_s"] = self_s("span.span_exact")
    out["span.verify_mesh_span_certificate.self_s"] = self_s(
        "span.verify_mesh_span_certificate"
    )
    out["span.steiner_skipped_frac"] = _ratio(
        counts.get("span.skipped", 0), counts.get("span.walked", 0)
    )
    out["graph.node_boundary.calls"] = calls("graph.node_boundary")
    out["graph.node_boundary.self_s"] = self_s("graph.node_boundary")
    for name in (
        "expansion.node_expansion_exact",
        "expansion.edge_expansion_exact",
        "expansion.subdivided_node_expansion",
    ):
        out[name + ".self_s"] = self_s(name)
    for name in ("pruning.prune", "pruning.prune2"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
    out["pruning.steps"] = counts.get("pruning.steps", 0)
    out["pruning.union_boundary_check.self_s"] = self_s("pruning.union_boundary_check")
    out["experiments.adversary_exhaustive.self_s"] = self_s(
        "experiments.adversary_exhaustive"
    )
    fault_sets = counts.get("experiments.fault_sets", 0)
    out["experiments.fault_sets"] = fault_sets
    out["experiments.sweeps_per_fault_set"] = _ratio(
        calls("kernels.min_ratio_node_cut"), fault_sets
    )
    out["experiments.percolation_point.self_s"] = self_s(
        "experiments.percolation_point"
    )
    out["faults.apply_faults.self_s"] = self_s("faults.apply_faults")
    out["graph.remove_nodes.calls"] = calls("graph.remove_nodes")
    out["graph.remove_nodes.self_s"] = self_s("graph.remove_nodes")
    # mean per CLI invocation, unlike the per-pass sums around it
    out["cli.import_s"] = _ratio(
        counts.get("cli.import_s", 0.0), counts.get("cli.invocations", 0)
    )
    out["cli.main.self_s"] = self_s("cli.main")
    out["cli.replay.self_s"] = self_s("cli._replay")
    # hashing, canonical JSON and manifest building, over all its functions
    out["manifest.self_s"] = sum(
        v[2] for k, v in stats.items() if k.startswith("manifest.")
    )
    return out
