"""Seeded inputs of the three workloads and the operations they run.

Every input is made from the workload seed; the program receives only
the generated graphs, fault counts and files. Calls go through module
attributes (`experiments.adversary_exhaustive`, not a `from` import) so
the wrappers that `tracing.install` puts into the modules see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from digests import canonical, sha256
from xpand import expansion, experiments, generators, graph, pruning, span
from xpand.errors import GenerationError

K = 2  # adversary strength: eps = 1 - 1/K
GEN_TRIES = 256  # next-seed retries for random_regular; d <= 5 keeps this ample
SEED_STRIDE = 1000  # workload seed s searches generator seeds from s * SEED_STRIDE


@dataclass(frozen=True)
class Job:
    """One operation of an in-process pass. `key` names its exact input,
    so its output digest can be recorded once and looked up later."""

    label: str
    key: str
    run: Callable  # () -> result object
    check: Callable  # result -> payload dict; raises if an invariant fails


class CheckFailed(Exception):
    """An operation returned a result that breaks a stated invariant."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def pick_regular(n: int, d: int, seed: int):
    """First generator seed at or after seed * SEED_STRIDE for which the
    pairing model returns a d-regular graph. Returns (seed used, graph)."""
    start = seed * SEED_STRIDE
    for s in range(start, start + GEN_TRIES):
        try:
            return s, generators.random_regular(n, d, s)
        except GenerationError:
            continue
    raise GenerationError(f"no random_regular({n}, {d}) in seeds {start}+{GEN_TRIES}")


def graph_key(g) -> str:
    return sha256(canonical([g.n, list(g.edges())]))


# ---------------------------------------------------------------- adversary


def _adversary_job(label: str, g, f: int) -> Job:
    def check(rep):
        require(rep.iterations == comb(g.n, f), f"{rep.iterations} fault sets")
        require(
            Fraction(rep.worst_h_size) >= rep.size_bound, "survivor below size bound"
        )
        require(
            rep.worst_expansion >= rep.expansion_bound,
            "survivor below expansion bound",
        )
        return rep.to_payload()

    return Job(
        label=f"adversary {label} k={K} f={f}",
        key=sha256(canonical(["adversary_exhaustive", graph_key(g), K, f])),
        run=lambda: experiments.adversary_exhaustive(g, K, f),
        check=check,
    )


def adversary_setup(seed: int):
    s16, rr16 = pick_regular(16, 5, seed)
    s18, rr18 = pick_regular(18, 5, seed)
    graphs = [
        ("mesh4x4", generators.mesh((4, 4))),
        ("hypercube4", generators.hypercube(4)),
        ("complete16", generators.complete(16)),
        (f"random_regular(16,5,seed={s16})", rr16),
        (f"random_regular(18,5,seed={s18})", rr18),
    ]
    jobs = []
    admitted = {}
    for label, g in graphs:
        # f is admitted only where the guarantees hold: k*f/alpha <= n/4
        alpha = expansion.node_expansion_exact(g).value
        fs = []
        while pruning.hypothesis_ok(g.n, alpha, K, len(fs) + 1):
            fs.append(len(fs) + 1)
        admitted[label] = {"alpha": str(alpha), "f": fs}
        jobs.extend(_adversary_job(label, g, f) for f in fs)
    return jobs, {"generator_seeds": [s16, s18], "admitted": admitted}


# ---------------------------------------------------------------- structure


def _check_span(g, rep):
    bnd = set()
    members = set(rep.argmax)
    for v in members:
        bnd.update(u for u in g.adjacency[v] if u not in members)
    require(tuple(sorted(bnd)) == rep.boundary, "boundary is not N(argmax)")
    require(rep.value == Fraction(rep.tree_size, len(rep.boundary)), "ratio")
    nodes = set(rep.boundary)
    parent = {}

    def find(v):
        while parent.get(v, v) != v:
            v = parent[v]
        return v

    for u, v in rep.tree_edges:
        require(v in g.adjacency[u], f"tree edge {u}-{v} is not a graph edge")
        nodes.update((u, v))
        parent[find(u)] = find(v)
    require(len(nodes) == rep.tree_size, "tree size")
    require(len(rep.tree_edges) == rep.tree_size - 1, "tree edge count")
    require(len({find(v) for v in nodes}) == 1, "tree does not connect")
    return rep.to_payload()


def _span_job(label: str, g) -> Job:
    return Job(
        label=f"span_exact {label}",
        key=sha256(canonical(["span_exact", graph_key(g)])),
        run=lambda: span.span_exact(g),
        check=lambda rep: _check_span(g, rep),
    )


def _cert_job(dims) -> Job:
    def check(cert):
        require(cert.ok and cert.checked > 0, "mesh span certificate failed")
        return cert.to_payload()

    return Job(
        label="verify_mesh_span_certificate " + "x".join(map(str, dims)),
        key=sha256(canonical(["verify_mesh_span_certificate", list(dims)])),
        run=lambda: span.verify_mesh_span_certificate(dims, exhaustive=True),
        check=check,
    )


def _chain_job(base_n: int, k: int) -> Job:
    h = generators.subdivide_edges(generators.complete(base_n), k)

    def check(res):
        cut = graph.make_cut(h.graph, res.witness.set)
        require(cut.node_ratio == res.value, "witness does not reach the value")
        return res.to_payload()

    return Job(
        label=f"subdivided_node_expansion K{base_n} k={k} n={h.graph.n}",
        key=sha256(canonical(["subdivided_node_expansion", base_n, k])),
        run=lambda: expansion.subdivided_node_expansion(h),
        check=check,
    )


def structure_setup(seed: int):
    s18, rr18 = pick_regular(18, 4, seed)
    jobs = [
        _span_job("mesh3x6", generators.mesh((3, 6))),
        _span_job("hypercube4", generators.hypercube(4)),
        _span_job(f"random_regular(18,4,seed={s18})", rr18),
        _cert_job((3, 6)),
        _cert_job((4, 4)),
        _chain_job(7, 4),
    ]
    return jobs, {"generator_seeds": [s18]}


# ---------------------------------------------------------------------- cli


def _node_faults(n: int, count: int, rng: random.Random) -> str:
    failed = sorted(rng.sample(range(n), count))
    return canonical({"kind": "node-faults", "failed": failed, "provenance": {}}) + "\n"


def _edge_survival(g, keep: float, rng: random.Random) -> str:
    kept = [[u, v] for u, v in g.edges() if rng.random() < keep]
    return canonical({"kind": "edge-survival", "kept_edges": kept, "provenance": {}}) + "\n"


def cli_setup(seed: int):
    """The scripted session: input files and one argv per invocation,
    without the `python -m xpand` prefix. Every command writes with -o,
    so each leaves a manifest that the session then replays."""
    s5, rr5 = pick_regular(18, 5, seed)
    s4, rr4 = pick_regular(18, 4, seed)
    rng = random.Random(seed)
    files = {
        "faults_a.json": _node_faults(18, 2, rng),
        "faults_b.json": _node_faults(18, 3, rng),
        "survive_a.json": _edge_survival(rr5, 0.9, rng),
        "survive_b.json": _edge_survival(rr4, 0.9, rng),
    }
    perc_seed = seed * SEED_STRIDE
    commands = [
        f"gen --family random-regular --n 18 --degree 5 --seed {s5} -o rr5.gr",
        f"gen --family random-regular --n 18 --degree 4 --seed {s4} -o rr4.gr",
        "gen --family mesh --dims 3x6 -o mesh.gr",
        "gen --family hypercube --dim 4 -o q4.gr",
        "gen --family complete --n 4 -o k4.gr",
        "gen --family subdivide --base k4.gr --k 2 -o sub.gr",
        "expansion rr5.gr --node --exact -o exp_node.json",
        "expansion rr4.gr --edge --exact -o exp_edge.json",
        "expansion sub.gr --node --chain-dp -o exp_chain.json",
        "span mesh.gr --exact -o span.json",
        "prune rr5.gr --oracle --eps 1/2 --faults faults_a.json -o prune_a.json",
        "prune rr4.gr --oracle --eps 1/2 --faults faults_b.json -o prune_b.json",
        "prune2 rr5.gr --oracle --eps 1/2 --faults survive_a.json -o prune2_a.json",
        "prune2 rr4.gr --oracle --eps 1/2 --faults survive_b.json -o prune2_b.json",
        "shatter rr4.gr --eps-frac 1/3 -o shatter.json",
        "attack sub.gr --strategy chain-centers -o attack_chain.json",
        "attack rr5.gr --strategy greedy --budget 3 -o attack_greedy.json",
        f"percolate rr4.gr --p-grid 1/10 --trials 2 --prune --seed {perc_seed} -o perc_node.csv",
        f"percolate q4.gr --model edge --p-grid 1/2:1:1/4 --trials 20 --seed {perc_seed} -o perc_edge.csv",
        "verify-mesh-span --dims 3x4 --exhaustive -o cert.json",
    ]
    # one worker thread: a closed loop of single-client invocations
    argvs = [c.split() + ["--threads", "1"] for c in commands]
    return {"files": files, "commands": argvs}, {"generator_seeds": [s5, s4]}


SETUP = {"adversary": adversary_setup, "structure": structure_setup, "cli": cli_setup}
