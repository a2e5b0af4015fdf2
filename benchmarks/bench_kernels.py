"""Times the bitmask kernels (numpy ratio sweeps and compact-set
engine, pure Python elsewhere) and prints the best time of each. The
ratio sweeps run on the --n random graph, then on K14 (as the
adversary sweeps K16 less two faults), a random 4-regular graph with 18
nodes, a random 4-regular graph with 24 nodes and K24 (the engine's
cap). The connectivity_table rows run on mesh 4x4, the 18-node graph
and mesh 4x6 (n = 24). The connector_lookup rows time the
build of its Steiner-size table, on the 18-node graph and on mesh
4x6. The last rows time span_exact and the exhaustive mesh span
certificate as the package runs them, up to mesh 4x6 (the table
engine's cap), the connected-set census of verify_subgraph_count_bound
on mesh 4x5 and a random 3-regular graph with 22 nodes, and the chain
DP of subdivided_node_expansion on dense bases (K7, and K8 with long
chains), sparse ones (C10, and the path P10, whose endpoint
assignments fall into the most distinct class counts) and two sparse
bases whose nodes mostly end no chain (10 nodes with edges 01, 23; 8
nodes with edges 04, 07, 25). The algorithm-layer
rows time adversary_exhaustive at k = 2 on mesh 4x4 with f = 1 and on
K16 with f = 2 (120 fault sets, each pruned and its survivor graded),
run_percolation_sweep with pruning on the random 4-regular graph with 18
nodes (p = 1/10, 20 trials, k = 2, as `percolate --prune` runs it,
including its one exact alpha sweep), and 20 run_resilience_trial
rounds on mesh 4x4 for each fault model (node failure p = 1/5, edge
survival p = 4/5, eps = 1/2; each round measures its exact alpha). The
last rows time the other callers of the prune and greedy cut loops:
prune2 on the random 4-regular graph with 18 nodes after edge survival
p = 1/2 (seed 0, eps = 1/2, its fault-free alpha_e; six culls at
--seed 0), shatter_uniform (eps = 1/4) and the greedy attack (budget 3)
on a random 5-regular graph with 18 nodes, and heuristic prune on mesh
6x6 after node failure p = 0.15 (seed 4, alpha = 1, eps = 1/2; four
culls).

Random regular graphs come from the first generator seed at or after
--seed that yields one, since the pairing model can run out of retries.

Usage: python3 benchmarks/bench_kernels.py [--n 20] [--degree 4]
       [--repeat 3] [--seed 0]
"""

from __future__ import annotations

import argparse
import time
import warnings
from fractions import Fraction

from xpand import kernels
from xpand.errors import GenerationError
from xpand.expansion import edge_expansion_exact, subdivided_node_expansion
from xpand.experiments import (
    adversary_exhaustive,
    run_percolation_sweep,
    run_resilience_trial,
    verify_subgraph_count_bound,
)
from xpand.faults import apply_faults, edge_survival_pattern, random_node_faults
from xpand.generators import (
    complete,
    cycle,
    hypercube,
    mesh,
    path,
    random_regular,
    subdivide_edges,
)
from xpand.graph import Graph
from xpand.pruning import attack_greedy_cuts, prune, prune2, shatter_uniform
from xpand.span import span_exact, verify_mesh_span_certificate

SEED_TRIES = 100


def _adj_masks(g: Graph) -> list:
    return kernels.adjacency_masks(g.adjacency)


def _regular(n: int, d: int, seed: int):
    """(seed used, graph): the first seed at or after seed that works."""
    for s in range(seed, seed + SEED_TRIES):
        try:
            return s, random_regular(n, d, s)
        except GenerationError:
            continue
    raise GenerationError(f"no random_regular({n}, {d}) in seeds {seed}+{SEED_TRIES}")


def bench(name, fn, repeat):
    """Print the best of repeat timed calls of fn."""
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    print(f"{name:<36} {best * 1e3:9.2f} ms")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--degree", type=int, default=4)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    seed, g = _regular(args.n, args.degree, args.seed)
    adj = _adj_masks(g)
    n = g.n
    print(f"random {args.degree}-regular graph, n={n}, seed={seed}")

    bench(
        "min_ratio_node_cut",
        lambda: kernels.min_ratio_node_cut(n, adj),
        args.repeat,
    )
    bench(
        "min_ratio_edge_cut",
        lambda: kernels.min_ratio_edge_cut(n, adj),
        args.repeat,
    )
    seed18, r18 = _regular(18, 4, args.seed)
    label = f"rr(18,4) seed {seed18}"
    seed24, r24 = _regular(24, 4, args.seed)
    for name, sg in (
        ("K14", complete(14)),
        (label, r18),
        (f"rr(24,4) seed {seed24}", r24),
        ("K24", complete(24)),
    ):
        sadj = _adj_masks(sg)
        for kernel in ("min_ratio_node_cut", "min_ratio_edge_cut"):
            bench(
                f"{kernel} {name}",
                lambda sg=sg, sadj=sadj, sweep=getattr(kernels, kernel): sweep(sg.n, sadj),
                args.repeat,
            )

    m = mesh((4, 4))
    madj = _adj_masks(m)
    bench(
        "connectivity_table mesh 4x4",
        lambda: kernels.connectivity_table(m.n, madj),
        args.repeat,
    )
    mconn = kernels.connectivity_table(m.n, madj)
    bench(
        "compact_masks mesh 4x4",
        lambda: kernels.compact_masks(mconn),
        args.repeat,
    )
    terms = tuple(range(0, m.n, 5))
    bench(
        "steiner_min_tree mesh 4x4",
        lambda: kernels.steiner_min_tree(m.n, madj, terms),
        args.repeat,
    )

    radj = _adj_masks(r18)
    bench(
        f"connectivity_table {label}",
        lambda: kernels.connectivity_table(r18.n, radj),
        args.repeat,
    )
    rconn = kernels.connectivity_table(r18.n, radj)
    bench(
        f"compact_masks {label}",
        lambda: kernels.compact_masks(rconn),
        args.repeat,
    )
    bench(
        f"connector_lookup {label}",
        lambda: kernels.connector_lookup(rconn),
        args.repeat,
    )
    m24 = mesh((4, 6))
    m24adj = _adj_masks(m24)
    bench(
        "connectivity_table mesh 4x6",
        lambda: kernels.connectivity_table(m24.n, m24adj),
        args.repeat,
    )
    m24conn = kernels.connectivity_table(m24.n, m24adj)
    bench(
        "connector_lookup mesh 4x6",
        lambda: kernels.connector_lookup(m24conn),
        args.repeat,
    )
    del m24conn
    for name, sg in (
        ("mesh 3x6", mesh((3, 6))),
        ("Q4", hypercube(4)),
        (label, r18),
        ("mesh 4x6", mesh((4, 6))),
    ):
        bench(f"span_exact {name}", lambda sg=sg: span_exact(sg), args.repeat)
    for dims in ((3, 6), (2, 3, 3), (4, 6)):
        bench(
            "mesh certificate " + "x".join(map(str, dims)),
            lambda dims=dims: verify_mesh_span_certificate(dims, exhaustive=True),
            args.repeat,
        )

    seed22, r22 = _regular(22, 3, args.seed)
    for name, cg in (("mesh 4x5", mesh((4, 5))), (f"rr(22,3) seed {seed22}", r22)):
        bench(f"census {name}", lambda cg=cg: verify_subgraph_count_bound(cg), args.repeat)

    sparse10 = Graph.from_edges(10, [(0, 1), (2, 3)])
    sparse8 = Graph.from_edges(8, [(0, 4), (0, 7), (2, 5)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the sparse bases are disconnected
        for name, base, k in (
            ("K7", complete(7), 4),
            ("K8", complete(8), 8),
            ("C10", cycle(10), 4),
            ("P10", path(10), 6),
            ("10 nodes, 2 edges", sparse10, 4),
            ("8 nodes, 3 edges", sparse8, 5),
        ):
            h = subdivide_edges(base, k)
            bench(
                f"chain DP {name} k={k} n={h.graph.n}",
                lambda h=h: subdivided_node_expansion(h),
                args.repeat,
            )

    for name, ag, f in (("mesh 4x4", mesh((4, 4)), 1), ("K16", complete(16), 2)):
        bench(
            f"adversary {name} k=2 f={f}",
            lambda ag=ag, f=f: adversary_exhaustive(ag, 2, f),
            args.repeat,
        )

    bench(
        f"percolation --prune {label}",
        lambda: run_percolation_sweep(r18, "node", [Fraction(1, 10)], 20, 0, prune_k=2),
        args.repeat,
    )
    for model, p in (("node", Fraction(1, 5)), ("edge", Fraction(4, 5))):
        bench(
            f"resilience mesh 4x4 {model} x20",
            lambda model=model, p=p: [
                run_resilience_trial(m, model, p, j, 0, Fraction(1, 2)) for j in range(20)
            ],
            args.repeat,
        )

    r18_f, r18_nodes = apply_faults(r18, edge_survival_pattern(r18, 0.5, 0))
    alpha_e18 = edge_expansion_exact(r18).value
    bench(
        f"prune2 {label} survival p=1/2",
        lambda: prune2(r18_f, alpha_e18, Fraction(1, 2), nodes=r18_nodes),
        args.repeat,
    )
    seed5, r5 = _regular(18, 5, args.seed)
    label5 = f"rr(18,5) seed {seed5}"
    bench(f"shatter_uniform {label5}", lambda: shatter_uniform(r5, Fraction(1, 4)), args.repeat)
    bench(f"attack greedy {label5} budget 3", lambda: attack_greedy_cuts(r5, 3), args.repeat)
    m66 = mesh((6, 6))
    m66_f, m66_nodes = apply_faults(m66, random_node_faults(m66, 0.15, 4))
    bench(
        "prune heuristic mesh 6x6 p=0.15",
        lambda: prune(m66_f, Fraction(1), Fraction(1, 2), method="heuristic", nodes=m66_nodes),
        args.repeat,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
