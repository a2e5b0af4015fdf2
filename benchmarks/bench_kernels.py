"""Times the compiled kernels against the fallback backend (numpy ratio
sweeps, pure Python elsewhere; the `python` column) on the same inputs
and prints the speedups. Both backends must agree exactly; this script
asserts that while it measures.

Usage: python3 benchmarks/bench_kernels.py [--n 20] [--degree 4]
       [--repeat 3] [--seed 0]
"""

from __future__ import annotations

import argparse
import time

from xpand import kernels
from xpand.generators import mesh, random_regular
from xpand.graph import Graph


def _adj_masks(g: Graph) -> list:
    return kernels.adjacency_masks(g.adjacency)


def _time(fn, repeat: int):
    best = None
    value = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        value = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, value


def bench(name, py_fn, cy_fn, repeat):
    t_py, v_py = _time(py_fn, repeat)
    if cy_fn is None:
        print(f"{name:<28} python {t_py * 1e3:9.2f} ms   (no compiled backend)")
        return
    t_cy, v_cy = _time(cy_fn, repeat)
    assert v_py == v_cy, f"{name}: backends disagree"
    speedup = t_py / t_cy if t_cy > 0 else float("inf")
    print(
        f"{name:<28} python {t_py * 1e3:9.2f} ms   "
        f"cython {t_cy * 1e3:9.2f} ms   x{speedup:6.1f}"
    )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--degree", type=int, default=4)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    py = kernels.get_backend("python")
    try:
        cy = kernels.get_backend("cython")
    except Exception:
        cy = None
    print(f"active backend: {kernels.BACKEND}")

    g = random_regular(args.n, args.degree, args.seed)
    adj = _adj_masks(g)
    n = g.n
    half = n // 2
    print(f"random {args.degree}-regular graph, n={n}")

    bench(
        "min_ratio_node_cut",
        lambda: py.min_ratio_node_cut(n, adj, half),
        (lambda: cy.min_ratio_node_cut(n, adj, half)) if cy else None,
        args.repeat,
    )
    bench(
        "min_ratio_edge_cut",
        lambda: py.min_ratio_edge_cut(n, adj, half),
        (lambda: cy.min_ratio_edge_cut(n, adj, half)) if cy else None,
        args.repeat,
    )

    m = mesh((4, 4))
    madj = _adj_masks(m)
    bench(
        "compact_masks mesh 4x4",
        lambda: py.compact_masks(m.n, madj),
        (lambda: cy.compact_masks(m.n, madj)) if cy else None,
        args.repeat,
    )
    terms = tuple(range(0, m.n, 5))
    bench(
        "steiner_min_tree mesh 4x4",
        lambda: py.steiner_min_tree(m.n, madj, terms),
        (lambda: cy.steiner_min_tree(m.n, madj, terms)) if cy else None,
        args.repeat,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
