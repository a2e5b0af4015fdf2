"""Times the compiled kernels against the fallback backend (numpy ratio
sweeps and compact-set engine, pure Python elsewhere; the `python`
column) on the same inputs and prints the speedups. Both backends must
agree exactly; this script asserts that while it measures. The last
row times span_exact as the package runs it, on the active backend.

Random regular graphs come from the first generator seed at or after
--seed that yields one, since the pairing model can run out of retries.

Usage: python3 benchmarks/bench_kernels.py [--n 20] [--degree 4]
       [--repeat 3] [--seed 0]
"""

from __future__ import annotations

import argparse
import time

from xpand import kernels
from xpand.errors import GenerationError
from xpand.generators import mesh, random_regular
from xpand.graph import Graph
from xpand.span import span_exact

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


def _time(fn, repeat: int):
    best = None
    value = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        value = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, value


def bench(name, py_fn, cy_fn, repeat, plain=lambda v: v):
    """plain maps a result to a value that == compares exactly."""
    t_py, v_py = _time(py_fn, repeat)
    if cy_fn is None:
        print(f"{name:<32} python {t_py * 1e3:9.2f} ms   (no compiled backend)")
        return
    t_cy, v_cy = _time(cy_fn, repeat)
    assert plain(v_py) == plain(v_cy), f"{name}: backends disagree"
    speedup = t_py / t_cy if t_cy > 0 else float("inf")
    print(
        f"{name:<32} python {t_py * 1e3:9.2f} ms   "
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

    seed, g = _regular(args.n, args.degree, args.seed)
    adj = _adj_masks(g)
    n = g.n
    half = n // 2
    print(f"random {args.degree}-regular graph, n={n}, seed={seed}")

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
        plain=list,
    )
    terms = tuple(range(0, m.n, 5))
    bench(
        "steiner_min_tree mesh 4x4",
        lambda: py.steiner_min_tree(m.n, madj, terms),
        (lambda: cy.steiner_min_tree(m.n, madj, terms)) if cy else None,
        args.repeat,
    )

    seed18, r18 = _regular(18, 4, args.seed)
    radj = _adj_masks(r18)
    label = f"rr(18,4) seed {seed18}"
    bench(
        f"compact_masks {label}",
        lambda: py.compact_masks(r18.n, radj),
        (lambda: cy.compact_masks(r18.n, radj)) if cy else None,
        args.repeat,
        plain=list,
    )
    t_span, _ = _time(lambda: span_exact(r18), args.repeat)
    print(f"{'span_exact ' + label:<32} {kernels.BACKEND:<6} {t_span * 1e3:9.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
