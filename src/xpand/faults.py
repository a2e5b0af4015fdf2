"""Fault models: random node faults, random edge survival, targeted attacks.

Randomness policy for the whole package: PCG64 (numpy Generator), one
stream per seed, raw uniform doubles only. Per-node draws are consumed in
ascending node order and per-edge draws in canonical edge order, so every
pattern is reproducible from (graph, p, seed) alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .graph import Graph, canon_nodes, remove_nodes

KIND_NODE = "node-faults"
KIND_EDGE = "edge-survival"


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


def rand_below(rng: np.random.Generator, k: int) -> int:
    """Uniform int in [0, k) from one double draw."""
    if k <= 0:
        raise InputError("rand_below needs k >= 1")
    v = int(rng.random() * k)
    return k - 1 if v >= k else v


def shuffle_in_place(items: list, rng: np.random.Generator) -> None:
    """Fisher-Yates driven by rand_below, deterministic per stream state."""
    for i in range(len(items) - 1, 0, -1):
        j = rand_below(rng, i + 1)
        items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class FaultPattern:
    """A concrete fault outcome plus how it was produced."""

    kind: str
    failed_nodes: tuple = ()
    kept_edges: tuple = ()
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> str:
        if self.kind == KIND_NODE:
            payload = {
                "kind": self.kind,
                "failed": list(self.failed_nodes),
                "provenance": self.provenance,
            }
        else:
            payload = {
                "kind": self.kind,
                "kept_edges": [[u, v] for u, v in self.kept_edges],
                "provenance": self.provenance,
            }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FaultPattern":
        try:
            payload = json.loads(text)
            kind = payload["kind"]
            if kind == KIND_NODE:
                return cls(
                    kind=kind,
                    failed_nodes=tuple(int(v) for v in payload["failed"]),
                    provenance=dict(payload.get("provenance", {})),
                )
            if kind == KIND_EDGE:
                return cls(
                    kind=kind,
                    kept_edges=tuple(
                        (int(u), int(v)) for u, v in payload["kept_edges"]
                    ),
                    provenance=dict(payload.get("provenance", {})),
                )
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise InputError(f"bad fault pattern: {exc}") from None
        raise InputError(f"unknown fault pattern kind {payload.get('kind')!r}")


def random_node_faults(g: Graph, p: float, seed: int) -> FaultPattern:
    """Each node fails independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise InputError("fault probability must lie in [0,1]")
    rng = make_rng(seed)
    draws = rng.random(g.n)
    failed = tuple(v for v in range(g.n) if draws[v] < p)
    return FaultPattern(
        kind=KIND_NODE,
        failed_nodes=failed,
        provenance={"model": "random-node", "p": p, "seed": int(seed)},
    )


def edge_survival_pattern(g: Graph, p: float, seed: int) -> FaultPattern:
    """Each edge survives independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise InputError("survival probability must lie in [0,1]")
    rng = make_rng(seed)
    edges = list(g.edges())
    draws = rng.random(len(edges))
    kept = tuple(e for i, e in enumerate(edges) if draws[i] < p)
    return FaultPattern(
        kind=KIND_EDGE,
        kept_edges=kept,
        provenance={"model": "random-edge", "p": p, "seed": int(seed)},
    )


def random_edge_survival(g: Graph, p: float, seed: int) -> Graph:
    """Graph on the same nodes keeping each edge with probability p."""
    return apply_faults(g, edge_survival_pattern(g, p, seed))


def apply_faults(g: Graph, pattern: FaultPattern) -> Graph:
    """Materialize a pattern against g.

    Node faults remove nodes (the result carries a node_map). Edge
    survival keeps the node set and the listed edges.
    """
    if pattern.kind == KIND_NODE:
        return remove_nodes(g, canon_nodes(g, pattern.failed_nodes))
    if pattern.kind == KIND_EDGE:
        g_edges = set(g.edges())
        for e in pattern.kept_edges:
            if tuple(e) not in g_edges:
                raise InputError(f"kept edge {e} is not an edge of the graph")
        nm = g.node_map if g.node_map is not None else tuple(range(g.n))
        return Graph.from_edges(g.n, pattern.kept_edges, node_map=nm)
    raise InputError(f"unknown fault pattern kind {pattern.kind!r}")


def attack_chain_centers(h, k: int | None = None) -> FaultPattern:
    """Fail the central inner node of every chain of a subdivided graph.

    The center is position k/2 counted 1-based from the smaller base
    endpoint; k must be even.
    """
    kk = h.k if k is None else int(k)
    if kk != h.k:
        raise InputError(f"k={kk} does not match the subdivision (k={h.k})")
    if kk % 2 != 0:
        raise InputError("chain-center attack needs even k")
    failed = tuple(sorted(inner[kk // 2 - 1] for _, _, inner in h.chains))
    return FaultPattern(
        kind=KIND_NODE,
        failed_nodes=failed,
        provenance={"strategy": "chain-centers", "k": kk, "budget": len(failed)},
    )


def attack_greedy_cuts(g: Graph, budget: int) -> FaultPattern:
    """Repeatedly fail the boundary of the sparsest subset of the largest
    surviving component until the budget is spent: exactly while the
    component fits the exact sweep, heuristically beyond. Deterministic."""
    # imported here, not at module top, to avoid an import cycle
    from .expansion import EXACT_EXPANSION_LIMIT, node_expansion_exact, node_expansion_heuristic
    from .graph import connected_components, induced_subgraph

    budget = int(budget)
    if budget < 0:
        raise InputError("budget must be nonnegative")
    # work on an unmapped copy so sub.original_ids lands in g's own id space
    base = g if g.node_map is None else Graph.from_edges(g.n, g.edges())
    failed: list[int] = []
    alive = base
    while len(failed) < budget and alive.n > 0:
        largest = connected_components(alive)[0]
        sub = induced_subgraph(alive, largest)
        if sub.n < 2:
            break
        if sub.n <= EXACT_EXPANSION_LIMIT:
            res = node_expansion_exact(sub)
        else:
            res = node_expansion_heuristic(sub, trials=32, seed=len(failed))
        target = sub.original_ids(res.witness.node_boundary)
        if not target:
            break
        room = budget - len(failed)
        failed.extend(target[:room])
        alive = remove_nodes(base, sorted(failed))
    return FaultPattern(
        kind=KIND_NODE,
        failed_nodes=tuple(sorted(failed)),
        provenance={"strategy": "greedy-cuts", "budget": budget},
    )
