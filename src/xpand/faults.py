"""Fault models: random node faults, random edge survival, targeted attacks.

Randomness policy for the whole package: PCG64 (numpy Generator), one
stream per seed, raw uniform doubles only. Per-node draws are consumed in
ascending node order and per-edge draws in canonical edge order, so every
pattern is reproducible from (graph, p, seed) alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import InputError
from .graph import Graph, canon_nodes
from .manifest import canonical_json

KIND_NODE = "node-faults"
KIND_EDGE = "edge-survival"
# the most draws one call takes: a percolation sweep's trials over all
# its points, a sampled span's attempts, a sampled certificate's samples
MAX_DRAWS = 10**6


def make_rng(seed: int):
    """The PCG64 Generator for a seed; numpy is imported here, on first use."""
    import numpy as np
    seed = int(seed)
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def check_draws(count: int, what: str) -> None:
    """InputError unless 1 <= count <= MAX_DRAWS, before the first draw."""
    if not 1 <= count <= MAX_DRAWS:
        raise InputError(f"{what} must lie in [1, {MAX_DRAWS}]")


def rand_below(rng, k: int) -> int:
    """Uniform int in [0, k) from one double draw."""
    if k <= 0:
        raise InputError("rand_below needs k >= 1")
    v = int(rng.random() * k)
    return k - 1 if v >= k else v


def shuffle_in_place(items: list, rng) -> None:
    """Fisher-Yates on one batch of doubles: the same stream, and the
    same swaps, as rand_below(rng, i + 1) for i from len - 1 down to 1."""
    if len(items) < 2:
        return
    draws = rng.random(len(items) - 1).tolist()
    for i, u in zip(range(len(items) - 1, 0, -1), draws):
        j = min(int(u * (i + 1)), i)
        items[i], items[j] = items[j], items[i]


def json_int(value) -> int:
    """A JSON integer as an int: floats, booleans and strings are an
    InputError, not truncated or coerced."""
    if type(value) is not int:
        raise InputError(f"expected a JSON integer, got {value!r}")
    return value


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
        return canonical_json(payload)

    def fault_count(self, g: Graph) -> int:
        """Faults the pattern puts on g: its failed nodes for node faults,
        the edges of g it does not keep for edge survival."""
        if self.kind == KIND_NODE:
            return len(self.failed_nodes)
        return g.m - len(self.kept_edges)

    @classmethod
    def from_json(cls, text: str) -> "FaultPattern":
        try:
            payload = json.loads(text)
            kind = payload["kind"]
            provenance = payload.get("provenance", {})
            if type(provenance) is not dict:
                got = type(provenance).__name__
                raise InputError(f"provenance must be a JSON object, got {got}")
            if kind == KIND_NODE:
                return cls(
                    kind=kind,
                    failed_nodes=tuple(json_int(v) for v in payload["failed"]),
                    provenance=provenance,
                )
            if kind == KIND_EDGE:
                return cls(
                    kind=kind,
                    kept_edges=tuple(
                        (json_int(u), json_int(v)) for u, v in payload["kept_edges"]
                    ),
                    provenance=provenance,
                )
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError, InputError) as exc:
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


def apply_faults(g: Graph, pattern: FaultPattern) -> tuple:
    """Materialize a pattern against g as (graph, surviving nodes), in
    g's own ids.

    Node faults keep g and the nodes outside the failed set. Edge
    survival keeps every node, on the graph of the listed edges.
    """
    if pattern.kind == KIND_NODE:
        failed = set(canon_nodes(g, pattern.failed_nodes))
        return g, tuple(v for v in range(g.n) if v not in failed)
    if pattern.kind == KIND_EDGE:
        g_edges = set(g.edges())
        for e in pattern.kept_edges:
            if tuple(e) not in g_edges:
                raise InputError(
                    f"kept edge {list(e)} is not an edge of the graph"
                    " (edges are listed as [u, v] with u < v)"
                )
        return Graph.from_edges(g.n, pattern.kept_edges), tuple(range(g.n))
    raise InputError(f"unknown fault pattern kind {pattern.kind!r}")


def attack_chain_centers(h) -> FaultPattern:
    """Fail the central inner node of every chain of a subdivided graph.

    The center is position k/2 counted 1-based from the smaller base
    endpoint; k must be even.
    """
    if h.k % 2 != 0:
        raise InputError("chain-center attack needs even k")
    failed = tuple(sorted(inner[h.k // 2 - 1] for _, _, inner in h.chains))
    return FaultPattern(
        kind=KIND_NODE,
        failed_nodes=failed,
        provenance={"strategy": "chain-centers", "k": h.k, "budget": len(failed)},
    )
