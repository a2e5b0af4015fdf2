"""Pruning procedures: given a faulty graph and the expansion of the
original, iteratively cull sparse sets until the remainder certifies a
large well-expanding subgraph.

The node variant culls canonical minimizers of |boundary|/|S|; the edge
variant culls the compactified form of edge-ratio minimizers. Both
record a full trace and recheck the telescoping boundary invariant on
every prefix: the boundary of everything culled so far, measured in the
input graph, never exceeds the sum of per-step boundaries, which never
exceeds alpha*eps times the culled size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError, InputError, LimitError
from .expansion import (
    EXACT_EXPANSION_LIMIT,
    edge_expansion_heuristic,
    find_sparse_edge_cut,
    find_sparse_node_cut,
    node_expansion_exact,
    node_expansion_heuristic,
)
from .graph import (
    Graph,
    canon_nodes,
    connected_components,
    edge_boundary,
    induced_subgraph,
    is_compact,
    is_connected,
    is_connected_subset,
    node_boundary,
    remove_nodes,
)


@dataclass(frozen=True)
class PruneStep:
    index: int
    graph_size: int  # nodes alive when the step ran
    nodes: tuple  # culled set, root ids
    raw_nodes: tuple  # set the sparse-cut search found (pre-compactify)
    boundary_size: int  # its node or edge boundary in the current graph
    ratio: Fraction
    compact: bool | None = None  # edge mode only, None when host disconnected


@dataclass(frozen=True)
class PruneTrace:
    mode: str  # "node" or "edge"
    alpha: Fraction
    eps: Fraction
    n_start: int
    steps: tuple
    final_nodes: tuple  # root ids of the surviving subgraph
    certified: bool = True  # exact finders used throughout

    @property
    def removed_total(self) -> int:
        return sum(len(s.nodes) for s in self.steps)

    @property
    def h_size(self) -> int:
        return len(self.final_nodes)

    def to_payload(self) -> dict:
        return {
            "mode": self.mode,
            "certified": self.certified,
            "alpha": {"num": self.alpha.numerator, "den": self.alpha.denominator},
            "eps": {"num": self.eps.numerator, "den": self.eps.denominator},
            "n_start": self.n_start,
            "steps": [
                {
                    "index": s.index,
                    "graph_size": s.graph_size,
                    "nodes": list(s.nodes),
                    "raw_nodes": list(s.raw_nodes),
                    "boundary_size": s.boundary_size,
                    "ratio": {"num": s.ratio.numerator, "den": s.ratio.denominator},
                    **({"compact": s.compact} if self.mode == "edge" else {}),
                }
                for s in self.steps
            ],
            "final_nodes": list(self.final_nodes),
            "removed_total": self.removed_total,
            "h_size": self.h_size,
        }


def _validate_params(alpha: Fraction, eps: Fraction) -> None:
    if alpha <= 0:
        raise InputError("alpha must be positive; a disconnected original has no guarantee")
    if not 0 < eps < 1:
        raise InputError("eps must lie strictly between 0 and 1")


def _boundary_size(g: Graph, s, mode: str) -> int:
    """|node boundary| or |edge boundary| of s in g, by mode."""
    if mode == "node":
        return len(node_boundary(g, s))
    return len(edge_boundary(g, s))


def _prefix_row(g_f: Graph, mode: str, union_root) -> tuple:
    """(union_boundary, union_size) of the sets culled so far, their
    union measured in the faulty graph g_f."""
    union_local = g_f.local_ids(union_root)
    return _boundary_size(g_f, union_local, mode), len(union_local)


def _compact_cull(g: Graph, s: tuple) -> tuple:
    """Turn a connected set with 2|s| <= n into a compact one whose
    edge ratio is no worse; see compactify for the three cases."""
    if 2 * len(s) > g.n:
        raise ContractError("compact cull needs 2|s| <= n")
    rest = sorted(set(range(g.n)) - set(s))
    comps = connected_components(g, rest)
    if len(comps) == 1:
        return s
    big = [c for c in comps if 2 * len(c) >= g.n]
    if big:
        keep = set(big[0])
        return tuple(v for v in range(g.n) if v not in keep)
    best = None
    for c in comps:
        ratio = Fraction(len(edge_boundary(g, c)), len(c))
        key = (ratio, len(c), c)
        if best is None or key < best:
            best = key
    return best[2]


def compactify(g: Graph, s) -> tuple:
    """Replace a connected set by a compact set with edge ratio no
    worse than the input's.

    Host must be connected (three disjoint triangles show the guarantee
    fails otherwise) and 2|s| < n. Case analysis on the complement's
    components: complement connected keeps s; a component holding at
    least half the graph gets complemented away; otherwise the best
    edge-ratio component wins.
    """
    s_t = canon_nodes(g, s)
    if not s_t:
        raise InputError("compactify needs a nonempty set")
    if not is_connected(g):
        raise InputError("compactify needs a connected host graph")
    if not is_connected_subset(g, s_t):
        raise InputError("compactify needs a connected set")
    if 2 * len(s_t) >= g.n:
        raise InputError("compactify needs 2|s| < n")
    out = _compact_cull(g, s_t)
    if not is_compact(g, out):
        raise ContractError("compactify produced a non-compact set")
    return out


def _heuristic_cut(cur: Graph, mode: str, threshold: Fraction, index: int):
    """Propose a cull set without the exact sweep: take the heuristic
    expansion witness and accept it only if it meets the loop condition.
    Misses cuts the exact finder would see, hence certified=False."""
    fn = node_expansion_heuristic if mode == "node" else edge_expansion_heuristic
    wit = fn(cur, trials=8, seed=index).witness
    s = () if wit is None else wit.set
    if not s or 2 * len(s) > cur.n:
        return None
    if Fraction(_boundary_size(cur, s, mode), len(s)) <= threshold:
        return tuple(s)
    return None


def _prune_loop(
    g_f: Graph,
    alpha: Fraction,
    eps: Fraction,
    mode: str,
    method: str = "exact",
) -> PruneTrace:
    _validate_params(alpha, eps)
    if method not in ("exact", "heuristic"):
        raise InputError(f"unknown prune method {method!r}")
    find_sparse_cut = find_sparse_node_cut if mode == "node" else find_sparse_edge_cut
    cur = g_f
    steps = []
    union_root: list = []
    bnd_sum = 0
    threshold = alpha * eps
    while True:
        if method == "heuristic":
            raw_local = _heuristic_cut(cur, mode, threshold, len(steps))
        else:
            found = find_sparse_cut(cur, alpha, eps)
            raw_local = None if found is None else found.set
        if raw_local is None:
            break
        compact_flag = None
        cull_local = raw_local
        # edge mode compactifies; across components there is no
        # compactness guarantee, so the set is culled as found
        if mode == "edge" and is_connected(cur) and is_connected_subset(cur, raw_local):
            cull_local = _compact_cull(cur, raw_local)
            compact_flag = is_compact(cur, cull_local)
            if not compact_flag:
                raise ContractError("edge prune culled a non-compact set")
        bnd = _boundary_size(cur, cull_local, mode)
        ratio = Fraction(bnd, len(cull_local))
        if ratio > threshold:
            raise ContractError("culled set exceeded the cull threshold")
        nodes_root = cur.original_ids(cull_local)
        raw_root = cur.original_ids(raw_local)
        steps.append(
            PruneStep(
                index=len(steps),
                graph_size=cur.n,
                nodes=nodes_root,
                raw_nodes=raw_root,
                boundary_size=bnd,
                ratio=ratio,
                compact=compact_flag,
            )
        )
        union_root.extend(nodes_root)
        bnd_sum += bnd
        union_bnd, union_size = _prefix_row(g_f, mode, union_root)
        if union_bnd > bnd_sum:
            raise ContractError("union boundary exceeded the per-step boundary sum")
        if bnd_sum > threshold * union_size:
            raise ContractError("boundary sum exceeded alpha*eps times the culled size")
        cur = remove_nodes(cur, cull_local)
    return PruneTrace(
        mode=mode,
        alpha=alpha,
        eps=eps,
        n_start=g_f.n,
        steps=tuple(steps),
        final_nodes=cur.original_ids(range(cur.n)),
        certified=method == "exact",
    )


def prune(
    g_faulty: Graph,
    alpha: Fraction,
    eps: Fraction,
    *,
    method: str = "exact",
) -> PruneTrace:
    """Node pruning: repeatedly cull the canonical minimizer S with
    |boundary(S)| <= alpha*eps*|S|, |S| <= half the current graph.
    alpha is the node expansion of the original fault-free graph.

    method="heuristic" lifts the size limit but may stop early, so the
    loop-exit contract no longer holds and the trace is not certified.
    """
    return _prune_loop(g_faulty, Fraction(alpha), Fraction(eps), "node", method)


def prune2(
    g_faulty: Graph,
    alpha_e: Fraction,
    eps: Fraction,
    *,
    method: str = "exact",
) -> PruneTrace:
    """Edge pruning: like prune but on edge boundaries, and each culled
    set is first compactified, which never worsens its edge ratio.
    alpha_e is the edge expansion of the original fault-free graph."""
    return _prune_loop(g_faulty, Fraction(alpha_e), Fraction(eps), "edge", method)


def union_boundary_check(g_f: Graph, trace: PruneTrace) -> list:
    """Recompute the prefix invariant of a trace from scratch against
    the faulty graph it was produced on. Returns one dict per prefix;
    every 'ok' must be True for a trace produced by prune or prune2."""
    out = []
    union_root: list = []
    bnd_sum = 0
    threshold = trace.alpha * trace.eps
    for step in trace.steps:
        union_root.extend(step.nodes)
        bnd_sum += step.boundary_size
        union_bnd, union_size = _prefix_row(g_f, trace.mode, union_root)
        ok = union_bnd <= bnd_sum and Fraction(bnd_sum) <= threshold * union_size
        out.append(
            {
                "prefix": step.index + 1,
                "union_boundary": union_bnd,
                "boundary_sum": bnd_sum,
                "union_size": union_size,
                "ok": ok,
            }
        )
    return out


def size_lower_bound(n: int, alpha: Fraction, k: int, f: int) -> Fraction:
    """Guaranteed surviving size after f faults with eps = 1 - 1/k."""
    return Fraction(n) - Fraction(k * f) / alpha


def expansion_lower_bound(alpha: Fraction, k: int) -> Fraction:
    """Guaranteed expansion of the survivor, eps = 1 - 1/k."""
    return (1 - Fraction(1, k)) * alpha


def hypothesis_ok(n: int, alpha: Fraction, k: int, f: int) -> bool:
    """Precondition for the guarantees: k*f/alpha <= n/4."""
    return Fraction(k * f) / alpha <= Fraction(n, 4)


@dataclass(frozen=True)
class ShatterStep:
    index: int
    component_size: int
    picked: tuple  # root ids of the chosen set U
    removed: tuple  # root ids of its failed boundary


@dataclass(frozen=True)
class ShatterResult:
    eps: Fraction
    n: int
    failed: tuple  # all failed nodes, root ids, sorted
    steps: tuple
    components: tuple  # final components, root ids, canonical order

    @property
    def total_failed(self) -> int:
        return len(self.failed)

    def to_payload(self) -> dict:
        return {
            "eps": {"num": self.eps.numerator, "den": self.eps.denominator},
            "n": self.n,
            "failed": list(self.failed),
            "steps": [
                {
                    "index": s.index,
                    "component_size": s.component_size,
                    "picked": list(s.picked),
                    "removed": list(s.removed),
                }
                for s in self.steps
            ],
            "components": [list(c) for c in self.components],
            "total_failed": self.total_failed,
        }


def shatter_uniform(g: Graph, eps: Fraction) -> ShatterResult:
    """Fail node boundaries until every component has at most eps*n
    nodes: the lower-bound construction showing how few faults suffice
    to break the graph into small pieces.

    While some component is strictly larger than eps*n, the canonical
    min node-ratio set of the largest component is picked and its
    boundary failed.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise InputError("eps must lie in (0, 1]")
    if g.n < 1:
        raise InputError("shatter needs a nonempty graph")
    if eps * g.n < 1:
        raise InputError("eps*n below 1 would demand empty components")
    if g.n > EXACT_EXPANSION_LIMIT:
        raise LimitError(f"shatter is limited to n <= {EXACT_EXPANSION_LIMIT}, got n={g.n}")
    target = eps * g.n
    cur = g
    steps = []
    failed_root: list = []
    while True:
        comps = connected_components(cur)
        if not comps or len(comps[0]) <= target:
            break
        sub = induced_subgraph(cur, comps[0])
        witness = node_expansion_exact(sub).witness
        picked_root = sub.original_ids(witness.set)
        removed_root = sub.original_ids(witness.node_boundary)
        steps.append(
            ShatterStep(
                index=len(steps),
                component_size=len(comps[0]),
                picked=picked_root,
                removed=removed_root,
            )
        )
        failed_root.extend(removed_root)
        cur = remove_nodes(cur, cur.local_ids(removed_root))
    final_comps = tuple(cur.original_ids(c) for c in connected_components(cur))
    return ShatterResult(
        eps=eps,
        n=g.n,
        failed=tuple(sorted(failed_root)),
        steps=tuple(steps),
        components=final_comps,
    )
