"""Pruning procedures: given a faulty graph and the expansion of the
original, iteratively cull sparse sets until the remainder certifies a
large well-expanding subgraph.

The node variant culls canonical minimizers of |boundary|/|S|; the edge
variant culls the compactified form of edge-ratio minimizers. Both
record a full trace, and prune itself enforces the telescoping boundary
invariant on every prefix of it, raising ContractError at the first
that fails: the boundary of everything culled so far, measured in the
input graph, never exceeds the sum of per-step boundaries, which never
exceeds alpha*eps times the culled size.

The exact loop ends on a sweep of the survivor H that finds no sparse
set, and that sweep's minimum ratio over |S| <= |H|/2 is H's exact
expansion in the loop's mode, so the trace carries H's grade
(h_expansion, 0 below two nodes) and H is never swept again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import ContractError, InputError
from .expansion import _min_ratio_cut, edge_expansion_heuristic, node_expansion_heuristic
from .faults import KIND_NODE, FaultPattern
from .graph import (
    Graph,
    canon_nodes,
    connected_components,
    edge_boundary,
    is_compact,
    is_connected,
    is_connected_subset,
    node_boundary,
)


@dataclass(frozen=True)
class PruneStep:
    index: int
    graph_size: int  # nodes alive when the step ran
    nodes: tuple  # culled set
    raw_nodes: tuple  # set the sparse-cut search found (pre-compactify)
    boundary_size: int  # its node or edge boundary in the current graph
    ratio: Fraction
    compact: bool | None = None  # edge mode only, None when host disconnected


@dataclass(frozen=True)
class PruneTrace:
    """One pruning run. h_expansion grades the survivor H: for the exact
    method it is H's exact expansion in the run's mode, read from the
    loop's last sweep, the one that found no sparse set, and 0 when
    |H| < 2 (such H is not swept); the heuristic method leaves it None.
    An exact H with at least 2 nodes is connected: its smallest
    component would have ratio 0 and at most |H|/2 nodes, and would have
    been culled. h_expansion stays out of the payload, so reports and
    their digests do not change."""

    mode: str  # "node" or "edge"
    alpha: Fraction
    eps: Fraction
    n_start: int
    steps: tuple
    final_nodes: tuple  # nodes of the surviving subgraph
    certified: bool = True  # exact finders used throughout
    h_expansion: Fraction | None = None

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


def _compact_cull(g: Graph, alive: set, s: tuple) -> tuple:
    """Turn a connected set with 2|s| <= |alive| into one that is compact
    in the subgraph of g induced by alive and whose edge ratio there is
    no worse; see compactify for the three cases."""
    if 2 * len(s) > len(alive):
        raise ContractError("compact cull needs 2|s| <= n")
    comps = connected_components(g, alive.difference(s))
    if len(comps) == 1:
        return s
    big = [c for c in comps if 2 * len(c) >= len(alive)]
    if big:
        return tuple(sorted(alive.difference(big[0])))
    best = None
    for c in comps:
        ratio = Fraction(len(edge_boundary(g, c, alive)), len(c))
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
    out = _compact_cull(g, set(range(g.n)), s_t)
    if not is_compact(g, out):
        raise ContractError("compactify produced a non-compact set")
    return out


def _heuristic_cut(g: Graph, alive, mode: str, threshold: Fraction, index: int):
    """Propose a cull set without the exact sweep: take the heuristic
    expansion witness of the subgraph of g induced by alive and accept
    it only if it meets the loop condition (its size is at most half of
    alive, so its ratio is the loop's). Misses cuts the exact finder
    would see, hence certified=False."""
    fn = node_expansion_heuristic if mode == "node" else edge_expansion_heuristic
    res = fn(g, trials=8, seed=index, nodes=alive)
    return res.witness.set if res.value <= threshold else None


def _prune_loop(
    g: Graph,
    alpha: Fraction,
    eps: Fraction,
    mode: str,
    method: str = "exact",
    nodes=None,
) -> PruneTrace:
    """Prune the subgraph of g induced by nodes, all of g by default.
    The loop keeps its nodes, its culls and the survivor in g's own
    ids, and checks the finished trace's prefix invariant once, by
    union_boundary_check."""
    _validate_params(alpha, eps)
    if method not in ("exact", "heuristic"):
        raise InputError(f"unknown prune method {method!r}")
    alive = set(range(g.n) if nodes is None else canon_nodes(g, nodes))
    n_start = len(alive)
    boundary = node_boundary if mode == "node" else edge_boundary
    steps = []
    threshold = alpha * eps
    value = None  # the last exact sweep's minimum ratio
    while len(alive) >= 2:
        if method == "heuristic":
            raw = _heuristic_cut(g, alive, mode, threshold, len(steps))
        else:
            value, raw = _min_ratio_cut(g, alive, mode)
            if value > threshold:
                raw = None
        if raw is None:
            break
        compact_flag = None
        cull = raw
        # edge mode compactifies; across components there is no
        # compactness guarantee, so the set is culled as found
        if mode == "edge" and is_connected_subset(g, alive) and is_connected_subset(g, raw):
            cull = _compact_cull(g, alive, raw)
            rest = alive.difference(cull)
            compact_flag = is_connected_subset(g, cull) and is_connected_subset(g, rest)
            if not compact_flag:
                raise ContractError("edge prune culled a non-compact set")
        bnd = len(boundary(g, cull, alive))
        ratio = Fraction(bnd, len(cull))
        if ratio > threshold:
            raise ContractError("culled set exceeded the cull threshold")
        steps.append(
            PruneStep(
                index=len(steps),
                graph_size=len(alive),
                nodes=tuple(sorted(cull)),
                raw_nodes=tuple(sorted(raw)),
                boundary_size=bnd,
                ratio=ratio,
                compact=compact_flag,
            )
        )
        alive.difference_update(cull)
    trace = PruneTrace(
        mode=mode,
        alpha=alpha,
        eps=eps,
        n_start=n_start,
        steps=tuple(steps),
        final_nodes=tuple(sorted(alive)),
        certified=method == "exact",
        # an exact survivor below 2 nodes is not swept; its grade is 0
        h_expansion=(value if len(alive) >= 2 else Fraction(0)) if method == "exact" else None,
    )
    for row in union_boundary_check(g, trace):
        if not row["ok"]:
            raise ContractError(f"prefix {row['prefix']} broke the boundary invariant: {row}")
    return trace


def prune(
    g: Graph,
    alpha: Fraction,
    eps: Fraction,
    *,
    method: str = "exact",
    nodes=None,
) -> PruneTrace:
    """Node pruning of the faulty graph (g, nodes), the subgraph of g
    induced by nodes (all of g by default): repeatedly cull the
    canonical minimizer S with |boundary(S)| <= alpha*eps*|S|, |S| <=
    half the current graph. alpha is the node expansion of the original
    fault-free graph. The trace is in g's ids.

    method="heuristic" lifts the size limit but may stop early, so the
    loop-exit contract no longer holds and the trace is not certified.
    """
    return _prune_loop(g, Fraction(alpha), Fraction(eps), "node", method, nodes)


def prune2(
    g: Graph,
    alpha_e: Fraction,
    eps: Fraction,
    *,
    method: str = "exact",
    nodes=None,
) -> PruneTrace:
    """Edge pruning: like prune but on edge boundaries, and each culled
    set is first compactified, which never worsens its edge ratio.
    alpha_e is the edge expansion of the original fault-free graph."""
    return _prune_loop(g, Fraction(alpha_e), Fraction(eps), "edge", method, nodes)


def union_boundary_check(g: Graph, trace: PruneTrace) -> list:
    """The prefix invariant of a trace, one dict per prefix, measured in
    the graph it was produced on and on the trace's own nodes, its culls
    plus its survivor: the nodes prune or prune2 was given. prune and
    prune2 run it on every trace they return, so every 'ok' is True for
    a trace they produced."""
    nodes = set(trace.final_nodes).union(*(step.nodes for step in trace.steps))
    boundary = node_boundary if trace.mode == "node" else edge_boundary
    out = []
    union: list = []
    bnd_sum = 0
    threshold = trace.alpha * trace.eps
    for step in trace.steps:
        union.extend(step.nodes)
        bnd_sum += step.boundary_size
        union_bnd = len(boundary(g, union, nodes))
        ok = union_bnd <= bnd_sum and Fraction(bnd_sum) <= threshold * len(union)
        out.append(
            {
                "prefix": step.index + 1,
                "union_boundary": union_bnd,
                "boundary_sum": bnd_sum,
                "union_size": len(union),
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
    picked: tuple  # the chosen set U
    removed: tuple  # its failed boundary


@dataclass(frozen=True)
class ShatterResult:
    eps: Fraction
    n: int
    failed: tuple  # all failed nodes, sorted
    steps: tuple
    components: tuple  # final components, canonical order

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


def _greedy_cuts(g: Graph, stop):
    """Fail the boundary of the canonical min node-ratio set of the
    largest surviving component until stop(that component's size, nodes
    failed so far) holds or it has a single node. The set is exact while
    the component fits the exact sweep and heuristic beyond, seeded by
    the nodes failed so far. Returns (the surviving nodes, the cuts as
    (component size, picked set, failed boundary)), all in g's own ids."""
    alive = set(range(g.n))
    cuts = []
    failed = 0
    while True:
        comps = connected_components(g, alive)
        if not comps or len(comps[0]) < 2 or stop(len(comps[0]), failed):
            break
        comp = comps[0]
        if len(comp) <= kernels.EXACT_MAX_N:
            picked = _min_ratio_cut(g, comp, "node")[1]
        else:
            picked = node_expansion_heuristic(g, trials=32, seed=failed, nodes=comp).witness.set
        removed = node_boundary(g, picked, alive)
        if not removed:
            break
        cuts.append((len(comp), picked, removed))
        failed += len(removed)
        alive.difference_update(removed)
    return alive, cuts


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
    kernels.exact_limit(g.n)
    target = eps * g.n
    alive, cuts = _greedy_cuts(g, lambda size, _failed: size <= target)
    steps = tuple(
        ShatterStep(i, size, picked, removed) for i, (size, picked, removed) in enumerate(cuts)
    )
    return ShatterResult(
        eps=eps,
        n=g.n,
        failed=tuple(sorted(v for s in steps for v in s.removed)),
        steps=steps,
        components=tuple(connected_components(g, alive)),
    )


def attack_greedy_cuts(g: Graph, budget: int) -> FaultPattern:
    """Repeatedly fail the boundary of the sparsest subset of the largest
    surviving component until the budget is spent: exactly while the
    component fits the exact sweep, heuristically beyond. Deterministic."""
    budget = int(budget)
    if budget < 0:
        raise InputError("budget must be nonnegative")
    _alive, cuts = _greedy_cuts(g, lambda _size, failed: failed >= budget)
    failed = [v for _size, _picked, removed in cuts for v in removed][:budget]
    return FaultPattern(
        kind=KIND_NODE,
        failed_nodes=tuple(sorted(failed)),
        provenance={"strategy": "greedy-cuts", "budget": budget},
    )
