"""Node and edge expansion: exact small-scale sweeps, scalable
heuristic upper bounds, and an exact chain-decomposition solver for
subdivided graphs that full sweeps cannot reach.

Node expansion minimizes |outer node boundary| / |S|, edge expansion
|edge boundary| / min(|S|, n-|S|), both over nonempty S with
|S| <= floor(n/2). Values are exact Fractions; every exact routine
returns the canonical witness under the (ratio, size, lex set)
tie-break.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import ContractError, InputError, LimitError
from .faults import make_rng
from .generators import SubdividedGraph
from .graph import Cut, Graph, make_cut

EXACT_EXPANSION_LIMIT = 24
SUBDIV_BASE_LIMIT = 10
SUBDIV_CHAIN_LIMIT = 16
_INF32 = np.int32(1 << 20)


@dataclass(frozen=True)
class ExpansionResult:
    mode: str  # "node" or "edge"
    method: str  # "exact", "heuristic" or "chain-dp"
    value: Fraction
    witness: Cut | None

    def to_payload(self) -> dict:
        out = {
            "mode": self.mode,
            "method": self.method,
            "value_num": self.value.numerator,
            "value_den": self.value.denominator,
        }
        if self.witness is not None:
            out["witness"] = list(self.witness.set)
        return out


def _min_ratio_cut(g: Graph, mode: str, limit: int, what: str):
    """(ratio, mask) of the canonical minimizer over 1 <= |S| <= n/2;
    needs n >= 2."""
    if g.n > limit:
        raise LimitError(f"{what} is limited to n <= {limit}, got n={g.n}")
    sweep = kernels.min_ratio_node_cut if mode == "node" else kernels.min_ratio_edge_cut
    bnd, size, mask = sweep(g.n, kernels.adjacency_masks(g.adjacency), g.n // 2)
    return Fraction(bnd, size), mask


def _expansion_exact(g: Graph, mode: str, limit: int) -> ExpansionResult:
    if g.n < 2:
        raise InputError("expansion needs at least 2 nodes")
    value, mask = _min_ratio_cut(g, mode, limit, "exact expansion")
    if value == 0:
        warnings.warn(f"graph is disconnected, {mode} expansion is 0", stacklevel=3)
    return ExpansionResult(mode, "exact", value, make_cut(g, kernels.mask_nodes(mask)))


def node_expansion_exact(g: Graph, *, limit: int = EXACT_EXPANSION_LIMIT) -> ExpansionResult:
    return _expansion_exact(g, "node", limit)


def edge_expansion_exact(g: Graph, *, limit: int = EXACT_EXPANSION_LIMIT) -> ExpansionResult:
    return _expansion_exact(g, "edge", limit)


def _sparse_cut(g: Graph, mode: str, threshold: Fraction, limit: int):
    if g.n < 2:
        return None
    value, mask = _min_ratio_cut(g, mode, limit, "sparse-cut search")
    if value > threshold:
        return None
    return make_cut(g, kernels.mask_nodes(mask))


def find_sparse_node_cut(
    g: Graph, alpha: Fraction, eps: Fraction, *, limit: int = EXACT_EXPANSION_LIMIT
):
    """Canonical minimizer S with |boundary(S)| <= alpha*eps*|S| and
    |S| <= floor(n/2), or None when no such set exists."""
    return _sparse_cut(g, "node", alpha * eps, limit)


def find_sparse_edge_cut(
    g: Graph, alpha_e: Fraction, eps: Fraction, *, limit: int = EXACT_EXPANSION_LIMIT
):
    """Canonical minimizer S with |edge boundary(S)| <= alpha_e*eps*|S|
    and |S| <= floor(n/2), or None. The winner is always connected."""
    return _sparse_cut(g, "edge", alpha_e * eps, limit)


def _better_cut(a: Cut, b: Cut, mode: str) -> bool:
    ra = a.node_ratio if mode == "node" else a.edge_ratio
    rb = b.node_ratio if mode == "node" else b.edge_ratio
    if ra != rb:
        return ra < rb
    if len(a.set) != len(b.set):
        return len(a.set) < len(b.set)
    return a.set < b.set


def _heuristic(g: Graph, mode: str, trials: int, seed: int) -> ExpansionResult:
    if g.n < 2:
        raise InputError("expansion needs at least 2 nodes")
    max_size = g.n // 2
    rng = make_rng(seed)
    if g.n <= trials:
        starts = list(range(g.n))
    else:
        pool = list(range(g.n))
        from .faults import shuffle_in_place

        shuffle_in_place(pool, rng)
        starts = sorted(pool[:trials])
    best: Cut | None = None
    for start in starts:
        # breadth-first prefixes, ties in ascending id order
        order = [start]
        seen = {start}
        head = 0
        while head < len(order):
            for u in g.adjacency[order[head]]:
                if u not in seen:
                    seen.add(u)
                    order.append(u)
            head += 1
        for length in range(1, max_size + 1):
            cut = make_cut(g, order[:length])
            if best is None or _better_cut(cut, best, mode):
                best = cut
    if best is None:
        raise ContractError("heuristic sweep produced no candidate set")
    # first-improvement swaps around the best prefix
    for _ in range(20):
        improved = False
        members = set(best.set)
        candidates = sorted(set(best.set) | set(best.node_boundary))
        for v in candidates:
            if v in members:
                if len(members) == 1:
                    continue
                trial_set = sorted(members - {v})
            else:
                if len(members) == max_size:
                    continue
                trial_set = sorted(members | {v})
            cut = make_cut(g, trial_set)
            if _better_cut(cut, best, mode):
                best = cut
                improved = True
                break
        if not improved:
            break
    value = best.node_ratio if mode == "node" else best.edge_ratio
    return ExpansionResult(mode, "heuristic", value, best)


def node_expansion_heuristic(g: Graph, *, trials: int = 16, seed: int = 0) -> ExpansionResult:
    """Upper bound on node expansion from seeded sweeps; exact value is
    always <= the value reported here."""
    return _heuristic(g, "node", int(trials), int(seed))


def edge_expansion_heuristic(g: Graph, *, trials: int = 16, seed: int = 0) -> ExpansionResult:
    return _heuristic(g, "edge", int(trials), int(seed))


def _chain_config_tables(k: int, a: int, b: int):
    """Per-chain DP tables for endpoint membership (a, b).

    For every inner subset P of a k-chain: cost is the number of inner
    nodes outside P adjacent to P or to a member endpoint; fu/fv say
    whether the chain puts a free endpoint on the boundary. Returns
    {(fu, fv): (min_cost_by_p, argmin_P_by_p)} with canonical argmin
    (smallest P bitmask).
    """
    tables: dict = {}
    for pmask in range(1 << k):
        cost = 0
        for j in range(k):
            if (pmask >> j) & 1:
                continue
            left = (pmask >> (j - 1)) & 1 if j > 0 else a
            right = (pmask >> (j + 1)) & 1 if j < k - 1 else b
            if left or right:
                cost += 1
        fu = 0 if a else (pmask & 1)
        fv = 0 if b else ((pmask >> (k - 1)) & 1)
        p = pmask.bit_count()
        key = (fu, fv)
        if key not in tables:
            tables[key] = ([1 << 20] * (k + 1), [None] * (k + 1))
        costs, args = tables[key]
        if cost < costs[p]:
            costs[p] = cost
            args[p] = pmask
    return tables


def subdivided_node_expansion(h: SubdividedGraph) -> ExpansionResult:
    """Exact node expansion of a subdivided graph by dynamic programming
    over its chains, feasible far beyond the full-sweep limit.

    States track which base nodes are in the set and which free base
    nodes the chains have already pushed onto the boundary; inner nodes
    only interact through their own chain, so each chain contributes an
    independent table. The reported witness is rebuilt from the DP and
    revalidated against the graph; it is a true minimizer but not
    necessarily the canonical one.
    """
    g = h.graph
    nb = len(h.base_nodes)
    if nb > SUBDIV_BASE_LIMIT:
        raise LimitError(f"chain DP is limited to base n <= {SUBDIV_BASE_LIMIT}")
    if h.k > SUBDIV_CHAIN_LIMIT:
        raise LimitError(f"chain DP is limited to k <= {SUBDIV_CHAIN_LIMIT}")
    if g.n < 2:
        raise InputError("expansion needs at least 2 nodes")
    half = g.n // 2
    tables = {
        (a, b): _chain_config_tables(h.k, a, b) for a in (0, 1) for b in (0, 1)
    }

    best = None  # (bnd, size, B, F, s)
    best_states = None
    for bmask in range(1 << nb):
        nb_in = bmask.bit_count()
        if nb_in > half:
            continue
        cap = half - nb_in  # max total inner nodes
        width = cap + 1
        dp = {0: np.full(width, _INF32, dtype=np.int32)}
        dp[0][0] = 0
        states = [dict(dp)]
        for u, v, _inner in h.chains:
            a = (bmask >> u) & 1
            b = (bmask >> v) & 1
            table = tables[(a, b)]
            ndp: dict = {}
            for fmask, arr in dp.items():
                for (fu, fv), (costs, _args) in table.items():
                    fbits = (fu << u) | (fv << v)
                    dest = fmask | fbits
                    tgt = ndp.get(dest)
                    if tgt is None:
                        tgt = np.full(width, _INF32, dtype=np.int32)
                        ndp[dest] = tgt
                    for p in range(min(h.k, cap) + 1):
                        c = costs[p]
                        if c >= 1 << 20:
                            continue
                        if p == 0:
                            np.minimum(tgt, arr + c, out=tgt)
                        else:
                            np.minimum(tgt[p:], arr[:width - p] + c, out=tgt[p:])
            dp = ndp
            states.append(dict(dp))
        for fmask in sorted(dp):
            arr = dp[fmask]
            fcount = fmask.bit_count()
            for s in range(width):
                size = nb_in + s
                if size < 1 or arr[s] >= _INF32:
                    continue
                bnd = int(arr[s]) + fcount
                if best is None or bnd * best[1] < best[0] * size or (
                    bnd * best[1] == best[0] * size and size < best[1]
                ):
                    best = (bnd, size, bmask, fmask, s)
                    best_states = states
    if best is None:
        raise ContractError("chain DP found no feasible set")
    value = Fraction(best[0], best[1])
    witness = _reconstruct_subdiv_witness(h, tables, best, best_states)
    cut = make_cut(g, witness)
    if Fraction(len(cut.node_boundary), len(cut.set)) != value:
        raise ContractError("chain DP witness does not match its value")
    if value == 0:
        warnings.warn("graph is disconnected, node expansion is 0", stacklevel=2)
    return ExpansionResult("node", "chain-dp", value, cut)


def _reconstruct_subdiv_witness(h: SubdividedGraph, tables, best, states) -> list:
    _bnd, _size, bmask, fmask, s = best
    inner_total = s
    cur_f = fmask
    cur_s = s
    picks = [None] * len(h.chains)
    cur_val = int(states[-1][cur_f][cur_s])
    for i in range(len(h.chains) - 1, -1, -1):
        u, v, _inner = h.chains[i]
        a = (bmask >> u) & 1
        b = (bmask >> v) & 1
        table = tables[(a, b)]
        prev_dp = states[i]
        found = False
        for (fu, fv) in sorted(table):
            costs, args = table[(fu, fv)]
            fbits = (fu << u) | (fv << v)
            if fbits & ~cur_f:
                continue
            for p in range(min(h.k, cur_s) + 1):
                c = costs[p]
                if c >= 1 << 20:
                    continue
                # the source state may or may not already hold fbits
                for drop in _submasks(fbits):
                    src_f = cur_f ^ drop
                    arr = prev_dp.get(src_f)
                    if arr is None:
                        continue
                    if int(arr[cur_s - p]) + c == cur_val:
                        picks[i] = args[p]
                        cur_f, cur_s, cur_val = src_f, cur_s - p, cur_val - c
                        found = True
                        break
                if found:
                    break
            if found:
                break
        if not found:
            raise ContractError("chain DP reconstruction failed")
    if cur_val or cur_s or cur_f:
        raise ContractError("chain DP reconstruction left residual state")
    members = [b for b in h.base_nodes if (bmask >> b) & 1]
    used_inner = 0
    for (pick, (_u, _v, inner)) in zip(picks, h.chains):
        for j in range(h.k):
            if (pick >> j) & 1:
                members.append(inner[j])
                used_inner += 1
    if used_inner != inner_total:
        raise ContractError("chain DP reconstruction lost inner nodes")
    return sorted(members)


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask
