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

import functools
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import ContractError, InputError, LimitError
from .faults import make_rng, shuffle_in_place
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


def _min_ratio_cut(g: Graph, mode: str, what: str):
    """(ratio, mask) of the canonical minimizer over 1 <= |S| <= n/2;
    needs n >= 2."""
    if g.n > EXACT_EXPANSION_LIMIT:
        raise LimitError(f"{what} is limited to n <= {EXACT_EXPANSION_LIMIT}, got n={g.n}")
    sweep = kernels.min_ratio_node_cut if mode == "node" else kernels.min_ratio_edge_cut
    bnd, size, mask = sweep(g.n, kernels.adjacency_masks(g.adjacency), g.n // 2)
    return Fraction(bnd, size), mask


def _expansion_exact(g: Graph, mode: str) -> ExpansionResult:
    if g.n < 2:
        raise InputError("expansion needs at least 2 nodes")
    value, mask = _min_ratio_cut(g, mode, "exact expansion")
    if value == 0:
        warnings.warn(f"graph is disconnected, {mode} expansion is 0", stacklevel=3)
    return ExpansionResult(mode, "exact", value, make_cut(g, kernels.mask_nodes(mask)))


def node_expansion_exact(g: Graph) -> ExpansionResult:
    return _expansion_exact(g, "node")


def edge_expansion_exact(g: Graph) -> ExpansionResult:
    return _expansion_exact(g, "edge")


def _sparse_cut(g: Graph, mode: str, threshold: Fraction):
    if g.n < 2:
        return None
    value, mask = _min_ratio_cut(g, mode, "sparse-cut search")
    if value > threshold:
        return None
    return make_cut(g, kernels.mask_nodes(mask))


def find_sparse_node_cut(g: Graph, alpha: Fraction, eps: Fraction):
    """Canonical minimizer S with |boundary(S)| <= alpha*eps*|S| and
    |S| <= floor(n/2), or None when no such set exists."""
    return _sparse_cut(g, "node", alpha * eps)


def find_sparse_edge_cut(g: Graph, alpha_e: Fraction, eps: Fraction):
    """Canonical minimizer S with |edge boundary(S)| <= alpha_e*eps*|S|
    and |S| <= floor(n/2), or None. The winner is always connected."""
    return _sparse_cut(g, "edge", alpha_e * eps)


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
    if trials < 1:
        raise InputError(f"heuristic needs at least 1 trial, got {trials}")
    max_size = g.n // 2
    rng = make_rng(seed)
    if g.n <= trials:
        starts = list(range(g.n))
    else:
        pool = list(range(g.n))
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

    For a set B of base nodes in S, a table dp[F, s] holds the fewest
    inner boundary nodes over the choices with s inner nodes in S whose
    chains push exactly the free base nodes F (not in B) onto the
    boundary. Rows F are masks over the free nodes that end some chain,
    renumbered in ascending order; the table has one (2,) axis per such
    node, so pushing an endpoint is a view fixing its axis. Inner nodes
    only interact through their own chain, so each chain is one min-plus
    step over the whole table.

    The answer comes in two passes. Pass 1 sweeps every B with a
    values-only step (_values_step) and picks the minimum of
    (|F| + dp[F, s]) / (|B| + s), then the size, then B, taking the
    lowest F of the winning column. A base node that ends no chain only
    adds to the size, so the table of B depends only on B's chain
    endpoints: one table per endpoint set E serves every B that adds
    idle nodes to E, through its first half - |B| + 1 columns. Pass 2
    reruns the winning B alone with back-pointers (_chain_step), each
    holding the first move in (pushed endpoints, inner count, source
    row) order that reached its entry. The witness is read back along
    them and revalidated against the graph. It is a true minimizer but
    not necessarily the canonical one.
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

    pushable = sorted({b for u, v, _inner in h.chains for b in (u, v)})
    ends = sum(1 << b for b in pushable)
    idle = [b for b in h.base_nodes if not (ends >> b) & 1]
    best = None  # (bnd, size, B, F row, s)
    for emask in _submasks(ends):
        ne = emask.bit_count()
        if ne > half:
            continue
        width = half - ne + 1
        index, dp = _empty_table(pushable, emask, width)
        for u, v, _inner in h.chains:
            table = tables[((emask >> u) & 1, (emask >> v) & 1)]
            dp = _values_step(dp, table, index.get(u), index.get(v))
        rows = dp.reshape(-1, width)
        rows = rows + np.bitwise_count(np.arange(len(rows)))[:, None]
        # argmin takes the lowest F of each column
        bnds = rows.min(axis=0).tolist()
        frows = rows.argmin(axis=0).tolist()
        # the least B adding t idle nodes to E adds the t lowest
        bmask = emask
        for t in range(min(len(idle), half - ne) + 1):
            if t:
                bmask |= 1 << idle[t - 1]
            for s in range(width - t):
                bnd, size = bnds[s], ne + t + s
                if size < 1 or bnd >= _INF32:
                    continue
                if best is None or _before((bnd, size, bmask), best):
                    best = (bnd, size, bmask, frows[s], s)
    if best is None:
        raise ContractError("chain DP found no feasible set")
    bnd, size, bmask, frow, s = best
    value = Fraction(bnd, size)

    index, dp = _empty_table(pushable, bmask, half - bmask.bit_count() + 1)
    steps = []
    for u, v, _inner in h.chains:
        table = tables[((bmask >> u) & 1, (bmask >> v) & 1)]
        dp, ptr, moves = _chain_step(dp, table, index.get(u), index.get(v))
        steps.append((ptr.reshape(-1, dp.shape[-1]), moves))
    members = [b for b in h.base_nodes if (bmask >> b) & 1]
    cost = bnd - frow.bit_count()
    for (ptr, moves), (_u, _v, inner) in zip(reversed(steps), reversed(h.chains)):
        m = int(ptr[frow, s])
        if m < 0:
            raise ContractError("chain DP witness has no back-pointer")
        drop, p, c, pick = moves[m]
        frow, s, cost = frow ^ drop, s - p, cost - c
        members.extend(inner[j] for j in range(h.k) if (pick >> j) & 1)
    if cost or s or frow:
        raise ContractError("chain DP reconstruction left residual state")
    cut = make_cut(g, sorted(members))
    if Fraction(len(cut.node_boundary), len(cut.set)) != value:
        raise ContractError("chain DP witness does not match its value")
    if value == 0:
        warnings.warn("graph is disconnected, node expansion is 0", stacklevel=2)
    return ExpansionResult("node", "chain-dp", value, cut)


def _before(a: tuple, b: tuple) -> bool:
    """Whether candidate a = (bnd, size, B) comes before b under the
    (bnd / size, size, B) order."""
    lhs, rhs = a[0] * b[1], b[0] * a[1]
    return lhs < rhs or (lhs == rhs and (a[1], a[2]) < (b[1], b[2]))


def _empty_table(pushable: list, bmask: int, width: int):
    """(free index, dp) before the first chain for base set bmask: the
    chain endpoints outside bmask numbered in ascending order, and a
    table that is 0 for no pushed node and no inner node, else INF."""
    index = {b: i for i, b in enumerate(x for x in pushable if not (bmask >> x) & 1)}
    dp = np.full((2,) * len(index) + (width,), _INF32, dtype=np.int32)
    dp.flat[0] = 0
    return index, dp


def _values_step(dp, table, iu, iv):
    """_chain_step without the pointers: the same next dp, from one
    elementwise minimum of the source rows per endpoint config and one
    np.minimum per inner count."""
    nf = dp.ndim - 1
    width = dp.shape[-1]
    out = np.full_like(dp, _INF32)
    for (fu, fv), (costs, _args) in table.items():
        fbits = (fu << iu if fu else 0) | (fv << iv if fv else 0)
        dst = out[_fix_rows(nf, fbits, fbits)]
        src = functools.reduce(
            np.minimum, (dp[_fix_rows(nf, fbits, fbits ^ drop)] for drop in _submasks(fbits))
        )
        for p in range(min(len(costs), width)):
            c = costs[p]
            if c < _INF32:
                np.minimum(dst[..., p:], src[..., : width - p] + c, out=dst[..., p:])
    return out


def _chain_step(dp, table, iu, iv):
    """One chain's min-plus step over dp, whose last axis counts inner
    nodes and whose other axes are the free base nodes, free node i on
    axis nf-1-i; iu and iv are the free indices of the chain's
    endpoints, None for members of B.

    Returns (next dp, int16 pointers, moves): moves[ptr] is the
    (source row xor, p, cost, inner set) that first reached an entry,
    and ptr is -1 where nothing did. An entry is replaced only on a
    strictly smaller cost.
    """
    nf = dp.ndim - 1
    width = dp.shape[-1]
    out = np.full_like(dp, _INF32)
    ptr = np.full(dp.shape, -1, dtype=np.int16)
    moves = []
    for fu, fv in sorted(table):
        costs, args = table[(fu, fv)]
        fbits = (fu << iu if fu else 0) | (fv << iv if fv else 0)
        dst = _fix_rows(nf, fbits, fbits)
        srcs = [(drop, dp[_fix_rows(nf, fbits, fbits ^ drop)]) for drop in _submasks(fbits)]
        for p in range(min(len(costs), width)):
            c = costs[p]
            if c >= _INF32:
                continue
            tgt = out[dst][..., p:]
            tgt_ptr = ptr[dst][..., p:]
            for drop, src in srcs:
                cand = src[..., : width - p] + c
                better = cand < tgt
                np.copyto(tgt, cand, where=better)
                np.copyto(tgt_ptr, len(moves), where=better)
                moves.append((drop, p, c, args[p]))
    return out, ptr, moves


def _fix_rows(nf: int, bits: int, value: int) -> tuple:
    """Index into the free-node axes fixing each free node in bits to
    its bit in value."""
    return tuple(
        (value >> i) & 1 if (bits >> i) & 1 else slice(None) for i in reversed(range(nf))
    )


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask
