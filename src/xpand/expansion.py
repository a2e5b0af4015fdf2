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
from types import MappingProxyType

import numpy as np

from . import kernels
from .errors import ContractError, InputError, LimitError
from .faults import make_rng, shuffle_in_place
from .generators import SubdividedGraph
from .graph import Cut, Graph, canon_nodes, make_cut

SUBDIV_BASE_LIMIT = 10
SUBDIV_CHAIN_LIMIT = 16
_INF32 = np.int32(1 << 20)
_INF16 = np.int16(np.iinfo(np.int16).max)


@dataclass(frozen=True)
class ExpansionResult:
    mode: str  # "node" or "edge"
    method: str  # "exact", "heuristic" or "chain-dp"
    value: Fraction
    witness: Cut

    def to_payload(self) -> dict:
        return {
            "mode": self.mode,
            "method": self.method,
            "value_num": self.value.numerator,
            "value_den": self.value.denominator,
            "witness": list(self.witness.set),
        }


def _min_ratio_cut(g: Graph, nodes, mode: str):
    """(ratio, set) of the canonical minimizer over 1 <= |S| <= |nodes|/2
    in the subgraph of g induced by nodes, a sized collection of at
    least 2 of g's ids, the set in g's ids. The cap is checked before
    any mask is built. nodes are numbered in ascending order for the
    sweep, and that order is kept both ways, so the (ratio, size, lex)
    winner is the one a renumbered copy of the subgraph would give."""
    n = len(nodes)
    kernels.exact_limit(n)
    keep = sorted(nodes)
    sweep = kernels.min_ratio_node_cut if mode == "node" else kernels.min_ratio_edge_cut
    bnd, size, mask = sweep(n, _induced_masks(g, keep))
    return Fraction(bnd, size), tuple(keep[i] for i in kernels.mask_nodes(mask))


@functools.lru_cache(maxsize=1)
def _graph_masks(g: Graph) -> tuple:
    """g's adjacency masks, kept for the graph swept last: prune and the
    adversary sweep subgraphs of one graph many times over."""
    return tuple(kernels.adjacency_masks(g.adjacency))


def _induced_masks(g: Graph, keep) -> list:
    """Adjacency masks of the subgraph of g induced by keep, ascending
    ids of g, with node i of the subgraph being keep[i]. Up to
    EXACT_MAX_N nodes they are g's own masks, built once per graph, with
    the bits of the ids outside keep dropped from the highest down: the
    bits above a dropped id move down by one. A larger g, whose masks
    would hold more bits than any sweep, is read from its neighbour
    lists."""
    if g.n > kernels.EXACT_MAX_N:
        bit = {v: 1 << i for i, v in enumerate(keep)}
        return [sum(bit.get(u, 0) for u in g.adjacency[v]) for v in keep]
    masks = _graph_masks(g)
    kept = set(keep)
    gone = [u for u in range(g.n - 1, -1, -1) if u not in kept]
    out = []
    for v in keep:
        m = masks[v]
        for u in gone:
            m = (m & ((1 << u) - 1)) | ((m >> (u + 1)) << u)
        out.append(m)
    return out


def _expansion_exact(g: Graph, mode: str) -> ExpansionResult:
    if g.n < 2:
        raise InputError("expansion needs at least 2 nodes")
    value, s = _min_ratio_cut(g, range(g.n), mode)
    if value == 0:
        warnings.warn(f"graph is disconnected, {mode} expansion is 0", stacklevel=3)
    return ExpansionResult(mode, "exact", value, make_cut(g, s))


def node_expansion_exact(g: Graph) -> ExpansionResult:
    return _expansion_exact(g, "node")


def edge_expansion_exact(g: Graph) -> ExpansionResult:
    return _expansion_exact(g, "edge")


def _better_cut(a: Cut, b: Cut, mode: str) -> bool:
    ra = a.node_ratio if mode == "node" else a.edge_ratio
    rb = b.node_ratio if mode == "node" else b.edge_ratio
    if ra != rb:
        return ra < rb
    if len(a.set) != len(b.set):
        return len(a.set) < len(b.set)
    return a.set < b.set


def _heuristic(g: Graph, mode: str, trials: int, seed: int, nodes) -> ExpansionResult:
    keep = tuple(range(g.n)) if nodes is None else canon_nodes(g, nodes)
    inside = None if nodes is None else frozenset(keep)
    if len(keep) < 2:
        raise InputError("expansion needs at least 2 nodes")
    if trials < 1:
        raise InputError(f"heuristic needs at least 1 trial, got {trials}")
    max_size = len(keep) // 2
    rng = make_rng(seed)
    if len(keep) <= trials:
        starts = list(keep)
    else:
        pool = list(keep)
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
                if u not in seen and (inside is None or u in inside):
                    seen.add(u)
                    order.append(u)
            head += 1
        for length in range(1, max_size + 1):
            cut = make_cut(g, order[:length], inside)
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
            cut = make_cut(g, trial_set, inside)
            if _better_cut(cut, best, mode):
                best = cut
                improved = True
                break
        if not improved:
            break
    value = best.node_ratio if mode == "node" else best.edge_ratio
    return ExpansionResult(mode, "heuristic", value, best)


def node_expansion_heuristic(
    g: Graph, *, trials: int = 16, seed: int = 0, nodes=None
) -> ExpansionResult:
    """Upper bound on node expansion from seeded sweeps; exact value is
    always <= the value reported here. With nodes, of the subgraph of g
    induced by them, the witness in g's ids: the same run as on that
    subgraph renumbered in ascending order, its witness mapped back."""
    return _heuristic(g, "node", int(trials), int(seed), nodes)


def edge_expansion_heuristic(
    g: Graph, *, trials: int = 16, seed: int = 0, nodes=None
) -> ExpansionResult:
    return _heuristic(g, "edge", int(trials), int(seed), nodes)


@functools.lru_cache(maxsize=None)
def _chain_config_tables(k: int, a: int, b: int):
    """Per-chain DP tables for endpoint membership (a, b).

    For every inner subset P of a k-chain: cost is the number of inner
    nodes outside P adjacent to P or to a member endpoint; fu/fv say
    whether the chain puts a free endpoint on the boundary. Returns
    {(fu, fv): (min_cost_by_p, argmin_P_by_p)} with canonical argmin
    (smallest P bitmask). Built once per (k, a, b) and shared: the
    mapping is read-only and its rows are tuples.
    """
    inner = (1 << k) - 1
    tables: dict = {}
    for pmask in range(1 << k):
        # inner node j is bit j + 1 of x, its neighbours bits j and j + 2
        x = a | pmask << 1 | b << (k + 1)
        cost = ((x | x >> 2) & inner & ~pmask).bit_count()
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
    return MappingProxyType(
        {key: (tuple(costs), tuple(args)) for key, (costs, args) in tables.items()}
    )


def subdivided_node_expansion(h: SubdividedGraph) -> ExpansionResult:
    """Exact node expansion of a subdivided graph by dynamic programming
    over its chains, feasible far beyond the full-sweep limit.

    Fix B, the base nodes in S. Inner nodes only interact through their
    own chain, so for a set F of free base nodes that the chains may push
    onto the boundary, the fewest boundary nodes with s inner nodes in S
    is |F| plus the min-plus product of the chains' cost-by-size
    vectors, each chain pushing endpoints only into F. The minimum over
    F is exact, since F = the union of the pushes attains it.

    Pass 1 (_class_minima, _first_candidate) finds the winner of the
    (bnd / size, size, B) order without tables. Each chain endpoint is
    in B, in F or in neither (N), so a chain's vector depends only on
    its unordered pair of endpoint states: six classes, and one product
    per distinct vector of class counts, solved once from cached
    min-plus powers.
    Pass 2 reruns the winning B alone with the values-only table step
    (_values_step), dp[F, s] over the exact set F of pushed free
    endpoints, keeping every chain's table. It takes the lowest F of
    the winning column and walks back through the chains, at each one
    taking the first move in (pushed endpoints, inner count, dropped
    endpoints) order that reaches the current entry from the previous
    table (_first_move). The witness is revalidated against the graph.
    It is a true minimizer but not necessarily the canonical one.
    """
    g = h.graph
    nb = len(h.base_nodes)
    if nb > SUBDIV_BASE_LIMIT:
        raise LimitError(f"chain DP is limited to base n <= {SUBDIV_BASE_LIMIT}")
    if h.k > SUBDIV_CHAIN_LIMIT:
        raise LimitError(f"chain DP is limited to k <= {SUBDIV_CHAIN_LIMIT}")
    if g.n < 2:
        raise InputError("expansion needs at least 2 nodes")
    tables = {
        (a, b): _chain_config_tables(h.k, a, b) for a in (0, 1) for b in (0, 1)
    }
    best = _first_candidate(h, _class_minima(h, tables))
    if best is None:
        raise ContractError("chain DP found no feasible set")
    bnd, size, bmask, s = best
    value = Fraction(bnd, size)

    # entry s reads no column past s
    width = s + 1
    pushable = sorted({b for u, v, _inner in h.chains for b in (u, v)})
    index, dp = _empty_table(pushable, bmask, width)
    before = []  # the table before each chain, one row per F
    for u, v, _inner in h.chains:
        # a finite entry counts inner nodes, at most SUBDIV_CHAIN_LIMIT on
        # each of at most 45 chains, so it fits int16 with INF kept largest
        before.append(np.minimum(dp, _INF16).astype(np.int16).reshape(-1, width))
        table = tables[((bmask >> u) & 1, (bmask >> v) & 1)]
        dp = _values_step(dp, table, index.get(u), index.get(v))
    rows = dp.reshape(-1, width)
    column = rows[:, s] + np.bitwise_count(np.arange(len(rows)))
    frow = int(column.argmin())  # the lowest F of the winning column
    if column[frow] != bnd:
        raise ContractError("chain DP passes disagree on the value")
    cost = bnd - frow.bit_count()
    members = [b for b in h.base_nodes if (bmask >> b) & 1]
    for prev, (u, v, inner) in zip(reversed(before), reversed(h.chains)):
        table = tables[((bmask >> u) & 1, (bmask >> v) & 1)]
        move = _first_move(prev, table, index.get(u), index.get(v), frow, s, cost)
        if move is None:
            raise ContractError("chain DP witness has no move to follow")
        drop, p, c, pick = move
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


# endpoint states of the class sweep, B, F, N = 0, 1, 2, and the class of
# an ordered pair of them: BB, BF, BN, FF, FN, NN
_IN_B, _IN_F = 0, 1
_PAIR_CLASS = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]], dtype=np.int64)


def _first_candidate(h: SubdividedGraph, minima):
    """(bnd, size, B, s) of the first candidate under the
    (bnd / size, size, B) order, or None when no set is feasible, from
    the (E, bnds) pairs of _class_minima. A base node that ends no chain
    only adds to the size: the least B adding t of them to the endpoints
    E in B adds the t lowest."""
    half = h.graph.n // 2
    ends = {b for u, v, _inner in h.chains for b in (u, v)}
    idle = [b for b in h.base_nodes if b not in ends]
    best = None  # (bnd, size, B, s)
    for e, bnds in minima:
        ne = e.bit_count()
        bmask = e
        for t in range(min(len(idle), half - ne) + 1):
            if t:
                bmask |= 1 << idle[t - 1]
            for s in range(len(bnds) - t):
                bnd, size = bnds[s], ne + t + s
                if size < 1 or bnd >= _INF32:
                    continue
                if best is None or _before((bnd, size, bmask), best):
                    best = (bnd, size, bmask, s)
    return best


def _class_minima(h: SubdividedGraph, tables: dict):
    """Pass 1 of subdivided_node_expansion, the class sweep: yields
    (E, bnds) for every set E of chain endpoints in B with
    |E| <= n/2, where bnds[s], s <= n/2 - |E|, is the fewest boundary
    nodes with s inner nodes in S, INF or more where none has s.

    Every assignment of B, F or N to the chain endpoints is scored as
    |F| plus the product of its class counts, and E takes the minimum
    over its assignments.
    """
    half = h.graph.n // 2
    pushable = sorted({b for u, v, _inner in h.chains for b in (u, v)})
    col = {b: i for i, b in enumerate(pushable)}

    # digit i of an assignment's number in base 3 is the state of pushable[i]
    code = np.arange(3 ** len(pushable), dtype=np.int32)
    states = [(code // 3**i % 3).astype(np.int8) for i in range(len(pushable))]
    emask = np.zeros(len(code), dtype=np.int32)
    nfree = np.zeros(len(code), dtype=np.int32)
    for b, st in zip(pushable, states):
        emask |= (st == _IN_B).astype(np.int32) << b
        nfree += st == _IN_F
    # the six class counts as one number in base len(chains) + 1
    radix = len(h.chains) + 1
    weight = radix**_PAIR_CLASS
    key = np.zeros(len(code), dtype=np.int64)
    for u, v, _inner in h.chains:
        key += weight[states[col[u]], states[col[v]]]
    keys, group = np.unique(key, return_inverse=True)
    prods = _class_products(keys.tolist(), radix, _class_vectors(tables, half + 1))

    # the lowest |F| of every (E, group) pair, pairs in ascending E
    pair = emask * np.int64(len(keys)) + group
    order = np.lexsort((nfree, pair))
    pair, nfree = pair[order], nfree[order]
    first = np.flatnonzero(np.diff(pair, prepend=-1))
    emasks, groups = np.divmod(pair[first], len(keys))
    nfree = nfree[first]
    cuts = np.flatnonzero(np.diff(emasks, prepend=-1)).tolist() + [len(first)]
    for lo, hi in zip(cuts, cuts[1:]):
        e = int(emasks[lo])
        if e.bit_count() <= half:
            rows = prods[groups[lo:hi], : half + 1 - e.bit_count()] + nfree[lo:hi, None]
            yield e, rows.min(axis=0).tolist()


def _class_vectors(tables: dict, width: int) -> list:
    """The cost-by-size vector of each endpoint class, in _PAIR_CLASS
    order: per inner count, the cheapest config that pushes endpoints
    only into F. A chain's costs are the same read from either end."""
    vectors = [None] * 6
    for x in range(3):
        for y in range(x, 3):
            vec = np.full(width, _INF32, dtype=np.int32)
            for (fu, fv), (costs, _args) in tables[(x == _IN_B, y == _IN_B)].items():
                if (fu and x != _IN_F) or (fv and y != _IN_F):
                    continue
                m = min(len(costs), width)
                np.minimum(vec[:m], costs[:m], out=vec[:m])
            vectors[_PAIR_CLASS[x, y]] = vec
    return vectors


def _class_products(keys: list, radix: int, vectors: list):
    """(len(keys), width) int32 array: row g is the min-plus product of
    the class vectors raised to the counts that keys[g] encodes, class c
    as digit c in base radix. Each power is computed once, and each
    product of the leading counts, from the last class down, once per
    run of ascending keys that share it."""
    width = len(vectors[0])
    unit = np.full(width, _INF32, dtype=np.int32)
    unit[0] = 0
    counts = [tuple(key // radix**c % radix for c in reversed(range(6))) for key in keys]
    powers = []
    for d, vec in enumerate(reversed(vectors)):
        row = [unit]
        for _ in range(max((cnt[d] for cnt in counts), default=0)):
            row.append(_min_plus(row[-1], vec))
        powers.append(row)
    out = np.empty((len(keys), width), dtype=np.int32)
    prev = (-1,) * 6
    heads = [unit]  # heads[d]: the product of the first d counts of prev
    for g, cnt in enumerate(counts):
        d = next(d for d in range(6) if cnt[d] != prev[d])
        del heads[d + 1 :]
        for j, power in zip(cnt[d:], powers[d:]):
            heads.append(_min_plus(heads[-1], power[j]) if j else heads[-1])
        out[g] = heads[6]
        prev = cnt
    return out


def _min_plus(a, b):
    """Min-plus product of two cost-by-size vectors of one width,
    truncated to it; entries stay at most INF."""
    width = len(a)
    padded = np.full(2 * width - 1, _INF32, dtype=np.int32)
    padded[width - 1 :] = b
    # a view whose row p is b shifted right by p, INF before it
    step = padded.itemsize
    shifted = np.ndarray(
        (width, width), np.int32, buffer=padded, offset=(width - 1) * step, strides=(-step, step)
    )
    return np.minimum((a[:, None] + shifted).min(axis=0), _INF32)


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
    """One chain's min-plus step over dp, whose last axis counts inner
    nodes and whose other axes are the free base nodes, free node i on
    axis nf-1-i; iu and iv are the free indices of the chain's
    endpoints, None for members of B. One elementwise minimum of the
    source rows per endpoint config and one np.minimum per inner
    count."""
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


def _first_move(prev, table, iu, iv, row: int, s: int, cost: int):
    """The move of one chain that reaches entry [row, s] of its next
    table at cost from prev, the chain's previous table with one row per
    F: the first in (pushed endpoints sorted, inner count ascending,
    dropped endpoints in _submasks order) order, as (source row xor,
    inner count, cost, inner set), or None. A step that replaces an
    entry only on a strictly smaller cost keeps exactly this move."""
    for fu, fv in sorted(table):
        fbits = (fu << iu if fu else 0) | (fv << iv if fv else 0)
        if (row & fbits) != fbits:
            continue
        costs, args = table[(fu, fv)]
        for p in range(min(len(costs), s + 1)):
            c = costs[p]
            if c >= _INF32:
                continue
            for drop in _submasks(fbits):
                if int(prev[row ^ drop, s - p]) + c == cost:
                    return drop, p, c, args[p]
    return None


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
