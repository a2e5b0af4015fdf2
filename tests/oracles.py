"""Independent oracles built on networkx and brute force, used to check
the package's exact machinery through a second code path.

`min_ratio_node_cut` and `min_ratio_edge_cut` are the per-mask loops the
ratio sweeps were first written as; they stay here as the from-scratch
reference for the vectorized kernels. `connectivity_table` is the table
as first vectorized, a breadth-first flood per block of 2^12 masks; it
is the reference for the highest-bit recurrence. Likewise
`compact_masks` (one flood per mask), `_greedy_connector_size` (one
breadth-first search per terminal) and the per-set walk of
`span_exact`, with an exact Steiner
tree for every set its bounds do not dismiss, are the reference for
the numpy compact-set engine and the Steiner-size lookups.
`kruskal_lex` with its union-find `_DSU` is the spanning-tree step as
first written; it is the reference for the component-mask one.
`verify_mesh_span_certificate` with `_certify_one`,
`mesh_virtual_boundary_graph` and `expand_virtual_edge` is the mesh
certificate as first written, a virtual Graph per compact set; it is
the reference for the per-node virtual tables, and `sample_compact_set`,
which rebuilds its frontier after every draw, is the reference for the
incrementally kept one.
`subdivided_node_expansion` and `_reconstruct_subdiv_witness`, with
their own copies of
`_chain_config_tables` and `_submasks`, are the chain DP as first
written: a dict of numpy rows per pushed-set state, a snapshot of every
state after every chain and a backward search for the witness. They
are the reference for the whole solver. `values_minima`, one dense
table per set of base nodes, is the reference for the class sweep that
replaced it, and `_chain_step`, the table step with back-pointers, for
the walk that reads its moves from the values-only tables.
`percolation_point` and `run_resilience_trial` are the two random-fault
trial loops as first written, each with its own draw, prune, grade and
fault count; they are the reference for the one shared trial function.
`prune_loop`, `greedy_cuts` and `compact_cull`, with
`union_boundary_check`, `shatter_uniform` and `attack_greedy_cuts` on
top, are the pruning and greedy cut loops as first written: a Graph
rebuilt by `relabel` after every cull, and sets carried between its
local ids and the given graph's ids through the id map `relabel`
returns with it. They are the reference for the loops that keep a set
of alive nodes in the given graph's ids; the heuristic loop stops below
two nodes, as the package's now does."""

import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import networkx as nx
import numpy as np

from xpand import kernels
from xpand.errors import ContractError, InputError, LimitError, SamplingError
from xpand.expansion import (
    _INF32,
    SUBDIV_BASE_LIMIT,
    SUBDIV_CHAIN_LIMIT,
    ExpansionResult,
    _empty_table,
    _min_ratio_cut,
    _fix_rows,
    _values_step,
    edge_expansion_exact,
    edge_expansion_heuristic,
    node_expansion_exact,
    node_expansion_heuristic,
)
from xpand.experiments import TrialResult, gamma
from xpand.faults import (
    MAX_DRAWS,
    KIND_NODE,
    FaultPattern,
    edge_survival_pattern,
    make_rng,
    rand_below,
    random_node_faults,
)
from xpand.generators import SubdividedGraph, mesh, mesh_coords, mesh_index
from xpand.graph import (
    Graph,
    connected_components,
    edge_boundary,
    is_compact,
    is_connected,
    is_connected_subset,
    make_cut,
    node_boundary,
)
from xpand.pruning import (
    PruneStep,
    PruneTrace,
    ShatterResult,
    ShatterStep,
    _validate_params,
    expansion_lower_bound,
    hypothesis_ok,
    prune,
    prune2,
    size_lower_bound,
)
from xpand.span import MeshSpanCertificate, SpanReport


def to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def from_nx(G) -> Graph:
    # relabel arbitrary node names to 0..n-1 in sorted order
    names = sorted(G.nodes())
    idx = {v: i for i, v in enumerate(names)}
    return Graph.from_edges(
        len(names), [(idx[u], idx[v]) for u, v in G.edges()]
    )


def relabel(g: Graph, keep, ids=None) -> tuple:
    """(the subgraph of g induced by keep, renumbered 0.. in ascending
    order, its id map): entry i is the id in g of its node i, or that
    id's entry in ids, g's own id map, when one is given."""
    keep = sorted(set(keep))
    index = {v: i for i, v in enumerate(keep)}
    sub = Graph.from_edges(
        len(keep), [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    )
    return sub, tuple(keep if ids is None else (ids[v] for v in keep))


def mapped(ids, local) -> tuple:
    """Local ids through the id map ids, sorted."""
    return tuple(sorted(ids[v] for v in local))


def unmapped(ids, targets) -> tuple:
    """The local ids the id map ids sends to targets, sorted."""
    index = {t: v for v, t in enumerate(ids)}
    return tuple(sorted(index[t] for t in targets))


def mapped_trace(trace: PruneTrace, ids) -> PruneTrace:
    """trace with its culls, raw sets and survivor taken through ids."""
    steps = tuple(
        replace(s, nodes=mapped(ids, s.nodes), raw_nodes=mapped(ids, s.raw_nodes))
        for s in trace.steps
    )
    return replace(trace, steps=steps, final_nodes=mapped(ids, trace.final_nodes))


def gamma_nx(g: Graph) -> Fraction:
    """Largest-component fraction of g by networkx; 0 for no nodes."""
    if g.n == 0:
        return Fraction(0)
    return Fraction(max(len(c) for c in nx.connected_components(to_nx(g))), g.n)


def node_expansion_nx(g: Graph) -> Fraction:
    """Full-subset sweep using networkx boundary routines."""
    G = to_nx(g)
    nodes = list(range(g.n))
    best = None
    for size in range(1, g.n // 2 + 1):
        for sub in combinations(nodes, size):
            ratio = Fraction(len(list(nx.node_boundary(G, sub))), size)
            if best is None or ratio < best:
                best = ratio
    return best


def edge_expansion_nx(g: Graph) -> Fraction:
    G = to_nx(g)
    nodes = list(range(g.n))
    best = None
    for size in range(1, g.n // 2 + 1):
        for sub in combinations(nodes, size):
            cut = len(list(nx.edge_boundary(G, sub)))
            ratio = Fraction(cut, min(size, g.n - size))
            if best is None or ratio < best:
                best = ratio
    return best


def steiner_node_count_nx(g: Graph, terminals) -> int:
    """Minimum node count of a connected subgraph covering terminals,
    by trying supersets in ascending size."""
    G = to_nx(g)
    terms = sorted(set(terminals))
    rest = [v for v in range(g.n) if v not in terms]
    for extra in range(0, len(rest) + 1):
        for add in combinations(rest, extra):
            W = terms + list(add)
            if nx.is_connected(G.subgraph(W)):
                return len(W)
    raise AssertionError("terminals not connected in host")


def is_compact_nx(g: Graph, nodes) -> bool:
    G = to_nx(g)
    s = set(nodes)
    if not s or len(s) == g.n:
        return False
    comp = set(range(g.n)) - s
    return nx.is_connected(G.subgraph(s)) and nx.is_connected(G.subgraph(comp))


def random_connected_graph(seed: int, n_max: int = 16) -> Graph:
    """Deterministic connected test graph: a random G(n,p) draw's
    largest component, capped at n_max nodes."""
    rng = make_rng(seed)
    n = 4 + rand_below(rng, n_max - 3)
    p = 0.25 + 0.4 * float(rng.random())
    G = nx.gnp_random_graph(n, p, seed=seed)
    comp = max(nx.connected_components(G), key=lambda c: (len(c), -min(c)))
    H = G.subgraph(sorted(comp)[:n_max])
    if len(H) < 2 or not nx.is_connected(H):
        return random_connected_graph(seed + 977, n_max)
    return from_nx(H)


def random_connected_subset(g: Graph, seed: int, size_cap: int) -> tuple:
    """Grow a connected set of 1..size_cap nodes by seeded BFS."""
    rng = make_rng(seed)
    target = 1 + rand_below(rng, size_cap)
    start = rand_below(rng, g.n)
    chosen = {start}
    frontier = sorted(g.adjacency[start])
    while len(chosen) < target and frontier:
        v = frontier.pop(rand_below(rng, len(frontier)))
        if v in chosen:
            continue
        chosen.add(v)
        for w in g.adjacency[v]:
            if w not in chosen:
                frontier.append(w)
    return tuple(sorted(chosen))


def _better(b1: int, s1: int, m1: int, b2: int, s2: int, m2: int) -> bool:
    """True iff cut (b1, s1, m1) beats (b2, s2, m2)."""
    lhs = b1 * s2
    rhs = b2 * s1
    if lhs != rhs:
        return lhs < rhs
    if s1 != s2:
        return s1 < s2
    if m1 == m2:
        return False
    diff = m1 ^ m2
    return bool(m1 & diff & -diff)


def min_ratio_node_cut(n: int, adj, max_size: int):
    """Minimize |outer node boundary| / |S| over 1 <= |S| <= max_size.

    Full sweep over all subsets; node-boundary minimizers need not be
    connected. Returns (boundary_size, set_size, set_mask) or None.
    """
    if n < 1 or max_size < 1:
        return None
    best = None
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size > max_size:
            continue
        nbr = 0
        m = mask
        while m:
            low = m & -m
            nbr |= adj[low.bit_length() - 1]
            m ^= low
        bnd = (nbr & ~mask).bit_count()
        if best is None or _better(bnd, size, mask, best[0], best[1], best[2]):
            best = (bnd, size, mask)
    return best


def min_ratio_edge_cut(n: int, adj, max_size: int):
    """Minimize |edge boundary| / |S| over 1 <= |S| <= max_size.

    Sweeps all subsets. The canonical winner is always connected: any
    disconnected S has a component with ratio <= ratio(S) and smaller
    size, so it loses the (ratio, size) tie-break.
    Returns (cut_size, set_size, set_mask) or None.
    """
    if n < 1 or max_size < 1:
        return None
    best = None
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size > max_size:
            continue
        cut = 0
        m = mask
        while m:
            low = m & -m
            cut += (adj[low.bit_length() - 1] & ~mask).bit_count()
            m ^= low
        if best is None or _better(cut, size, mask, best[0], best[1], best[2]):
            best = (cut, size, mask)
    return best


def _flood(start: int, allowed: int, adj) -> int:
    """Nodes reachable from start staying inside allowed, as a mask."""
    reached = start & allowed
    frontier = reached
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & allowed & ~reached
        reached |= frontier
    return reached


class _DSU:
    __slots__ = ("parent",)

    def __init__(self, nodes):
        self.parent = {v: v for v in nodes}

    def find(self, v: int) -> int:
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def kruskal_lex(w: int, adj) -> tuple:
    """Lex-smallest spanning tree edge list of induced(w); w connected."""
    nodes = kernels.mask_nodes(w)
    dsu = _DSU(nodes)
    edges = []
    for u in nodes:
        for v in kernels.mask_nodes(adj[u] & w):
            if v > u and dsu.union(u, v):
                edges.append((u, v))
    return tuple(edges)


def connectivity_table(n: int, adj):
    """conn[m] for every mask m of n nodes: whether induced(m) is
    connected, as a bool array of 2^n entries (conn[0] is False).

    The table is filled 2^12 masks at a time by a vectorized flood from
    each mask's lowest node, one breadth-first layer per numpy round.
    """
    kernels.exact_limit(n)
    nbr = kernels._or_tables(adj)
    size = 1 << n
    conn = np.zeros(size, dtype=bool)
    for b in range(0, size, kernels._BLOCK):
        m = np.arange(b, min(b + kernels._BLOCK, size), dtype=np.uint32)
        reached = kernels._lowbit(m)
        while True:
            grown = (kernels._or_lookup(nbr, reached) | reached) & m
            if np.array_equal(grown, reached):
                break
            reached = grown
        conn[b : b + len(m)] = reached == m
    conn[0] = False
    return conn


def compact_masks(n: int, adj) -> list:
    """Masks U with induced(U) and induced(V minus U) both connected.

    Ascending numeric mask order; this is the canonical enumeration
    order wherever compact sets are walked or reported.
    """
    full = (1 << n) - 1
    if n < 2:
        return []
    conn = bytearray(1 << n)
    for m in range(1, 1 << n):
        if _flood(m & -m, m, adj) == m:
            conn[m] = 1
    return [m for m in range(1, full) if conn[m] and conn[full ^ m]]


def _greedy_connector_size(g: Graph, terms: tuple) -> int:
    """Cheap upper bound on the minimum connector size: attach each
    terminal to the tree grown so far by a shortest path."""
    tree = {terms[0]}
    for target in terms[1:]:
        if target in tree:
            continue
        prev = {target: None}
        queue = [target]
        head = 0
        hit = None
        while head < len(queue) and hit is None:
            v = queue[head]
            head += 1
            for u in g.adjacency[v]:
                if u not in prev:
                    prev[u] = v
                    if u in tree:
                        hit = u
                        break
                    queue.append(u)
        v = hit
        while v is not None:
            tree.add(v)
            v = prev[v]
    return len(tree)


def span_exact(g: Graph) -> SpanReport:
    """Exact span by walking every compact set in canonical order.

    Two skips keep this affordable, and neither can change the result:
    a set is dismissed when even n/|boundary|, or the greedy connector
    bound, cannot strictly beat the best ratio so far. Ties keep the
    first compact set in canonical order, and a dismissed set can at
    best tie.
    """
    if g.n < 2:
        raise InputError("span needs at least 2 nodes")
    if not is_connected(g):
        raise InputError("span is defined for connected graphs")
    if g.n > kernels.EXACT_MAX_N:
        raise LimitError(f"exact span is limited to n <= {kernels.EXACT_MAX_N}, got n={g.n}")
    adj = kernels.adjacency_masks(g.adjacency)
    best = None  # (ratio, set, boundary, tree_edges, tree_size)
    considered = 0
    skipped = 0
    for mask in compact_masks(g.n, adj):  # the per-mask reference above
        nodes = kernels.mask_nodes(mask)
        bnd = node_boundary(g, nodes)
        t = len(bnd)
        if best is not None and Fraction(g.n, t) <= best[0]:
            skipped += 1
            continue
        if best is not None and Fraction(_greedy_connector_size(g, bnd), t) <= best[0]:
            skipped += 1
            continue
        res = kernels.steiner_min_tree(g.n, adj, bnd)
        if res is None:
            raise ContractError("boundary of a compact set spans several components")
        count = res[0]
        considered += 1
        ratio = Fraction(count, t)
        if best is None or ratio > best[0]:
            best = (ratio, nodes, bnd, tuple(res[1]), count)
    if best is None:
        raise ContractError("connected graph with n >= 2 has no compact set")
    return SpanReport(
        method="exact",
        value=best[0],
        argmax=best[1],
        boundary=best[2],
        tree_edges=best[3],
        tree_size=best[4],
        considered=considered,
        skipped=skipped,
    )


def sample_compact_set(g: Graph, rng, *, max_size: int | None = None):
    """The sampler as first written: after each draw the frontier is
    rebuilt from every member. Same draws, same sets."""
    cap = g.n // 2 if max_size is None else min(max_size, g.n // 2)
    if cap < 1:
        return None
    target = 1 + rand_below(rng, cap)
    start = rand_below(rng, g.n)
    members = {start}
    frontier = sorted(g.adjacency[start])
    while len(members) < target and frontier:
        nxt = frontier[rand_below(rng, len(frontier))]
        members.add(nxt)
        frontier = sorted(
            {u for v in members for u in g.adjacency[v] if u not in members}
        )
    rest = [v for v in range(g.n) if v not in members]
    for hole in connected_components(g, rest)[1:]:
        members.update(hole)
    if max_size is not None and len(members) > max_size:
        return None
    return tuple(sorted(members))


def mesh_virtual_boundary_graph(dims, boundary) -> Graph:
    """Virtual graph on a mesh boundary: two boundary nodes are joined
    when they differ in at most two coordinates, each by exactly one.
    Node i is the i-th boundary node in ascending order."""
    dims = tuple(int(d) for d in dims)
    b = tuple(sorted(set(int(v) for v in boundary)))
    coords = [mesh_coords(dims, v) for v in b]
    edges = []
    for i in range(len(b)):
        for j in range(i + 1, len(b)):
            diff = [
                (axis, cj - ci)
                for axis, (ci, cj) in enumerate(zip(coords[i], coords[j]))
                if ci != cj
            ]
            if 1 <= len(diff) <= 2 and all(abs(d) == 1 for _axis, d in diff):
                edges.append((i, j))
    return Graph.from_edges(len(b), edges)


def expand_virtual_edge(dims, u: int, v: int) -> tuple:
    """Mesh nodes realizing a virtual edge: () when u, v are already
    mesh-adjacent, otherwise the single intermediate that flips the
    first differing coordinate of u to v's value."""
    dims = tuple(int(d) for d in dims)
    cu = mesh_coords(dims, u)
    cv = mesh_coords(dims, v)
    diff = [axis for axis in range(len(dims)) if cu[axis] != cv[axis]]
    if any(abs(cu[axis] - cv[axis]) != 1 for axis in diff):
        raise InputError(f"{u} and {v} are not joined by a virtual edge")
    if len(diff) == 1:
        return ()
    if len(diff) != 2:
        raise InputError(f"{u} and {v} are not joined by a virtual edge")
    mid = list(cu)
    mid[diff[0]] = cv[diff[0]]
    return (mesh_index(dims, mid),)


def _certify_one(g: Graph, dims, nodes):
    """Returns (ok, ratio) for one compact set: the virtual boundary
    graph must be connected, and a spanning tree expanded back into
    mesh nodes must connect the boundary with at most 2|boundary|
    nodes."""
    bnd = node_boundary(g, nodes)
    virt = mesh_virtual_boundary_graph(dims, bnd)
    # breadth-first spanning tree from the smallest boundary node; the
    # virtual graph is connected iff it reaches every boundary node
    connector = set(bnd)
    seen = {0}
    queue = [0]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for y in virt.adjacency[x]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
                connector.update(expand_virtual_edge(dims, bnd[x], bnd[y]))
    if len(seen) < len(bnd):
        return False, None
    return True, Fraction(len(connector), len(bnd))


def verify_mesh_span_certificate(
    dims,
    *,
    exhaustive: bool = True,
    samples: int = 0,
    seed: int = 0,
) -> MeshSpanCertificate:
    """The certificate as first written: a virtual Graph per compact
    set, built through mesh_coords, and a breadth-first walk over it.
    Exhaustive sets come from the per-mask compact_masks above."""
    dims = tuple(int(d) for d in dims)
    g = mesh(dims)
    if exhaustive:
        if g.n > kernels.EXACT_MAX_N:
            raise LimitError(
                f"exhaustive certificate is limited to n <= {kernels.EXACT_MAX_N}, "
                f"got n={g.n}"
            )
        adj = kernels.adjacency_masks(g.adjacency)
        sets = map(kernels.mask_nodes, compact_masks(g.n, adj))
    else:
        if samples < 1:
            raise InputError("sampled certificate needs at least one sample")
        rng = make_rng(seed)
        sets = (sample_compact_set(g, rng) for _ in range(int(samples)))
    failures = []
    max_ratio = Fraction(0)
    checked = 0
    for nodes in sets:
        if nodes is None:
            continue
        ok, ratio = _certify_one(g, dims, nodes)
        checked += 1
        if not ok:
            failures.append(nodes)
        elif ratio > max_ratio:
            max_ratio = ratio
    if checked == 0:
        raise SamplingError("no sample produced a compact set")
    return MeshSpanCertificate(
        dims=dims,
        checked=checked,
        failures=tuple(failures),
        max_ratio=max_ratio,
    )


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


def values_minima(h: SubdividedGraph, tables: dict):
    """Yields (E, bnds) like expansion._class_minima, from one dense
    table dp[F, s] per set E of base nodes that end a chain, swept chain
    by chain with _values_step: bnds[s] is the minimum of |F| + dp[F, s]
    over F."""
    half = h.graph.n // 2
    pushable = sorted({b for u, v, _inner in h.chains for b in (u, v)})
    ends = sum(1 << b for b in pushable)
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
        yield emask, rows.min(axis=0).tolist()


def _chain_step(dp, table, iu, iv):
    """_values_step with back-pointers: returns (next dp, int16
    pointers, moves), where moves[ptr] is the (source row xor, p, cost,
    inner set) that first reached an entry and ptr is -1 where nothing
    did. An entry is replaced only on a strictly smaller cost."""
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


def percolation_point(
    g: Graph,
    model: str,
    p: Fraction,
    trials: int,
    seed_base: int,
    point_index: int,
    *,
    prune_params=None,
) -> list:
    if model not in ("node", "edge"):
        raise InputError(f"unknown percolation model {model!r}")
    if not 0 <= p <= 1:
        raise InputError("p must lie in [0,1]")
    if not 1 <= trials <= MAX_DRAWS:
        raise InputError(f"trials must lie in [1, {MAX_DRAWS}]")
    if prune_params is not None:
        if model != "node":
            raise InputError("pruning is defined for the node fault model only")
        if g.n > kernels.EXACT_MAX_N:
            raise LimitError(f"pruning needs n <= {kernels.EXACT_MAX_N}, got n={g.n}")
        alpha, k = prune_params
        eps = 1 - Fraction(1, k)
    rows = []
    for j in range(int(trials)):
        seed = seed_base + point_index * 10**6 + j
        if model == "node":
            pattern = random_node_faults(g, float(p), seed)
            g_f = relabel(g, set(range(g.n)).difference(pattern.failed_nodes))[0]
            fault_count = len(pattern.failed_nodes)
        else:
            pattern = edge_survival_pattern(g, float(p), seed)
            g_f = Graph.from_edges(g.n, pattern.kept_edges)
            fault_count = g.m - len(pattern.kept_edges)
        gam = gamma(g_f)
        if prune_params is not None:
            trace = prune(g_f, alpha, eps)
            expansion = trace.h_expansion
            h_size = trace.h_size
            h_frac = Fraction(h_size, g.n)
            certified = (
                hypothesis_ok(g.n, alpha, k, fault_count)
                and h_size >= size_lower_bound(g.n, alpha, k, fault_count)
                and h_size >= 2
                and expansion >= expansion_lower_bound(alpha, k)
            )
        else:
            h_frac, expansion, certified = Fraction(0), Fraction(0), False
        rows.append(
            TrialResult(
                p=p,
                trial=j,
                gamma=gam,
                h_frac=h_frac,
                expansion=expansion,
                certified=certified,
            )
        )
    return rows


def run_resilience_trial(
    g: Graph,
    model: str,
    p,
    trial: int,
    seed_base: int,
    eps: Fraction,
    *,
    alpha: Fraction | None = None,
) -> TrialResult:
    if model not in ("node", "edge"):
        raise InputError(f"unknown fault model {model!r}")
    if not 0 <= Fraction(p) <= 1:
        raise InputError("p must lie in [0,1]")
    if g.n > kernels.EXACT_MAX_N:
        raise LimitError(f"exact pruning is limited to n <= {kernels.EXACT_MAX_N}, got {g.n}")
    seed = seed_base + trial
    if model == "node":
        failed = random_node_faults(g, float(p), seed).failed_nodes
        g_f = relabel(g, set(range(g.n)).difference(failed))[0]
        measure = node_expansion_exact
    else:
        g_f = Graph.from_edges(g.n, edge_survival_pattern(g, float(p), seed).kept_edges)
        measure = edge_expansion_exact
    if alpha is None:
        alpha = measure(g).value
    trace = (prune if model == "node" else prune2)(g_f, alpha, Fraction(eps))
    expansion = trace.h_expansion
    gam = gamma(g_f)
    h_frac = Fraction(trace.h_size, g.n)
    certified = (
        2 * trace.h_size >= g.n
        and trace.h_size >= 2
        and expansion >= Fraction(eps) * alpha
    )
    return TrialResult(
        p=Fraction(p),
        trial=trial,
        gamma=gam,
        h_frac=h_frac,
        expansion=expansion,
        certified=certified,
    )


def _boundary_size(g: Graph, s, mode: str) -> int:
    if mode == "node":
        return len(node_boundary(g, s))
    return len(edge_boundary(g, s))


def _prefix_row(g_f: Graph, ids, mode: str, union_root) -> tuple:
    union_local = unmapped(ids, union_root)
    return _boundary_size(g_f, union_local, mode), len(union_local)


def _sparse_cut(g: Graph, mode: str, threshold: Fraction):
    if g.n < 2:
        return None, None
    value, s = _min_ratio_cut(g, range(g.n), mode)
    if value > threshold:
        return value, None
    return value, make_cut(g, s)


def compact_cull(g: Graph, s: tuple) -> tuple:
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


def _heuristic_cut(cur: Graph, mode: str, threshold: Fraction, index: int):
    fn = node_expansion_heuristic if mode == "node" else edge_expansion_heuristic
    wit = fn(cur, trials=8, seed=index).witness
    s = () if wit is None else wit.set
    if not s or 2 * len(s) > cur.n:
        return None
    if Fraction(_boundary_size(cur, s, mode), len(s)) <= threshold:
        return tuple(s)
    return None


def prune_loop(g: Graph, alpha, eps, mode: str, method: str = "exact", nodes=None) -> PruneTrace:
    alpha, eps = Fraction(alpha), Fraction(eps)
    _validate_params(alpha, eps)
    if method not in ("exact", "heuristic"):
        raise InputError(f"unknown prune method {method!r}")
    g_f, g_f_ids = relabel(g, range(g.n) if nodes is None else nodes)
    cur, ids = g_f, g_f_ids
    steps = []
    union_root: list = []
    bnd_sum = 0
    threshold = alpha * eps
    value = None
    while True:
        if method == "heuristic":
            raw_local = None if cur.n < 2 else _heuristic_cut(cur, mode, threshold, len(steps))
        else:
            value, found = _sparse_cut(cur, mode, threshold)
            raw_local = None if found is None else found.set
        if raw_local is None:
            break
        compact_flag = None
        cull_local = raw_local
        if mode == "edge" and is_connected(cur) and is_connected_subset(cur, raw_local):
            cull_local = compact_cull(cur, raw_local)
            compact_flag = is_compact(cur, cull_local)
            if not compact_flag:
                raise ContractError("edge prune culled a non-compact set")
        bnd = _boundary_size(cur, cull_local, mode)
        ratio = Fraction(bnd, len(cull_local))
        if ratio > threshold:
            raise ContractError("culled set exceeded the cull threshold")
        nodes_root = mapped(ids, cull_local)
        raw_root = mapped(ids, raw_local)
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
        union_bnd, union_size = _prefix_row(g_f, g_f_ids, mode, union_root)
        if union_bnd > bnd_sum:
            raise ContractError("union boundary exceeded the per-step boundary sum")
        if bnd_sum > threshold * union_size:
            raise ContractError("boundary sum exceeded alpha*eps times the culled size")
        cur, ids = relabel(cur, set(range(cur.n)).difference(cull_local), ids)
    return PruneTrace(
        mode=mode,
        alpha=alpha,
        eps=eps,
        n_start=g_f.n,
        steps=tuple(steps),
        final_nodes=mapped(ids, range(cur.n)),
        certified=method == "exact",
        h_expansion=value,
    )


def union_boundary_check(g: Graph, trace: PruneTrace, nodes=None) -> list:
    g_f, ids = relabel(g, range(g.n) if nodes is None else nodes)
    out = []
    union_root: list = []
    bnd_sum = 0
    threshold = trace.alpha * trace.eps
    for step in trace.steps:
        union_root.extend(step.nodes)
        bnd_sum += step.boundary_size
        union_bnd, union_size = _prefix_row(g_f, ids, trace.mode, union_root)
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


def greedy_cuts(g: Graph, stop):
    cur, ids = g, tuple(range(g.n))
    steps = []
    failed = 0
    while True:
        comps = connected_components(cur)
        if not comps or len(comps[0]) < 2 or stop(len(comps[0]), failed):
            break
        sub, sub_ids = relabel(cur, comps[0], ids)
        if sub.n <= kernels.EXACT_MAX_N:
            witness = node_expansion_exact(sub).witness
        else:
            witness = node_expansion_heuristic(sub, trials=32, seed=failed).witness
        removed = mapped(sub_ids, witness.node_boundary)
        if not removed:
            break
        steps.append(
            ShatterStep(
                index=len(steps),
                component_size=sub.n,
                picked=mapped(sub_ids, witness.set),
                removed=removed,
            )
        )
        failed += len(removed)
        cur, ids = relabel(cur, set(range(cur.n)).difference(unmapped(ids, removed)), ids)
    return cur, ids, steps


def shatter_uniform(g: Graph, eps) -> ShatterResult:
    eps = Fraction(eps)
    target = eps * g.n
    cur, ids, steps = greedy_cuts(g, lambda size, _failed: size <= target)
    return ShatterResult(
        eps=eps,
        n=g.n,
        failed=tuple(sorted(v for s in steps for v in s.removed)),
        steps=tuple(steps),
        components=tuple(mapped(ids, c) for c in connected_components(cur)),
    )


def attack_greedy_cuts(g: Graph, budget: int) -> FaultPattern:
    _cur, _ids, steps = greedy_cuts(g, lambda _size, failed: failed >= budget)
    failed = [v for s in steps for v in s.removed][:budget]
    return FaultPattern(
        kind=KIND_NODE,
        failed_nodes=tuple(sorted(failed)),
        provenance={"strategy": "greedy-cuts", "budget": budget},
    )
