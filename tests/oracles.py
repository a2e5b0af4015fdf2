"""Independent oracles built on networkx and brute force, used to check
the package's exact machinery through a second code path.

`min_ratio_node_cut` and `min_ratio_edge_cut` are the per-mask loops the
ratio sweeps were first written as; they stay here as the from-scratch
reference for the vectorized kernels."""

from fractions import Fraction
from itertools import combinations

import networkx as nx

from xpand.faults import make_rng, rand_below
from xpand.graph import Graph


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
