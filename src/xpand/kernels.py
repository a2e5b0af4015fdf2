"""Bitmask kernels: numpy subset sweeps and the compact-set engine,
pure Python for the rest.

Node sets are int bitmasks over local ids. Every routine is
deterministic; ties break by (ratio, then set size, then
lexicographically smallest canonical set). For bitmasks, set A is
lex-smaller than set B iff the lowest bit of A ^ B belongs to A, which
agrees with comparing the sorted id tuples.

No function here calls a public name of this module, directly or
through an alias: shared steps are private functions (_bits, _mask_of,
_mask_connected, ...) that the public ones are built on. So wrapping
the public functions (per-kernel call tracing) sees each call from
outside exactly once and never a helper step inside a kernel.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import ContractError, InputError, LimitError

# recorded in manifests
BACKEND = "python"

INF = 1 << 30
# the low bits of a mask that one vectorized step scores together
_CHUNK_BITS = 12
# masks are numpy uint64 inside the sweeps
_MAX_MASK_BITS = 63
# the compact-set engine keeps one bool per mask: 16 MiB at this n
_COMPACT_MAX_N = 24
_BLOCK = 1 << _CHUNK_BITS


def _bits(mask: int):
    """Node ids of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_nodes(mask: int) -> tuple:
    """Node ids of a bitmask, ascending: the canonical node set."""
    return tuple(_bits(mask))


def _mask_of(nodes) -> int:
    m = 0
    for v in nodes:
        m |= 1 << v
    return m


def adjacency_masks(adjacency) -> list:
    """Each node's neighbour list as a bitmask."""
    return [_mask_of(nbrs) for nbrs in adjacency]


def _table_limit(n: int) -> None:
    if n > _COMPACT_MAX_N:
        raise LimitError(f"compact-set tables are limited to n <= {_COMPACT_MAX_N}, got n={n}")


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


def _mask_connected(mask: int, adj) -> bool:
    if mask == 0:
        return False
    return _flood(mask & -mask, mask, adj) == mask


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


def _low_halves(n: int):
    """Chunk split of an n-bit sweep: the low width c, the 2^c low halves
    in scan order, and where each size class starts in that order.

    Scan order is ascending size, then lex-ascending within a size
    (descending bit-reversed mask), so the first of several tied low
    halves in a size class is the canonical one.
    """
    if n > _MAX_MASK_BITS:
        raise LimitError(f"subset sweeps are limited to n <= {_MAX_MASK_BITS}, got n={n}")
    c = min(n, _CHUNK_BITS)
    # key = size * 2^c - (bit-reversed mask) < 2^16, by the doubling
    # recurrence; a stable uint16 argsort keeps the set of numpy code
    # paths, and so the resident code pages, small
    key = np.zeros(1 << c, dtype=np.uint16)
    for i in range(c):
        np.add(key[: 1 << i], (1 << c) - (1 << (c - 1 - i)), out=key[1 << i : 2 << i])
    order = np.argsort(key, kind="stable")
    starts = [0]
    for s in range(c + 1):
        starts.append(starts[-1] + comb(c, s))
    return c, order, starts


def _sweep(n: int, max_size: int, c: int, order, starts, score):
    """Canonical (value, size, mask) minimizing value / size over
    1 <= size <= max_size, or None.

    A mask is high | low with low the c low bits. The high halves are
    walked in Gray-code order, so each differs from the previous one in
    the single bit flip (0 at the first). score(high, flip, end) returns
    (values, offset): values[k] + offset is the value of high | order[k]
    for every k < end, and end covers exactly the low halves that keep
    the size within max_size.
    """
    best = None
    for step in range(1 << (n - c)):
        high = (step ^ (step >> 1)) << c
        flip = (step & -step) << c
        hs = high.bit_count()
        top = min(max_size - hs, c)
        values, offset = score(high, flip, starts[top + 1] if top >= 0 else 0)
        if top < 0:
            continue
        # per size class the smallest value; the empty set is skipped
        mins = np.minimum.reduceat(values, starts[: top + 1]).tolist()
        cb = cs = None
        for j in range(1 if hs == 0 else 0, top + 1):
            b, s = mins[j] + offset, j + hs
            if cb is None or b * cs < cb * s:
                cb, cs = b, s
        if cb is None:
            continue
        if best is not None:
            lhs, rhs = cb * best[1], best[0] * cs
            if lhs > rhs or (lhs == rhs and cs > best[1]):
                continue
        # the first minimum of the size class is its lex-smallest set
        g0 = starts[cs - hs]
        k = g0 + int(np.argmin(values[g0 : starts[cs - hs + 1]]))
        mask = high | int(order[k])
        if best is None or _better(cb, cs, mask, best[0], best[1], best[2]):
            best = (cb, cs, mask)
    return best


def min_ratio_node_cut(n: int, adj, max_size: int):
    """Minimize |outer node boundary| / |S| over 1 <= |S| <= max_size.

    Full sweep over all subsets; node-boundary minimizers need not be
    connected. Returns (boundary_size, set_size, set_mask) or None.
    """
    if n < 1 or max_size < 1:
        return None
    c, order, starts = _low_halves(n)
    full = (1 << n) - 1
    nbr = np.zeros(1 << c, dtype=np.uint64)
    outside = np.full(1 << c, full, dtype=np.uint64)
    for i in range(c):
        half = slice(1 << i, 2 << i)
        np.bitwise_or(nbr[: 1 << i], np.uint64(adj[i]), out=nbr[half])
        np.bitwise_and(outside[: 1 << i], np.uint64(full ^ (1 << i)), out=outside[half])
    nbr = nbr[order]
    outside = outside[order]
    buf = np.empty(1 << c, dtype=np.uint64)

    def score(high, _flip, end):
        h = 0
        for v in _bits(high):
            h |= adj[v]
        t = buf[:end]
        np.bitwise_or(nbr[:end], np.uint64(h), out=t)
        np.bitwise_and(t, outside[:end], out=t)
        np.bitwise_and(t, np.uint64(full ^ high), out=t)
        return np.bitwise_count(t), 0

    return _sweep(n, max_size, c, order, starts, score)


def min_ratio_edge_cut(n: int, adj, max_size: int):
    """Minimize |edge boundary| / |S| over 1 <= |S| <= max_size.

    Sweeps all subsets; adj must be symmetric. The canonical winner is
    always connected: any disconnected S has a component with ratio <=
    ratio(S) and smaller size, so it loses the (ratio, size) tie-break.
    Returns (cut_size, set_size, set_mask) or None.
    """
    if n < 1 or max_size < 1:
        return None
    c, order, starts = _low_halves(n)
    low = np.arange(1 << c, dtype=np.uint64)
    # cut[S | 1<<i] = cut[S] + deg(i) - 2 |adj(i) & S|, cuts taken in all of G
    cut = np.zeros(1 << c, dtype=np.int32)
    for i in range(c):
        inner = np.bitwise_count(low[: 1 << i] & np.uint64(adj[i]))
        np.subtract(cut[: 1 << i] + adj[i].bit_count(), 2 * inner, out=cut[1 << i : 2 << i])
    # values[k] = cut(low) - 2 |edges(low, high)| for the current high half
    values = cut[order]
    low = low[order]
    cross = [
        2 * np.bitwise_count(low & np.uint64(adj[v])).astype(np.int32) for v in range(c, n)
    ]
    cut_high = 0

    def score(high, flip, end):
        nonlocal cut_high
        if flip:
            v = flip.bit_length() - 1
            d = adj[v].bit_count() - 2 * (adj[v] & high & ~flip).bit_count()
            if high & flip:
                cut_high += d
                np.subtract(values, cross[v - c], out=values)
            else:
                cut_high -= d
                np.add(values, cross[v - c], out=values)
        return values[:end], cut_high

    return _sweep(n, max_size, c, order, starts, score)


def _or_tables(bits):
    """OR tables over masks split at c = min(len(bits), 12) bits: the
    OR of bits[i] over the i in a mask S is lo[S & (2^c - 1)] | hi[S >> c].

    Both halves are built by doubling, t[S | 1<<i] = t[S] | bits[i], so
    each holds at most 2^12 uint32 entries for masks of up to 24 bits.
    """
    c = min(len(bits), _CHUNK_BITS)

    def build(part):
        t = np.zeros(1 << len(part), dtype=np.uint32)
        for i, b in enumerate(part):
            np.bitwise_or(t[: 1 << i], np.uint32(b), out=t[1 << i : 2 << i])
        return t

    return np.uint32((1 << c) - 1), np.uint32(c), build(bits[:c]), build(bits[c:])


def _or_lookup(tables, s):
    low, c, lo, hi = tables
    return lo[s & low] | hi[s >> c]


def _lowbit(s):
    return s & (~s + np.uint32(1))


def connectivity_table(n: int, adj):
    """conn[m] for every mask m of n nodes: whether induced(m) is
    connected, as a bool array of 2^n entries (conn[0] is False).

    One bool per mask records connectivity, so n is capped at 24 (a
    16 MiB table); larger n raises LimitError before anything is
    allocated. The table is filled 2^12 masks at a time by a vectorized
    flood from each mask's lowest node.
    """
    _table_limit(n)
    nbr = _or_tables(adj)
    size = 1 << n
    conn = np.zeros(size, dtype=bool)
    for b in range(0, size, _BLOCK):
        m = np.arange(b, min(b + _BLOCK, size), dtype=np.uint32)
        reached = _lowbit(m)
        while True:
            grown = (_or_lookup(nbr, reached) | reached) & m
            if np.array_equal(grown, reached):
                break
            reached = grown
        conn[b : b + len(m)] = reached == m
    conn[0] = False
    return conn


def compact_masks(conn):
    """Masks U with induced(U) and induced(V minus U) both connected, as
    an ascending uint32 array (the canonical enumeration order wherever
    compact sets are walked or reported), read from a connectivity
    table: a mask is compact iff it and its complement are connected.
    Since conn[0] is False, the empty and the full mask are never
    compact.
    """
    size = len(conn)
    full = size - 1
    parts = [np.zeros(0, dtype=np.uint32)]
    for b in range(0, size, _BLOCK):
        e = min(b + _BLOCK, size)
        # conn[full ^ m] for m = b..e-1, since full ^ m = full - m
        both = conn[b:e] & conn[full - e + 1 : full - b + 1][::-1]
        parts.append(np.flatnonzero(both).astype(np.uint32) + np.uint32(b))
    return np.concatenate(parts)


def connector_lookup(conn):
    """Steiner sizes decided from a connectivity table.

    Returns fits(terminals, limit): True iff some connected node set of
    at most limit nodes contains the terminal mask, that is iff the
    minimum-node tree spanning the terminals has at most limit nodes.
    It looks up conn[terminals | sub] over the subsets sub of the other
    nodes with |sub| <= limit - |terminals|, in ascending popcount,
    at most 2^12 at a time, and stops at the first connected one.

    The subsets are built from masks over f = |free nodes| index bits,
    deposited onto the free nodes through OR tables. Index masks of
    popcount j over n - 1 bits are kept in ascending order; those below
    2^f are the first comb(f, j) of them (colex order), so one list per
    popcount serves every f.
    """
    n = len(conn).bit_length() - 1
    # at least one terminal, so at most n - 1 free nodes
    counts = np.bitwise_count(np.arange(1 << max(n - 1, 0), dtype=np.uint32))
    ranked = []  # ranked[j]: index masks of popcount j, ascending

    def fits(terminals: int, limit: int) -> bool:
        if not terminals:
            raise InputError("steiner tree needs at least one terminal")
        extra = limit - terminals.bit_count()
        if extra < 0:
            return False
        free = [1 << v for v in range(n) if not terminals >> v & 1]
        extra = min(extra, len(free))
        while len(ranked) <= extra:
            ranked.append(np.flatnonzero(counts == len(ranked)).astype(np.uint32))
        subs = np.concatenate([ranked[j][: comb(len(free), j)] for j in range(extra + 1)])
        deposit = _or_tables(free)
        t = np.uint32(terminals)
        for b in range(0, len(subs), _BLOCK):
            if conn[_or_lookup(deposit, subs[b : b + _BLOCK]) | t].any():
                return True
        return False

    return fits


def _bfs_tables(adjacency):
    """Per source v, the breadth-first search from v in adjacency-list
    order: OR tables mapping a node mask to the mask of discovery
    positions of its nodes, and path[k], the tree path from the k-th
    discovered node back to v as a node mask (0 past the last one)."""
    n = len(adjacency)
    out = []
    for v in range(n):
        order = [v]
        path_of = {v: 1 << v}
        head = 0
        while head < len(order):
            x = order[head]
            head += 1
            for u in adjacency[x]:
                if u not in path_of:
                    path_of[u] = path_of[x] | (1 << u)
                    order.append(u)
        position = [0] * n  # unreachable nodes have none
        # entry 32 is read when no tree node is reachable: lowbit 0 - 1
        # wraps to all 32 bits set
        path = np.zeros(33, dtype=np.uint32)
        for k, u in enumerate(order):
            position[u] = 1 << k
            path[k] = path_of[u]
        out.append((_or_tables(position), path))
    return out


def boundary_blocks(adj, masks):
    """Node boundaries nbr(U) & ~U of the masks (a uint32 array, as
    compact_masks returns it), yielded as uint32 arrays of at most 2^12
    entries in the order of the masks."""
    _table_limit(len(adj))
    nbr = _or_tables(adj)
    for b in range(0, len(masks), _BLOCK):
        u = masks[b : b + _BLOCK]
        yield _or_lookup(nbr, u) & ~u


def compact_set_bounds(adjacency, masks):
    """Boundaries and greedy connector bounds of compact sets, blockwise.

    For each run of at most 2^12 masks (a uint32 array, as compact_masks
    returns it) yields (boundary, t, greedy): the boundary masks as
    boundary_blocks yields them, their sizes, and the node count of the
    greedy connector of each boundary. The greedy connector starts from the
    lowest boundary node and attaches the other boundary nodes in
    ascending order, each by the breadth-first path (adjacency-list
    order) to the first tree node the search from it discovers. Here
    that is done for a whole block at once: per target v, the first
    tree node is the lowest set bit of the tree's discovery positions
    from v, and its path is read from a table.
    """
    n = len(adjacency)
    _table_limit(n)
    nbr = _or_tables([_mask_of(nbrs) for nbrs in adjacency])
    bfs = _bfs_tables(adjacency)
    for b in range(0, len(masks), _BLOCK):
        u = masks[b : b + _BLOCK]
        bnd = _or_lookup(nbr, u) & ~u
        tree = _lowbit(bnd)
        for v in range(n):
            need = np.flatnonzero(bnd & ~tree & np.uint32(1 << v))
            if need.size == 0:
                continue
            grown = tree[need]
            ranks, path = bfs[v]
            # lowbit - 1 counts the positions before the first tree node
            first = np.bitwise_count(_lowbit(_or_lookup(ranks, grown)) - np.uint32(1))
            tree[need] = grown | path[first]
        yield (
            bnd,
            np.bitwise_count(bnd).astype(np.int64),
            np.bitwise_count(tree).astype(np.int64),
        )


def connected_masks(n: int, adj, cap: int):
    """Masks of nonempty connected induced subgraphs, ascending.

    Returns None as soon as more than cap sets exist. Enumeration roots
    each set at its smallest node and branches on including or banning
    one frontier node at a time, so each set is emitted exactly once.
    """
    out = []
    full = (1 << n) - 1

    def rec(s: int, ext: int, banned: int) -> bool:
        if ext == 0:
            out.append(s)
            return len(out) <= cap
        u = ext & -ext
        grown = s | u
        new_ext = (ext | (adj[u.bit_length() - 1] & allowed & ~banned)) & ~grown
        if not rec(grown, new_ext, banned):
            return False
        return rec(s, ext ^ u, banned | u)

    for root in range(n):
        rootbit = 1 << root
        allowed = full & ~(rootbit - 1)
        if not rec(rootbit, adj[root] & allowed & ~rootbit, 0):
            return None
    out.sort()
    return out


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


def _kruskal_lex(w: int, adj) -> tuple:
    """Lex-smallest spanning tree edge list of induced(w); w connected."""
    nodes = tuple(_bits(w))
    dsu = _DSU(nodes)
    edges = []
    for u in nodes:
        for v in _bits(adj[u] & w):
            if v > u and dsu.union(u, v):
                edges.append((u, v))
    return tuple(edges)


def steiner_min_tree(n: int, adj, terminals):
    """Minimum-node tree spanning the terminals.

    Returns (node_count, edges, method) or None when the terminals do
    not share a component. Small instances take the superset sweep,
    whose tie-break is the exact lex-min tree over all minimum node
    sets; larger ones take subset DP, which is deterministic but only
    guarantees some minimum tree.
    """
    terms = tuple(sorted({int(v) for v in terminals}))
    t = len(terms)
    if t < 1:
        raise InputError("steiner tree needs at least one terminal")
    full = (1 << n) - 1
    reach = _flood(1 << terms[0], full, adj)
    for v in terms:
        if not (reach >> v) & 1:
            return None
    if t == 1:
        return (1, (), "trivial")
    free = n - t
    if free <= 22 and (1 << free) <= 4 * 3**t:
        return _steiner_sweep(n, adj, terms)
    if t > 16:
        raise InputError(f"steiner subset DP is limited to 16 terminals, got {t}")
    return _steiner_dw(n, adj, terms)


def _steiner_sweep(n: int, adj, terms):
    tmask = _mask_of(terms)
    free_mask = ((1 << n) - 1) & ~tmask
    best_size = INF
    ties = []
    sub = free_mask
    while True:
        w = tmask | sub
        size = w.bit_count()
        if size <= best_size and _mask_connected(w, adj):
            if size < best_size:
                best_size = size
                ties = [w]
            else:
                ties.append(w)
        if sub == 0:
            break
        sub = (sub - 1) & free_mask
    if best_size >= INF:
        return None
    best_edges = None
    for w in sorted(ties):
        edges = _kruskal_lex(w, adj)
        if best_edges is None or edges < best_edges:
            best_edges = edges
    return (best_size, best_edges, "sweep")


def _steiner_dw(n: int, adj, terms):
    """Subset DP with unit edge weights; node count is edge count + 1."""
    t = len(terms)
    full_ts = (1 << t) - 1
    nbuckets = 2 * n + 2
    dp = [[INF] * n for _ in range(full_ts + 1)]
    # parent: None, (0, u) tree edge from u, (1, submask) merge split
    pa = [[None] * n for _ in range(full_ts + 1)]
    for i, v in enumerate(terms):
        dp[1 << i][v] = 0
    for s in range(1, full_ts + 1):
        dps = dp[s]
        pas = pa[s]
        if s & (s - 1):
            low = s & -s
            sub = (s - 1) & s
            while sub:
                if sub & low:
                    rest = s ^ sub
                    dsub = dp[sub]
                    drest = dp[rest]
                    for v in range(n):
                        a, b = dsub[v], drest[v]
                        if a < INF and b < INF and a + b < dps[v]:
                            dps[v] = a + b
                            pas[v] = (1, sub)
                sub = (sub - 1) & s
        buckets = [[] for _ in range(nbuckets)]
        for v in range(n):
            if dps[v] < nbuckets:
                buckets[dps[v]].append(v)
        for d in range(nbuckets - 1):
            for v in buckets[d]:
                if dps[v] != d:
                    continue
                m = adj[v]
                while m:
                    lowb = m & -m
                    u = lowb.bit_length() - 1
                    m ^= lowb
                    if d + 1 < dps[u]:
                        dps[u] = d + 1
                        pas[u] = (0, v)
                        buckets[d + 1].append(u)
    root = terms[0]
    best = dp[full_ts][root]
    if best >= INF:
        return None
    edges = set()
    stack = [(full_ts, root)]
    while stack:
        s, v = stack.pop()
        step = pa[s][v]
        if step is None:
            continue
        kind, aux = step
        if kind == 0:
            edges.add((aux, v) if aux < v else (v, aux))
            stack.append((s, aux))
        else:
            stack.append((aux, v))
            stack.append((s ^ aux, v))
    if len(edges) != best:
        raise ContractError("steiner reconstruction lost or duplicated edges")
    return (best + 1, tuple(sorted(edges)), "dw")
