"""Bitmask kernels: numpy subset sweeps and the compact-set engine,
pure Python for the rest.

Node sets are int bitmasks over local ids. Every routine is
deterministic; ties break by (ratio, then set size, then
lexicographically smallest canonical set). For bitmasks, set A is
lex-smaller than set B iff the lowest bit of A ^ B belongs to A, which
agrees with comparing the sorted id tuples.

The two ratio sweeps share one block driver, _sweep. A mask splits
into a high half and c = min(n, 12) low bits, the low halves taken in
scan order (by size, then lex). High halves come in blocks of rows, at
most _SWEEP_BLOCK entries: the node scorer fills a block with one OR of
each row's closed neighbourhood N(high) | high with the low table
N(low) | low and one popcount, since |N(S) - S| = |N(S) | S| - |S|;
the edge scorer fills it by doubling over the rows from a base row
moved in Gray-code order. The driver takes every row's size-class
minima with one reduceat, picks the block's best (ratio, size) from
an exact integer rank, and runs argmin and the lex tie-break only on
the rows that tie it.

Adjacency travels as one neighbour mask per node (adjacency_masks), and
components are found on masks alone: _flood grows the component of one
mask, connectivity_table decides every mask of up to 24 nodes at once,
connected_counts bins its connected masks by size (the census),
connector_lookup reads Steiner sizes from a superset minimum over that
table, and _kruskal_lex keeps each tree's node mask. The table is built
level by level on the highest node h of a mask: the component of the
mask's lowest node either skips h, or is the same component one level
down joined through h with the other components h touches, each of
them read from a lower level.

No function here calls a public name of this module, directly or
through an alias: shared steps are private functions (_bits, _mask_of,
_mask_connected, ...) that the public ones are built on. So wrapping
the public functions (per-kernel call tracing) sees each call from
outside exactly once and never a helper step inside a kernel.
"""

from __future__ import annotations

import functools
from math import comb

import numpy as np

from .errors import ContractError, InputError, LimitError

# read by the benchmark harness (perfbench/worker.py) for its report
BACKEND = "python"

INF = 1 << 30
# the exact engine's cap on n: the ratio sweeps walk 2^n subsets, and
# the connectivity table keeps a bool per mask and, while it builds, a
# uint32 per mask below 2^(n-1): 48 MiB at this n
EXACT_MAX_N = 24
# adjacency_masks keeps n bits per node, n^2 in all: 2 MiB at this n
MASKS_MAX_N = 1 << 12
# the low bits of a ratio sweep's masks, and of the split of _or_tables
_CHUNK_BITS = 12
# steiner_min_tree's subset DP work, 3^t x n for t terminals: 5-7 s
# at this cap; with n <= MASKS_MAX_N its 2^t x n tables stay under 2^21
_STEINER_DP_MAX_WORK = 1 << 26
# connector_lookup's table entry for a mask no connected set contains
_NO_CONNECTOR = 127
_BLOCK = 1 << _CHUNK_BITS
# masks per vectorized step of connectivity_table: a step's temporaries
# stay near 0.3 MiB, where steps of 2^16 masks raised a span process's
# peak resident memory by about 2 MiB
_TABLE_CHUNK = 1 << 14
# entries of one block of a ratio sweep, rows of high halves times low
# halves: a node block's uint32 ORs take 256 KiB, and at n = 24 one
# call of either sweep peaks under 1 MiB
_SWEEP_BLOCK = 1 << 16
# 16 * lcm(1, ..., 12): for set sizes 1 <= s <= 12, b * (_RANK // s) + s
# is exact and orders cuts (b, s) by b / s, then by s
_RANK = 16 * 27720
# the rank of a set size outside 1..n // 2, above every cut's
_UNRANKED = 1 << 30


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
    """Each node's neighbour list as a bitmask. More than MASKS_MAX_N
    nodes are refused before any mask is built."""
    n = len(adjacency)
    if n > MASKS_MAX_N:
        raise LimitError(f"adjacency masks are limited to n <= {MASKS_MAX_N}, got n={n}")
    return [_mask_of(nbrs) for nbrs in adjacency]


def _exact_limit(n: int) -> None:
    if n > EXACT_MAX_N:
        raise LimitError(f"exact subset enumeration is limited to n <= {EXACT_MAX_N}, got n={n}")


def exact_limit(n: int) -> None:
    """LimitError past EXACT_MAX_N nodes, as every sweep and table kernel
    checks, for callers to check before they build anything of n nodes."""
    _exact_limit(n)


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
    diff = m1 ^ m2
    return bool(m1 & diff & -diff)


def _low_halves(n: int):
    """Chunk split of an n-bit sweep: the low width c, the 2^c low halves
    in scan order, and where each size class starts in that order.

    Scan order is ascending size, then lex-ascending within a size
    (descending bit-reversed mask), so the first of several tied low
    halves in a size class is the canonical one.
    """
    _exact_limit(n)
    c = min(n, _CHUNK_BITS)
    return (c, *_scan_order(c))


@functools.lru_cache(maxsize=None)
def _scan_order(c: int):
    """(order, starts) of _low_halves for width c, built once per c and
    shared by every sweep: order is read-only, starts a tuple."""
    # key = size * 2^c - (bit-reversed mask) < 2^16, by the doubling
    # recurrence; a stable uint16 argsort keeps the set of numpy code
    # paths, and so the resident code pages, small
    key = np.zeros(1 << c, dtype=np.uint16)
    for i in range(c):
        np.add(key[: 1 << i], (1 << c) - (1 << (c - 1 - i)), out=key[1 << i : 2 << i])
    order = np.argsort(key, kind="stable")
    order.flags.writeable = False
    starts = [0]
    for s in range(c + 1):
        starts.append(starts[-1] + comb(c, s))
    return order, tuple(starts)


@functools.lru_cache(maxsize=None)
def _ranks(n: int, closed: bool):
    """(weight, shift) tables of a ratio sweep of n nodes, read-only,
    indexed by the size hs of a high half and the size class j of the
    low halves, for sets of size s = hs + j: a class whose least value
    is m ranks m * weight + shift, as the cut (m, s), or (m - s, s) with
    closed, where the values count S as well. A size outside 1..n // 2
    ranks _UNRANKED, with weight 0."""
    c = min(n, _CHUNK_BITS)
    s = np.arange(n - c + 1)[:, None] + np.arange(c + 1)
    valid = (s >= 1) & (s <= n // 2)
    weight = np.where(valid, _RANK // np.maximum(s, 1), 0).astype(np.int32)
    shift = np.where(valid, s - _RANK * closed, _UNRANKED).astype(np.int32)
    weight.flags.writeable = shift.flags.writeable = False
    return weight, shift


def _block_rows(c: int, count: int) -> int:
    """High halves per block of a sweep over count of them (a power of
    two) with c low bits: a power of two, at most _SWEEP_BLOCK >> c."""
    return min(count, max(1, _SWEEP_BLOCK >> c))


def _sweep(n: int, highs, score, offsets, closed: bool):
    """Canonical (value, size, mask) minimizing value / size over
    1 <= size <= n // 2, for n >= 2.

    A mask is high << c | low for a high half in highs and a low half of
    the c bits of _low_halves(n), in scan order. The high halves are
    scored in blocks of _block_rows rows, in the order of highs:
    score(a, b, end) returns values, where values[r, k] + offsets[a + r]
    (0 without offsets) is the value of highs[a + r] << c | order[k],
    for r < b - a and every k < end, and end covers the low halves that
    keep the smallest row's size within n // 2. With closed, values
    count S itself as well (|N(S) | S| for node boundaries), so the size
    is taken off.

    A cut (b, s) ranks as b * (_RANK // s) + s: an exact integer that
    orders cuts by b / s, then by s, and whose last four bits are s.
    Each row's size-class minima come from one reduceat and are ranked
    by the _ranks tables of the row's size; only the rows that tie the
    block's best rank are searched for their set.
    """
    c, order, starts = _low_halves(n)
    sizes = np.bitwise_count(highs)
    weight, shift = _ranks(n, closed)
    rows = _block_rows(c, len(highs))
    firsts = range(0, len(highs), rows)
    best = None
    for a, least in zip(firsts, np.minimum.reduceat(sizes, firsts).tolist()):
        b = a + rows
        # top >= 0: a high half has at most n - c <= n // 2 nodes
        top = min(n // 2 - least, c)
        values = score(a, b, starts[top + 1])
        mins = np.minimum.reduceat(values, starts[: top + 1], axis=1)
        hs = sizes[a:b]
        if offsets is not None:
            mins = mins + offsets[a:b, None]
        rank = mins * weight[hs, : top + 1] + shift[hs, : top + 1]
        low = int(rank.min())
        if best is not None and low > best[0]:
            continue
        size = low & 15
        value = (low - size) // (_RANK // size)
        tied = (rank == low).nonzero()
        for r, j in zip(tied[0].tolist(), tied[1].tolist()):
            high = int(highs[a + r]) << c
            # no set of the row is lex-smaller than its j lowest low bits
            if best is not None and not _better(value, size, high | (1 << j) - 1, *best[1:]):
                continue
            # the first minimum of the size class is the row's lex-smallest set
            k = starts[j] + int(values[r, starts[j] : starts[j + 1]].argmin())
            mask = high | int(order[k])
            if best is None or _better(value, size, mask, *best[1:]):
                best = (low, value, size, mask)
    return best[1:]


def min_ratio_node_cut(n: int, adj):
    """Minimize |outer node boundary| / |S| over 1 <= |S| <= n // 2.

    Full sweep over all subsets; node-boundary minimizers need not be
    connected. Masks are split at c = min(n, 12) low bits, and since
    |N(S) - S| = |N(S) | S| - |S|, a block is one OR of the closed
    neighbourhoods of its high halves, one per row, with those of the
    low halves, and one popcount. Returns (boundary_size, set_size,
    set_mask), or None for n < 2.
    """
    c, order, _ = _low_halves(n)
    if n < 2:
        return None
    highs = _scan_order(n - c)[0]
    closed = [m | 1 << v for v, m in enumerate(adj)]
    lo = _or_table(closed[:c])[order]
    hi = _or_table(closed[c:])[highs]

    def score(a, b, end):
        return np.bitwise_count(lo[:end] | hi[a:b, None])

    return _sweep(n, highs, score, None, True)


def _cut_table(part, shift: int):
    """cut[S] for every mask S of the nodes shift, shift + 1, ... whose
    neighbour masks part lists: the edge boundary of S in all of G, by
    doubling, cut[S | 1<<i] = cut[S] + deg(i) - 2 |adj(i) & S|."""
    span = np.arange(1 << len(part), dtype=np.uint64) << np.uint64(shift)
    cut = np.zeros(1 << len(part), dtype=np.int32)
    for i, m in enumerate(part):
        inner = np.bitwise_count(span[: 1 << i] & np.uint64(m))
        np.subtract(cut[: 1 << i] + m.bit_count(), 2 * inner, out=cut[1 << i : 2 << i])
    return cut


def min_ratio_edge_cut(n: int, adj):
    """Minimize |edge boundary| / |S| over 1 <= |S| <= n // 2.

    Sweeps all subsets; adj must be symmetric. The canonical winner is
    always connected: any disconnected S has a component with ratio <=
    ratio(S) and smaller size, so it loses the (ratio, size) tie-break.
    Masks are split at c = min(n, 12) low bits. A row holds cut(low) - 2
    |edges(low, high)| with cut(high) as its offset. A block of 2^d
    rows is the high halves base | t for t < 2^d: its first row is the
    base row, kept whole and moved from block to block in Gray-code
    order, one node's cross edges at a time, and its other rows come by
    doubling over t, row(t | 1<<i) = row(t) - cross(i), where cross(i)
    is twice the edges between high node i and the low half. Returns
    (cut_size, set_size, set_mask), or None for n < 2.
    """
    c, order, _ = _low_halves(n)
    if n < 2:
        return None
    rows = _block_rows(c, 1 << (n - c))
    d = rows.bit_length() - 1
    step = np.arange(1 << (n - c - d))
    gray = (step ^ (step >> 1)) << d
    highs = (gray[:, None] | np.arange(rows)).ravel()
    low = np.arange(1 << c, dtype=np.uint64)[order]
    cross = [2 * np.bitwise_count(low & np.uint64(adj[v])).astype(np.int32) for v in range(c, n)]
    base = _cut_table(adj[:c], 0)[order]
    block = np.empty((rows, 1 << c), dtype=np.int32)

    def score(a, b, end):
        q = a >> d
        if q:
            # the base rows of blocks q - 1 and q differ in one high node
            v = (q & -q).bit_length() - 1 + d
            (np.subtract if int(highs[a]) >> v & 1 else np.add)(base, cross[v], out=base)
        block[0, :end] = base[:end]
        for i in range(d):
            np.subtract(block[: 1 << i, :end], cross[i][:end], out=block[1 << i : 2 << i, :end])
        return block[:, :end]

    return _sweep(n, highs, score, _cut_table(adj[c:], c)[highs], False)


def _or_table(bits):
    """t[S] for every mask S of len(bits) bits: the OR of bits[i] over
    the i in S, as uint32, by doubling, t[S | 1<<i] = t[S] | bits[i]."""
    t = np.zeros(1 << len(bits), dtype=np.uint32)
    for i, b in enumerate(bits):
        np.bitwise_or(t[: 1 << i], b, out=t[1 << i : 2 << i])
    return t


def _or_tables(bits):
    """OR tables over masks split at c = min(len(bits), 12) bits: the
    OR of bits[i] over the i in a mask S is lo[S & (2^c - 1)] | hi[S >> c].

    Each half holds at most 2^12 uint32 entries for masks of up to 24
    bits.
    """
    c = min(len(bits), _CHUNK_BITS)
    return np.uint32((1 << c) - 1), np.uint32(c), _or_table(bits[:c]), _or_table(bits[c:])


def _or_lookup(tables, s):
    low, c, lo, hi = tables
    return lo[s & low] | hi[s >> c]


def _lowbit(s):
    return s & (~s + np.uint32(1))


def connectivity_table(n: int, adj):
    """conn[m] for every mask m of n nodes: whether induced(m) is
    connected, as a bool array of 2^n entries (conn[0] is False).

    One bool per mask records connectivity, so n is capped at 24; larger
    n raises LimitError before anything is allocated. The table comes
    from a highest-bit recurrence on L[m], the component of m's lowest
    node within m. With h the highest node of m and m' = m - 2^h:
    L[2^h] = 2^h; L[m] = L[m'] if adj[h] misses L[m']; otherwise L[m] is
    L[m'] | 2^h joined with every other component of m' that adj[h]
    touches. Those are L[r], L[r - L[r]], ... for r = m' - L[m'], since
    removing whole components leaves the others as they were, so each
    is one lookup into a lower, finished level, and the walk stops once
    r misses adj[h]. conn[m] is L[m] == m.

    L is uint32 and kept only below 2^(n-1), as the top level is never
    read: with the bool table that is 48 MiB at n = 24. Each level is
    done _TABLE_CHUNK masks at a time.
    """
    _exact_limit(n)
    conn = np.zeros(1 << n, dtype=bool)
    lowest = np.zeros(1 << max(n - 1, 0), dtype=np.uint32)  # L, bottom half
    ramp = np.arange(min(_TABLE_CHUNK, len(lowest)), dtype=np.uint32)
    for h in range(n):
        bit = 1 << h
        ah = np.uint32(adj[h] & (bit - 1))
        for a in range(0, bit, _TABLE_CHUNK):
            b = min(a + _TABLE_CHUNK, bit)
            lm = lowest[a:b]  # L[m'] for m' = a..b-1
            touch = (lm & ah).astype(bool)
            comp = np.where(touch, lm | np.uint32(bit), lm)
            # the rest of m' may hold more components that h joins
            rest = ramp[: b - a] + np.uint32(a)
            rest ^= lm
            rest &= ah
            join = np.flatnonzero(rest.astype(bool) & touch)
            if join.size:
                r = (join.astype(np.uint32) + np.uint32(a)) ^ lm[join]
                got = comp[join]
                while True:
                    c = lowest[r]
                    got |= np.where((c & ah).astype(bool), c, np.uint32(0))
                    r ^= c
                    comp[join] = got
                    more = (r & ah).astype(bool)
                    if not more.any():
                        break
                    join, r, got = join[more], r[more], got[more]
            if a == 0:
                comp[0] = bit
            np.equal(comp, ramp[: b - a] + np.uint32(bit + a), out=conn[bit + a : bit + b])
            if h < n - 1:
                lowest[bit + a : bit + b] = comp
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


def connected_counts(conn):
    """Census of a connectivity table: a list of n + 1 ints whose entry
    r counts the connected masks of popcount r (entry 0 is 0, since
    conn[0] is False), read _TABLE_CHUNK masks at a time."""
    n = len(conn).bit_length() - 1
    counts = np.zeros(n + 1, dtype=np.int64)
    for a in range(0, len(conn), _TABLE_CHUNK):
        hit = np.flatnonzero(conn[a : a + _TABLE_CHUNK]) + a
        counts += np.bincount(np.bitwise_count(hit), minlength=n + 1)
    return counts.tolist()


def connector_lookup(conn):
    """Steiner sizes decided from a connectivity table.

    Returns size(terminals): the node count of a minimum-node tree
    spanning the terminal mask, that is of the smallest connected node
    set containing it, or None when the terminals span several
    components. It reads one table, built once: best[m] starts as the
    popcount of m where conn[m] holds and _NO_CONNECTOR elsewhere, and a
    superset-minimum pass per node v lowers best[m] to best[m | 1 << v],
    so in the end best[m] is the minimum over the connected supersets
    of m. The table holds one int8 per mask.
    """
    n = len(conn).bit_length() - 1
    best = np.zeros(len(conn), dtype=np.int8)
    for v in range(n):
        np.add(best[: 1 << v], 1, out=best[1 << v : 2 << v])
    np.copyto(best, _NO_CONNECTOR, where=~conn)
    for v in range(n):
        if v < 4:
            # 1 << v strided columns: long inner loops where the pair
            # view below would give numpy runs of 2-8 entries
            rows = best.reshape(-1, 2 << v)
            for j in range(1 << v):
                np.minimum(rows[:, j], rows[:, j + (1 << v)], out=rows[:, j])
        else:
            view = best.reshape(-1, 2, 1 << v)
            np.minimum(view[:, 0], view[:, 1], out=view[:, 0])

    def size(terminals: int):
        if not terminals:
            raise InputError("steiner tree needs at least one terminal")
        k = int(best[terminals])
        return None if k == _NO_CONNECTOR else k

    return size


def _bfs_tables(adj):
    """Per source v, the breadth-first search from v taking neighbours
    in ascending order: OR tables mapping a node mask to the mask of
    discovery positions of its nodes, and path[k], the tree path from
    the k-th discovered node back to v as a node mask (0 past the last
    one)."""
    n = len(adj)
    out = []
    for v in range(n):
        order = [v]
        path_of = {v: 1 << v}
        for x in order:  # the loop also walks the nodes appended below
            for u in _bits(adj[x]):
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
    _exact_limit(len(adj))
    nbr = _or_tables(adj)
    for b in range(0, len(masks), _BLOCK):
        u = masks[b : b + _BLOCK]
        yield _or_lookup(nbr, u) & ~u


def greedy_connector(adj):
    """Greedy connector bounds for node boundaries, built once per graph.

    Returns sizes(bnd): for a uint32 array of boundary masks (a block of
    boundary_blocks), the node count of each one's greedy connector, as
    int64. The greedy connector starts from the lowest boundary node and
    attaches the other boundary nodes in ascending order, each by the
    breadth-first path (neighbours in ascending order) to the first tree
    node the search from it discovers. The per-node breadth-first tables
    are built once, and a call grows the trees of a whole block at once:
    per target v, the first tree node is the lowest set bit of the
    tree's discovery positions from v, and its path is read from a
    table. n > 24 is refused before any table is built.
    """
    _exact_limit(len(adj))
    bfs = _bfs_tables(adj)

    def sizes(bnd):
        tree = _lowbit(bnd)
        for v, (ranks, path) in enumerate(bfs):
            need = np.flatnonzero(bnd & ~tree & np.uint32(1 << v))
            if need.size == 0:
                continue
            grown = tree[need]
            # lowbit - 1 counts the positions before the first tree node
            first = np.bitwise_count(_lowbit(_or_lookup(ranks, grown)) - np.uint32(1))
            tree[need] = grown | path[first]
        return np.bitwise_count(tree).astype(np.int64)

    return sizes


def _kruskal_lex(w: int, adj) -> tuple:
    """Lex-smallest spanning tree edge list of induced(w); w connected.

    comp[v] is the mask of v's tree so far: an edge (u, v), v > u, joins
    two trees iff comp[u] lacks v, and the joined mask is written back
    over its bits."""
    comp = [1 << v for v in range(len(adj))]
    edges = []
    for u in _bits(w):
        for v in _bits(adj[u] & w & -(2 << u)):
            if not comp[u] >> v & 1:
                joined = comp[u] | comp[v]
                for x in _bits(joined):
                    comp[x] = joined
                edges.append((u, v))
    return tuple(edges)


def steiner_min_tree(n: int, adj, terminals):
    """Minimum-node tree spanning the terminals, canonical node ids
    (sorted, distinct ints below n).

    Returns (node_count, edges, method) or None when the terminals do
    not share a component. Small instances take the superset sweep,
    whose tie-break is the exact lex-min tree over all minimum node
    sets; larger ones take subset DP, which is deterministic but only
    guarantees some minimum tree. This is the one place that refuses a
    Steiner search: a DP of more than _STEINER_DP_MAX_WORK units (3^t x
    n) raises LimitError before it allocates anything. At t >= 14 that
    leaves n <= t, where the sweep runs, so the DP never sees 14
    terminals.
    """
    terms = tuple(terminals)
    t = len(terms)
    if t < 1:
        raise InputError("steiner tree needs at least one terminal")
    full = (1 << n) - 1
    reach = _flood(1 << terms[0], full, adj)
    for v in terms:
        if not (reach >> v) & 1:
            return None
    # reach is connected and holds every terminal, so both searches find a tree
    if t == 1:
        return (1, (), "trivial")
    free = n - t
    if free <= 22 and (1 << free) <= 4 * 3**t:
        return _steiner_sweep(n, adj, terms)
    if 3**t * n > _STEINER_DP_MAX_WORK:
        raise LimitError(f"steiner DP work is limited to {_STEINER_DP_MAX_WORK}, got 3^{t} * {n}")
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
