"""Graph family generators and the edge-subdivision construction."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import GenerationError, InputError, LimitError
from .faults import json_int, make_rng, shuffle_in_place
from .graph import Graph, check_size
from .manifest import canonical_json

HYPERCUBE_DIM_LIMIT = 16
RANDOM_REGULAR_TRIES = 200


def mesh_size(dims) -> int:
    """The node count of the mesh on dims, refused as mesh refuses it:
    no side, a side below 2, or more nodes or edges than a graph may
    have."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 2 for d in dims):
        raise InputError("mesh needs at least one side, every side >= 2")
    n = 1
    for d in dims:
        n *= d
        check_size(n, 0)  # early, before many sides build a huge product
    check_size(n, sum(n // d * (d - 1) for d in dims))
    return n


def mesh(dims) -> Graph:
    """d-dimensional mesh; node ids are mixed-radix over dims, first axis most significant."""
    dims = tuple(int(d) for d in dims)
    n = mesh_size(dims)
    edges = []
    strides = mesh_strides(dims)
    for vid in range(n):
        coords = mesh_coords(dims, vid)
        for axis, side in enumerate(dims):
            if coords[axis] + 1 < side:
                edges.append((vid, vid + strides[axis]))
    return Graph.from_edges(n, edges)


def mesh_strides(dims) -> tuple:
    strides = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    return tuple(strides)


def mesh_coords(dims, vid: int) -> tuple:
    """Inverse of mesh_index."""
    coords = []
    for stride in mesh_strides(dims):
        coords.append(vid // stride)
        vid %= stride
    return tuple(coords)


def mesh_index(dims, coords) -> int:
    idx = 0
    for c, stride, side in zip(coords, mesh_strides(dims), dims):
        if not 0 <= c < side:
            raise InputError(f"coordinate {c} out of range for side {side}")
        idx += c * stride
    return idx


def hypercube(d: int) -> Graph:
    """Binary d-cube on 2**d nodes; ids are the coordinate bit strings."""
    d = int(d)
    if d < 1:
        raise InputError("hypercube dimension must be >= 1")
    if d > HYPERCUBE_DIM_LIMIT:
        raise LimitError(f"hypercube dimension above {HYPERCUBE_DIM_LIMIT}")
    n = 1 << d
    check_size(n, d * n // 2)
    edges = [(v, v | (1 << b)) for v in range(n) for b in range(d) if not v & (1 << b)]
    return Graph.from_edges(n, edges)


def cycle(n: int) -> Graph:
    n = int(n)
    if n < 3:
        raise InputError("cycle needs n >= 3")
    check_size(n, n)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    n = int(n)
    if n < 1:
        raise InputError("path needs n >= 1")
    check_size(n, n - 1)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    n = int(n)
    if n < 2:
        raise InputError("complete graph needs n >= 2")
    check_size(n, n * (n - 1) // 2)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular simple graph by the pairing model.

    Stubs are paired uniformly; an attempt producing a self-loop or a
    repeated edge is rejected whole and redrawn. Deterministic per seed.
    """
    n, d = int(n), int(d)
    if n < 1 or d < 0 or d >= n:
        raise InputError("need 0 <= d < n")
    if (n * d) % 2 != 0:
        raise InputError("n*d must be even")
    check_size(n, n * d // 2)
    rng = make_rng(seed)
    for _ in range(RANDOM_REGULAR_TRIES):
        stubs = [v for v in range(n) for _ in range(d)]
        shuffle_in_place(stubs, rng)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = (u, v) if u < v else (v, u)
            if key in edges:
                ok = False
                break
            edges.add(key)
        if ok:
            return Graph.from_edges(n, sorted(edges))
    raise GenerationError(
        f"pairing model failed {RANDOM_REGULAR_TRIES} times for n={n}, d={d}, seed={seed}"
    )


@dataclass(frozen=True)
class SubdividedGraph:
    """A graph whose every original edge became a chain of k inner nodes.

    Base nodes keep their ids 0..n-1. Chain node ids follow contiguously,
    one block of k per original edge, edges taken in canonical order, the
    block ordered from the smaller base endpoint toward the larger.
    """

    graph: Graph
    base_nodes: tuple
    chains: tuple  # (base_u, base_v, (inner ids ordered from base_u))
    k: int

    def base_graph(self) -> Graph:
        """The original graph the chains contracted back to."""
        return Graph.from_edges(
            len(self.base_nodes), [(u, v) for u, v, _inner in self.chains]
        )


def subdivide_edges(g: Graph, k: int) -> SubdividedGraph:
    """Replace each edge of g by a chain of k new nodes."""
    k = int(k)
    if k < 1:
        raise InputError("chain length k must be >= 1")
    n = g.n
    check_size(n + k * g.m, (k + 1) * g.m)
    edges = []
    chains = []
    next_id = n
    for u, v in g.edges():
        inner = tuple(range(next_id, next_id + k))
        next_id += k
        chains.append((u, v, inner))
        prev = u
        for c in inner:
            edges.append((prev, c) if prev < c else (c, prev))
            prev = c
        edges.append((prev, v) if prev < v else (v, prev))
    big = Graph.from_edges(next_id, edges)
    return SubdividedGraph(
        graph=big, base_nodes=tuple(range(n)), chains=tuple(chains), k=k
    )


def subdivision_to_json(h: SubdividedGraph) -> str:
    payload = {
        "k": h.k,
        "base_nodes": list(h.base_nodes),
        "chains": [[u, v, list(inner)] for u, v, inner in h.chains],
    }
    return canonical_json(payload)


def subdivision_from_json(text: str, graph: Graph) -> SubdividedGraph:
    """Read a sidecar and check it against its graph: the sidecar is
    accepted only if subdividing its base graph reproduces the base
    nodes, the chains and every edge of graph exactly."""
    try:
        payload = json.loads(text)
        k = json_int(payload["k"])
        base = tuple(json_int(b) for b in payload["base_nodes"])
        chains = tuple(
            (json_int(u), json_int(v), tuple(json_int(c) for c in inner))
            for u, v, inner in payload["chains"]
        )
        h = SubdividedGraph(graph=graph, base_nodes=base, chains=chains, k=k)
        # the node count first, so a forged k cannot build a huge graph
        want = None
        if len(base) + k * len(chains) == graph.n:
            want = subdivide_edges(h.base_graph(), k)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError, InputError) as exc:
        raise InputError(f"bad subdivision sidecar: {exc}") from None
    same = want is not None and (want.base_nodes, want.chains) == (base, chains)
    if not same or want.graph.adjacency != graph.adjacency:
        raise InputError("subdivision sidecar does not match its graph")
    return h
