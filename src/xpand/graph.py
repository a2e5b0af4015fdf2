"""Immutable simple graphs plus the subset primitives everything else uses.

Nodes are dense integer ids 0..n-1. Node sets travel in canonical form:
a tuple sorted ascending with no duplicates. A faulty graph is a pair
(graph, surviving nodes) in the graph's own ids, so analysis traces
report sets in the coordinates of the graph they were given.

Text format for graph files: '#' starts a comment, the first data line is
``n m``, followed by exactly m lines ``u v`` with 0 <= u < v < n. Duplicate
edges and self-loops are load errors. Lines end at ``\n``, ``\r\n`` or
``\r`` only, and tokens are separated by ASCII spaces and tabs only.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import InputError, LimitError, LoadError

# the largest graph a file or a generator may describe
NODE_LIMIT = 1 << 20
EDGE_LIMIT = 1 << 24


def check_size(n: int, m: int) -> None:
    """Refuse n nodes or m edges past the limits, before building anything."""
    if n > NODE_LIMIT:
        raise LimitError(f"graph would have {n} nodes, more than {NODE_LIMIT}")
    if m > EDGE_LIMIT:
        raise LimitError(f"graph would have {m} edges, more than {EDGE_LIMIT}")


def _node_id(v, n: int) -> int:
    """v as an int when it is an integer id in [0, n): numpy integers pass
    through operator.index, and a float, a string, None or an id out of
    range is an InputError, never truncated or coerced."""
    try:
        i = operator.index(v)
    except TypeError:
        raise InputError(f"node id {v!r} is not an integer") from None
    if not 0 <= i < n:
        raise InputError(f"node id {i} out of range for n={n}")
    return i


class Graph:
    """Undirected simple graph, immutable after construction."""

    __slots__ = ("_adj", "_m", "_max_degree")

    def __init__(self, adjacency: Iterable[Iterable[int]]):
        """The one simple-graph validator: every id passes _node_id and
        is stored as an int, each row sorted; a self-loop, a repeated
        neighbour or a missing back-edge is an InputError."""
        rows = list(adjacency)
        n = len(rows)
        adj = tuple(tuple(sorted([_node_id(u, n) for u in nb])) for nb in rows)
        m2 = 0
        maxdeg = 0
        for v, nbrs in enumerate(adj):
            if len(nbrs) > maxdeg:
                maxdeg = len(nbrs)
            m2 += len(nbrs)
            prev = -1
            for u in nbrs:
                if u == prev:
                    raise InputError(f"repeated neighbour {u} of node {v}")
                if u == v:
                    raise InputError(f"self-loop at node {v}")
                row = adj[u]  # sorted, so one binary search per entry
                i = bisect_left(row, v)
                if i == len(row) or row[i] != v:
                    raise InputError(f"asymmetric adjacency between {u} and {v}")
                prev = u
        self._adj = adj
        self._m = m2 // 2
        self._max_degree = maxdeg

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """The graph on n nodes with the given edges, each a pair of ids;
        Graph() validates the rows they are placed into."""
        if n < 0:
            raise InputError("node count must be nonnegative")
        check_size(n, 0)  # before the rows are built
        adj: list[list[int]] = [[] for _ in range(n)]
        for e in edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise InputError(f"edge {e!r} is not a pair of node ids") from None
            u, v = _node_id(u, n), _node_id(v, n)
            adj[u].append(v)
            adj[v].append(u)
        return cls(adj)

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return self._m

    @property
    def max_degree(self) -> int:
        return self._max_degree

    @property
    def adjacency(self) -> tuple:
        return self._adj

    def neighbors(self, v: int) -> tuple:
        return self._adj[_node_id(v, len(self._adj))]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return _node_id(v, len(self._adj)) in self.neighbors(u)

    def edges(self) -> Iterator[tuple]:
        """Yield edges as (u, v) with u < v, ascending."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if v > u:
                    yield (u, v)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Cut:
    """A node subset with its exact boundary statistics."""

    set: tuple
    node_boundary: tuple
    edge_boundary_size: int
    node_ratio: Fraction
    edge_ratio: Fraction


def canon_nodes(g: Graph, nodes: Iterable[int]) -> tuple:
    """Validate ids against g and return the canonical sorted tuple."""
    out = sorted([_node_id(v, g.n) for v in nodes])
    for a, b in zip(out, out[1:]):
        if a == b:
            raise InputError(f"duplicate node id {a} in set")
    return tuple(out)


def node_boundary(g: Graph, s: Iterable[int], nodes=None) -> tuple:
    """Nodes outside s adjacent to s, canonical order; with nodes, a set
    of g's ids holding s, only those in it: the boundary in the subgraph
    of g induced by nodes."""
    s_set = set(canon_nodes(g, s))
    out = set()
    for v in s_set:
        for u in g.adjacency[v]:
            if u not in s_set:
                out.add(u)
    if nodes is not None:
        out.intersection_update(nodes)
    return tuple(sorted(out))


def edge_boundary(g: Graph, s: Iterable[int], nodes=None) -> tuple:
    """Edges with exactly one endpoint in s, as (min,max) pairs,
    ascending; with nodes, a set of g's ids holding s, only those with
    the other endpoint in it."""
    s_set = set(canon_nodes(g, s))
    out = []  # each edge once, from its endpoint in s
    for v in s_set:
        for u in g.adjacency[v]:
            if u not in s_set and (nodes is None or u in nodes):
                out.append((v, u) if v < u else (u, v))
    return tuple(sorted(out))


def make_cut(g: Graph, s: Iterable[int], nodes=None) -> Cut:
    """Build the Cut record for s in g, or with nodes, a set of g's ids,
    in the subgraph of g induced by nodes; requires s a nonempty proper
    subset of them."""
    s_t = canon_nodes(g, s)
    n = g.n if nodes is None else len(nodes)
    if not s_t or len(s_t) >= n or not (nodes is None or set(s_t).issubset(nodes)):
        raise InputError("cut set must be a nonempty proper subset")
    nb = node_boundary(g, s_t, nodes)
    eb = edge_boundary(g, s_t, nodes)
    small = min(len(s_t), n - len(s_t))
    return Cut(
        set=s_t,
        node_boundary=nb,
        edge_boundary_size=len(eb),
        node_ratio=Fraction(len(nb), len(s_t)),
        edge_ratio=Fraction(len(eb), small),
    )


def connected_components(g: Graph, nodes: Iterable[int] | None = None) -> list:
    """Components of g, or of the subgraph induced by nodes, as
    canonical tuples, largest first, ties by smallest id."""
    order = range(g.n) if nodes is None else canon_nodes(g, nodes)
    todo = bytearray(g.n)
    for v in order:
        todo[v] = 1
    comps = []
    for start in order:
        if not todo[start]:
            continue
        todo[start] = 0
        comp = [start]
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.adjacency[v]:
                if todo[u]:
                    todo[u] = 0
                    comp.append(u)
                    stack.append(u)
        comps.append(tuple(sorted(comp)))
    comps.sort(key=lambda c: (-len(c), c[0]))
    return comps


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(connected_components(g)[0]) == g.n


def is_connected_subset(g: Graph, nodes: Iterable[int]) -> bool:
    """True iff the subgraph induced by nodes is connected (and nonempty)."""
    return len(connected_components(g, nodes)) == 1


def is_compact(g: Graph, u: Iterable[int]) -> bool:
    """True iff induced(u) and induced(V minus u) are both connected.

    Undefined for u empty or u = V; those raise InputError.
    """
    u_t = canon_nodes(g, u)
    if not u_t or len(u_t) == g.n:
        raise InputError("compactness is undefined for the empty set and for V")
    rest = sorted(set(range(g.n)) - set(u_t))
    return is_connected_subset(g, u_t) and is_connected_subset(g, rest)


def _decimals(line: str):
    """The line's two tokens as ints when both are ASCII decimal digits,
    else None. int() alone would also take signs, underscores and
    non-ASCII digits. A number past 20 digits exceeds every limit and is
    refused before int() meets its 4300-digit cap."""
    parts = [t for t in line.replace("\t", " ").split(" ") if t]
    if len(parts) != 2 or not all(t.isascii() and t.isdigit() for t in parts):
        return None
    if max(len(t.lstrip("0")) for t in parts) > 20:
        raise LimitError(f"a number on line {line[:40]!r} has more than 20 digits")
    return int(parts[0]), int(parts[1])


def loads(text: str) -> Graph:
    """Parse the plain text graph format."""
    rows = []
    for raw in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
        line = raw.split("#", 1)[0].strip(" \t")
        if line:
            rows.append(line)
    if not rows:
        raise LoadError("empty graph file")
    head = _decimals(rows[0])
    if head is None:
        raise LoadError(f"header must be 'n m', got {rows[0]!r}")
    n, m = head
    check_size(n, m)
    if len(rows) - 1 != m:
        raise LoadError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for line in rows[1:]:
        pair = _decimals(line)
        if pair is None:
            raise LoadError(f"bad edge line {line!r}")
        if not pair[0] < pair[1]:
            raise LoadError(f"edge line must satisfy u < v, got {line!r}")
        edges.append(pair)
    try:
        return Graph.from_edges(n, edges)
    except InputError as exc:  # an id out of range, or a repeated edge
        raise LoadError(str(exc)) from None


def dumps(g: Graph) -> str:
    """Serialize to the text format with edges in canonical order."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def load_file(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
