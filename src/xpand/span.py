"""Span: how much bigger the minimal connector of a set's boundary is
than the boundary itself.

The span of a graph is the maximum over compact sets U of |P(U)| /
|boundary(U)|, where P(U) is a minimum-node tree spanning the boundary
(Steiner nodes allowed anywhere in the graph). Meshes admit a direct
certificate that this never exceeds 2, checked here edge by edge
without any Steiner search.

Exact answers walk every compact set. The sets come from one numpy
table engine in the kernels: a connectivity bit for each of the 2^n
masks (a mask is compact iff it and its complement are connected),
then, a block of 2^12 sets at a time, each set's boundary, its size
and a greedy connector bound read from per-node breadth-first tables.
Python-level work is left for the few sets whose bound can still beat
the best ratio: those get an exact Steiner tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .errors import (
    ContractError,
    InputError,
    LimitError,
    NoSteinerTreeError,
    SamplingError,
)
from .faults import make_rng, rand_below
from .generators import mesh, mesh_coords, mesh_index
from .graph import Graph, canon_nodes, is_compact, is_connected, node_boundary

COMPACT_ENUM_LIMIT = 18
STEINER_TERMINAL_LIMIT = 14


@dataclass(frozen=True)
class SpanReport:
    method: str  # "exact" or "sampled"
    value: Fraction
    argmax: tuple  # compact set reaching the value (first in canonical order)
    boundary: tuple  # its node boundary, the tree's terminals
    tree_edges: tuple  # a minimum-node tree spanning the boundary
    tree_size: int
    considered: int  # compact sets whose Steiner tree was computed
    skipped: int  # compact sets dismissed by upper bounds

    @property
    def boundary_size(self) -> int:
        return len(self.boundary)

    def to_payload(self) -> dict:
        return {
            "method": self.method,
            "value_num": self.value.numerator,
            "value_den": self.value.denominator,
            "argmax": list(self.argmax),
            "boundary": list(self.boundary),
            "boundary_size": self.boundary_size,
            "tree_edges": [list(e) for e in self.tree_edges],
            "tree_size": self.tree_size,
            "considered": self.considered,
            "skipped": self.skipped,
        }


def steiner_tree_min(g: Graph, terminals):
    """Minimum-node tree spanning the terminals: (node_count, edges).

    Edges are canonical (min, max) pairs, sorted. Raises
    NoSteinerTreeError when the terminals span several components.
    """
    terms = canon_nodes(g, terminals)
    if not terms:
        raise InputError("steiner tree needs at least one terminal")
    if len(terms) > STEINER_TERMINAL_LIMIT:
        raise LimitError(f"steiner search is limited to {STEINER_TERMINAL_LIMIT} terminals")
    adj = kernels.adjacency_masks(g.adjacency)
    res = kernels.steiner_min_tree(g.n, adj, terms)
    if res is None:
        raise NoSteinerTreeError("terminals do not lie in one component")
    count, edges, _method = res
    return count, edges


def enumerate_compact_sets(g: Graph):
    """All compact sets of g as sorted tuples, canonical order."""
    if g.n > COMPACT_ENUM_LIMIT:
        raise LimitError(
            f"compact enumeration is limited to n <= {COMPACT_ENUM_LIMIT}, got n={g.n}"
        )
    adj = kernels.adjacency_masks(g.adjacency)
    return [kernels.mask_nodes(mask) for mask in kernels.compact_masks(g.n, adj).tolist()]


def span_exact(g: Graph) -> SpanReport:
    """Exact span by walking every compact set in canonical order.

    The compact sets, their boundaries and a greedy connector bound for
    each come from the table engine (kernels.compact_masks and
    kernels.compact_set_bounds), a block of masks at a time. A set is
    dismissed when its greedy bound over its boundary size cannot
    strictly beat the best ratio so far; since the bound is at most n,
    this also dismisses every set whose n/|boundary| cannot. Only the
    remaining sets get an exact Steiner tree, in canonical order. Ties
    keep the first compact set, and a dismissed set can at best tie.
    """
    if g.n < 2:
        raise InputError("span needs at least 2 nodes")
    if not is_connected(g):
        raise InputError("span is defined for connected graphs")
    if g.n > COMPACT_ENUM_LIMIT:
        raise LimitError(f"exact span is limited to n <= {COMPACT_ENUM_LIMIT}, got n={g.n}")
    adj = kernels.adjacency_masks(g.adjacency)
    masks = kernels.compact_masks(g.n, adj)
    num, den = 0, 1  # best ratio so far; 0/1 lets the first set through
    best = None  # (set, boundary, tree_edges)
    considered = 0
    start = 0
    for bnd, t, greedy in kernels.compact_set_bounds(g.adjacency, masks):
        for i in np.flatnonzero(greedy * den > t * num).tolist():
            size = int(t[i])
            if int(greedy[i]) * den <= num * size:
                continue  # the best ratio rose since the block was screened
            terms = kernels.mask_nodes(int(bnd[i]))
            res = kernels.steiner_min_tree(g.n, adj, terms)
            if res is None:
                raise ContractError("boundary of a compact set spans several components")
            considered += 1
            if res[0] * den > num * size:
                num, den = res[0], size
                best = (kernels.mask_nodes(int(masks[start + i])), terms, tuple(res[1]))
        start += len(bnd)
    if best is None:
        raise ContractError("connected graph with n >= 2 has no compact set")
    return SpanReport(
        method="exact",
        value=Fraction(num, den),
        argmax=best[0],
        boundary=best[1],
        tree_edges=best[2],
        tree_size=num,
        considered=considered,
        skipped=len(masks) - considered,
    )


def sample_compact_set(g: Graph, rng, *, max_size: int | None = None):
    """Grow one random connected set and return it if compact, else None."""
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
    nodes = tuple(sorted(members))
    if len(nodes) == g.n or not is_compact(g, nodes):
        return None
    return nodes


def span_sampled(
    g: Graph,
    trials: int,
    seed: int,
    *,
    max_size: int | None = None,
) -> SpanReport:
    """Monte Carlo lower bound on the span from randomly grown compact
    sets. trials counts attempts; rejected growths (non-compact, or
    boundary above the terminal budget) still consume their draws."""
    if g.n < 2:
        raise InputError("span needs at least 2 nodes")
    if not is_connected(g):
        raise InputError("span is defined for connected graphs")
    if trials < 1:
        raise InputError("need at least one trial")
    rng = make_rng(seed)
    adj = kernels.adjacency_masks(g.adjacency)
    best = None
    considered = 0
    skipped = 0
    for _ in range(int(trials)):
        nodes = sample_compact_set(g, rng, max_size=max_size)
        if nodes is None:
            skipped += 1
            continue
        bnd = node_boundary(g, nodes)
        if len(bnd) > STEINER_TERMINAL_LIMIT:
            skipped += 1
            continue
        res = kernels.steiner_min_tree(g.n, adj, bnd)
        if res is None:
            raise ContractError("boundary of a compact set spans several components")
        considered += 1
        ratio = Fraction(res[0], len(bnd))
        if best is None or ratio > best[0]:
            best = (ratio, nodes, bnd, tuple(res[1]), res[0])
    if best is None:
        raise SamplingError("no attempt produced a usable compact set")
    return SpanReport(
        method="sampled",
        value=best[0],
        argmax=best[1],
        boundary=best[2],
        tree_edges=best[3],
        tree_size=best[4],
        considered=considered,
        skipped=skipped,
    )


def mesh_virtual_boundary_graph(dims, boundary) -> Graph:
    """Virtual graph on a mesh boundary: two boundary nodes are joined
    when they differ in at most two coordinates, each by exactly one.
    node_map carries the original mesh ids."""
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
    return Graph.from_edges(len(b), edges, node_map=b)


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


@dataclass(frozen=True)
class MeshSpanCertificate:
    dims: tuple
    checked: int
    failures: tuple  # compact sets whose virtual boundary graph split
    max_ratio: Fraction  # worst |connector| / |boundary| over checked sets

    @property
    def ok(self) -> bool:
        return not self.failures and self.max_ratio <= 2

    def to_payload(self) -> dict:
        return {
            "dims": list(self.dims),
            "checked": self.checked,
            "failures": [list(f) for f in self.failures],
            "max_ratio_num": self.max_ratio.numerator,
            "max_ratio_den": self.max_ratio.denominator,
            "ok": self.ok,
        }


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
    """Check the two-times-boundary connector certificate on a mesh,
    over every compact set (exhaustive) or over randomly grown ones."""
    dims = tuple(int(d) for d in dims)
    g = mesh(dims)
    if exhaustive:
        if g.n > COMPACT_ENUM_LIMIT:
            raise LimitError(
                f"exhaustive certificate is limited to n <= {COMPACT_ENUM_LIMIT}, "
                f"got n={g.n}"
            )
        adj = kernels.adjacency_masks(g.adjacency)
        sets = map(kernels.mask_nodes, kernels.compact_masks(g.n, adj).tolist())
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
        # every mesh has compact sets, so only sampling can end up here
        raise SamplingError("no sample produced a compact set")
    return MeshSpanCertificate(
        dims=dims,
        checked=checked,
        failures=tuple(failures),
        max_ratio=max_ratio,
    )
