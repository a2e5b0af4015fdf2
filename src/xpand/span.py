"""Span: how much bigger the minimal connector of a set's boundary is
than the boundary itself.

The span of a graph is the maximum over compact sets U of |P(U)| /
|boundary(U)|, where P(U) is a minimum-node tree spanning the boundary
(Steiner nodes allowed anywhere in the graph). Meshes admit a direct
certificate that this never exceeds 2, checked here edge by edge
without any Steiner search.

Exact answers walk every compact set. They come from one numpy table
engine in the kernels: a connectivity bit for each of the 2^n masks (a
mask is compact iff it and its complement are connected), then, a
block of 2^12 sets at a time, each set's boundary, its size and a
greedy connector bound read from per-node breadth-first tables. A set
whose bound can still beat the best ratio has its Steiner size decided
by lookups in the same connectivity table; only a set that does beat
it, a new maximum, gets an exact Steiner tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

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
from .generators import mesh, mesh_coords, mesh_strides
from .graph import Graph, canon_nodes, connected_components, is_connected, node_boundary

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
    considered: int  # compact sets whose Steiner size was decided
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
    masks = kernels.compact_masks(kernels.connectivity_table(g.n, adj))
    return [kernels.mask_nodes(mask) for mask in masks.tolist()]


def span_exact(g: Graph) -> SpanReport:
    """Exact span by walking every compact set in canonical order.

    The connectivity table is built once (kernels.connectivity_table);
    the compact sets, their boundaries and a greedy connector bound for
    each come from it (kernels.compact_masks and
    kernels.compact_set_bounds), a block of masks at a time. A set is
    dismissed when its greedy bound over its boundary size cannot
    strictly beat the best ratio so far; since the bound is at most n,
    this also dismisses every set whose n/|boundary| cannot. For each
    remaining set with boundary T, the set beats the best ratio num/den
    iff its Steiner size exceeds L = floor(num |T| / den), which the
    table decides (kernels.connector_lookup). Only a new maximum gets an
    exact Steiner tree. Ties keep the first compact set, and a
    dismissed set can at best tie.
    """
    if g.n < 2:
        raise InputError("span needs at least 2 nodes")
    if not is_connected(g):
        raise InputError("span is defined for connected graphs")
    if g.n > COMPACT_ENUM_LIMIT:
        raise LimitError(f"exact span is limited to n <= {COMPACT_ENUM_LIMIT}, got n={g.n}")
    adj = kernels.adjacency_masks(g.adjacency)
    conn = kernels.connectivity_table(g.n, adj)
    masks = kernels.compact_masks(conn)
    fits = kernels.connector_lookup(conn)
    num, den = 0, 1  # best ratio so far; 0/1 lets the first set through
    best = None  # (set, boundary, tree_edges)
    considered = 0
    start = 0
    for bnd, t, greedy in kernels.compact_set_bounds(g.adjacency, masks):
        for i in np.flatnonzero(greedy * den > t * num).tolist():
            size = int(t[i])
            if int(greedy[i]) * den <= num * size:
                continue  # the best ratio rose since the block was screened
            considered += 1
            tmask = int(bnd[i])
            if fits(tmask, num * size // den):
                continue  # a connector of at most L nodes exists: no gain
            terms = kernels.mask_nodes(tmask)
            res = kernels.steiner_min_tree(g.n, adj, terms)
            if res is None:
                raise ContractError("boundary of a compact set spans several components")
            if res[0] * den <= num * size:
                raise ContractError("steiner tree does not beat the ratio as its lookup said")
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
    """One random compact set of a connected graph, or None.

    Grows a random connected set U, then fills its holes: every
    component of V minus U but the largest (the first in
    connected_components order) joins U. Each hole touches U, so U stays
    connected and its complement is one component. The set is rejected
    only when max_size is given and the filled set exceeds it.
    """
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


def span_sampled(
    g: Graph,
    trials: int,
    seed: int,
    *,
    max_size: int | None = None,
) -> SpanReport:
    """Monte Carlo lower bound on the span from randomly grown compact
    sets. trials counts attempts; rejected sets (above max_size, or
    boundary above the terminal budget) still consume their draws."""
    if g.n < 2:
        raise InputError("span needs at least 2 nodes")
    if not is_connected(g):
        raise InputError("span is defined for connected graphs")
    if trials < 1:
        raise InputError("need at least one trial")
    if max_size is not None and max_size < 1:
        raise InputError(f"max_size must be at least 1, got {max_size}")
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


def _virtual_row(dims, v: int):
    """Mesh node v's virtual neighbours: the nodes that differ from v in
    one or two coordinates, each by exactly one, as a mask, and for each
    two-coordinate neighbour w the midpoint that flips v's first
    differing coordinate to w's value, as a one-bit mask keyed by w."""
    steps = []  # (axis, offset) of the mesh neighbours, by ascending axis
    coords = mesh_coords(dims, v)
    for axis, (c, side, stride) in enumerate(zip(coords, dims, mesh_strides(dims))):
        if c > 0:
            steps.append((axis, -stride))
        if c + 1 < side:
            steps.append((axis, stride))
    virt = 0
    mids = {}
    for i, (axis_a, da) in enumerate(steps):
        virt |= 1 << (v + da)
        for axis_b, db in steps[i + 1 :]:
            if axis_b != axis_a:
                w = v + da + db
                virt |= 1 << w
                mids[w] = 1 << (v + da)
    return virt, mids


def _certify_boundary(dims, rows: dict, bnd: int):
    """Connector size for one compact set's boundary mask, or None when
    its virtual boundary graph splits.

    A breadth-first spanning tree of the virtual graph on the boundary,
    from the lowest boundary node, taking neighbours in ascending order;
    each two-coordinate tree edge adds its midpoint from the parent's
    side. rows caches _virtual_row per node for the whole certificate.
    """
    seen = bnd & -bnd
    connector = bnd
    queue = [seen.bit_length() - 1]
    for x in queue:  # the loop also walks the nodes appended below
        row = rows.get(x)
        if row is None:
            row = rows[x] = _virtual_row(dims, x)
        virt, mids = row
        new = virt & bnd & ~seen
        seen |= new
        while new:
            low = new & -new
            y = low.bit_length() - 1
            queue.append(y)
            connector |= mids.get(y, 0)
            new ^= low
    if seen != bnd:
        return None
    return connector.bit_count()


def verify_mesh_span_certificate(
    dims,
    *,
    exhaustive: bool = True,
    samples: int = 0,
    seed: int = 0,
) -> MeshSpanCertificate:
    """Check the two-times-boundary connector certificate on a mesh,
    over every compact set (exhaustive) or over randomly grown ones.

    Each set's virtual boundary graph (boundary nodes joined when they
    differ in at most two coordinates, each by one) must be connected,
    and a spanning tree of it, expanded back into mesh nodes, must
    connect the boundary with at most 2|boundary| nodes. Exhaustive
    boundaries come blockwise from the table engine.
    """
    dims = tuple(int(d) for d in dims)
    g = mesh(dims)
    if exhaustive:
        if g.n > COMPACT_ENUM_LIMIT:
            raise LimitError(
                f"exhaustive certificate is limited to n <= {COMPACT_ENUM_LIMIT}, "
                f"got n={g.n}"
            )
        adj = kernels.adjacency_masks(g.adjacency)
        masks = kernels.compact_masks(kernels.connectivity_table(g.n, adj))
        bnds = chain.from_iterable(b.tolist() for b in kernels.boundary_blocks(adj, masks))
        sets = zip(masks.tolist(), bnds)
    else:
        if samples < 1:
            raise InputError("sampled certificate needs at least one sample")
        rng = make_rng(seed)
        sets = (_sampled_masks(g, rng) for _ in range(int(samples)))
    rows = {}
    failures = []
    num, den = 0, 1  # worst connector ratio so far
    checked = 0
    for pair in sets:
        if pair is None:
            continue
        u, bnd = pair
        size = _certify_boundary(dims, rows, bnd)
        checked += 1
        if size is None:
            failures.append(kernels.mask_nodes(u))
        elif size * den > num * bnd.bit_count():
            num, den = size, bnd.bit_count()
    if checked == 0:
        # every mesh has compact sets, so only sampling can end up here
        raise SamplingError("no sample produced a compact set")
    return MeshSpanCertificate(
        dims=dims,
        checked=checked,
        failures=tuple(failures),
        max_ratio=Fraction(num, den),
    )


def _sampled_masks(g: Graph, rng):
    """(set mask, boundary mask) of one randomly grown compact set, or
    None when the growth is rejected. Built from the node lists: a
    table of adjacency masks would grow with n^2 on large meshes."""
    nodes = sample_compact_set(g, rng)
    if nodes is None:
        return None
    return sum(1 << v for v in nodes), sum(1 << v for v in node_boundary(g, nodes))
