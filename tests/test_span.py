"""Steiner trees, compact-set enumeration, span, and mesh certificates,
up to the table engine's cap of n = 24."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from xpand import kernels, span
from xpand.errors import (
    GenerationError,
    InputError,
    LimitError,
    NoSteinerTreeError,
    SamplingError,
)
from xpand.generators import (
    complete,
    cycle,
    hypercube,
    mesh,
    mesh_coords,
    path,
    random_regular,
)
from xpand.faults import make_rng
from xpand.graph import Graph, is_compact, is_connected_subset, node_boundary
from xpand.span import (
    sample_compact_set,
    span_exact,
    span_sampled,
    steiner_tree_min,
    verify_mesh_span_certificate,
)

from oracles import steiner_node_count_nx

MESH_DIMS = [(2, 2), (2, 3), (2, 4), (3, 3), (2, 5), (2, 6), (3, 4), (2, 2, 2), (2, 2, 3)]

F = Fraction


def test_steiner_base_cases():
    assert steiner_tree_min(cycle(8), [3]) == (1, ())
    assert steiner_tree_min(cycle(8), [3, 5]) == (3, ((3, 4), (4, 5)))
    # cross terminals of the 3x3 mesh meet at the center
    count, edges = steiner_tree_min(mesh([3, 3]), [1, 3, 5, 7])
    assert count == 5
    assert edges == ((1, 4), (3, 4), (4, 5), (4, 7))


def test_steiner_matches_brute_force():
    for g in (cycle(8), mesh([3, 3]), complete(5), path(7)):
        for terms in ([0, g.n - 1], [0, g.n // 2, g.n - 1]):
            count, edges = steiner_tree_min(g, terms)
            assert count == steiner_node_count_nx(g, terms)
            assert len(edges) == count - 1
            touched = {v for e in edges for v in e} or set(terms[:1])
            assert set(terms) <= touched


def test_steiner_errors():
    gd = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(NoSteinerTreeError):
        steiner_tree_min(gd, [0, 3])
    # the kernel's DP work budget is the one refusal: 11 terminals on
    # mesh 20x20 are 3^11 * 400 units
    with pytest.raises(LimitError, match=r"got 3\^11 \* 400$"):
        steiner_tree_min(mesh([20, 20]), list(range(0, 400, 37)))
    with pytest.raises(InputError):
        steiner_tree_min(cycle(8), [])


def test_steiner_tree_min_answers_fifteen_terminals_by_the_sweep():
    # 15 terminals leave mesh 4x4 one free node, so the superset sweep
    # answers with its lex-min tree
    g = mesh([4, 4])
    count, edges = steiner_tree_min(g, range(15))
    adj = kernels.adjacency_masks(g.adjacency)
    assert (count, edges) == kernels._steiner_sweep(16, adj, tuple(range(15)))[:2]
    assert count == 15 and len(edges) == 14 and max(map(max, edges)) == 14


def compact_sets(g: Graph):
    """All compact sets of g as sorted tuples, in ascending mask order."""
    adj = kernels.adjacency_masks(g.adjacency)
    masks = kernels.compact_masks(kernels.connectivity_table(g.n, adj))
    return [kernels.mask_nodes(mask) for mask in masks.tolist()]


def test_enumerate_compact_sets():
    assert sorted(compact_sets(path(4))) == [
        (0,),
        (0, 1),
        (0, 1, 2),
        (1, 2, 3),
        (2, 3),
        (3,),
    ]
    c5 = compact_sets(cycle(5))
    assert len(c5) == 20  # 5 arcs per length 1..4
    assert len(compact_sets(complete(4))) == 14  # all proper nonempty
    # closed under complement
    g = mesh([3, 3])
    sets = set(compact_sets(g))
    for s in sets:
        comp = tuple(v for v in range(g.n) if v not in s)
        assert comp in sets
        assert is_compact(g, s)


def test_span_frozen_values():
    assert span_exact(complete(5)).value == 1
    assert span_exact(path(6)).value == 1
    r = span_exact(cycle(6))
    assert (r.value, r.argmax) == (F(2), (0, 1))
    r = span_exact(mesh([3, 3]))
    assert (r.value, r.argmax) == (F(5, 3), (0, 1, 3))
    assert r.boundary == (2, 4, 6)
    r = span_exact(mesh([4, 4]))
    assert (r.value, r.argmax) == (F(7, 4), (0, 1, 2, 4, 5, 8))
    assert r.boundary == (3, 6, 9, 12)
    assert r.tree_size == 7 and len(r.tree_edges) == 6


def test_span_report_certificate_is_consistent():
    for g in (cycle(6), mesh([3, 3]), mesh([4, 4])):
        r = span_exact(g)
        assert r.boundary == node_boundary(g, r.argmax)
        assert r.value == F(r.tree_size, len(r.boundary))
        touched = {v for e in r.tree_edges for v in e} or set(r.boundary)
        assert set(r.boundary) <= touched
        assert len(r.tree_edges) == r.tree_size - 1 or r.tree_size == 1
        assert r.value >= 1  # a tree through t terminals has >= t nodes
        payload = r.to_payload()
        assert payload["boundary"] == list(r.boundary)
        assert payload["tree_edges"] == [list(e) for e in r.tree_edges]


def test_span_is_isomorphism_invariant():
    g = mesh([3, 3])
    perm = {v: mesh_coords((3, 3), v)[1] * 3 + mesh_coords((3, 3), v)[0] for v in range(9)}
    h = Graph.from_edges(9, [(perm[u], perm[v]) for u, v in g.edges()])
    assert span_exact(h).value == span_exact(g).value


def test_span_sampled_lower_bounds_exact():
    exact = span_exact(mesh([4, 4])).value
    r = span_sampled(mesh([4, 4]), 300, seed=2)
    assert r.value <= exact
    assert r.method == "sampled"
    again = span_sampled(mesh([4, 4]), 300, seed=2)
    assert (r.value, r.argmax) == (again.value, again.argmax)
    assert r.boundary == node_boundary(mesh([4, 4]), r.argmax)


def test_sampled_sets_are_compact_and_respect_max_size():
    rng = make_rng(4)
    for g in (mesh([7, 7]), mesh([3, 4, 5]), cycle(9), random_regular(16, 3, seed=1)):
        for max_size in (None, 3):
            for _ in range(30):
                nodes = sample_compact_set(g, rng, max_size=max_size)
                if max_size is None:
                    assert nodes is not None
                if nodes is not None:
                    assert is_compact(g, nodes)
                    assert max_size is None or len(nodes) <= max_size


def test_span_sampled_error_when_nothing_usable(monkeypatch):
    # with no DP work allowed, every arc boundary of C8 is skipped
    monkeypatch.setattr(kernels, "_STEINER_DP_MAX_WORK", 0)
    with pytest.raises(SamplingError):
        span_sampled(cycle(8), 5, seed=0)
    with pytest.raises(InputError):
        span_sampled(cycle(8), 0, seed=0)


def test_span_sampled_answers_fifteen_terminal_boundaries():
    # in K16 a single node has 15 boundary nodes and a pair has 14; the
    # superset sweep answers both, with one free node or two
    r = span_sampled(complete(16), 20, seed=0, max_size=1)
    assert r.to_payload() == {
        "method": "sampled",
        "value_num": 1,
        "value_den": 1,
        "argmax": [4],
        "boundary": [0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
        "boundary_size": 15,
        "tree_edges": [[0, v] for v in (1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)],
        "tree_size": 15,
        "considered": 20,
        "skipped": 0,
    }
    r = span_sampled(complete(16), 20, seed=0, max_size=2)
    assert (r.value, r.considered, r.skipped) == (1, 20, 0)


def test_span_sampled_skips_boundaries_past_the_steiner_dp_cap(monkeypatch):
    # every compact set of C8 is an arc with 2 boundary nodes, which the
    # subset DP takes in 3^2 x 8 units of work
    monkeypatch.setattr(kernels, "_STEINER_DP_MAX_WORK", 9 * 8)
    assert span_sampled(cycle(8), 5, seed=0).skipped == 0
    monkeypatch.setattr(kernels, "_STEINER_DP_MAX_WORK", 9 * 8 - 1)
    with pytest.raises(SamplingError):
        span_sampled(cycle(8), 5, seed=0)


def test_span_sampled_max_size_must_be_positive():
    for bad in (0, -2):
        with pytest.raises(InputError):
            span_sampled(cycle(8), 5, seed=0, max_size=bad)
    assert span_sampled(cycle(8), 5, seed=0, max_size=1).method == "sampled"


def test_span_limits():
    # n = 25 is past the table engine's cap
    with pytest.raises(LimitError):
        span_exact(mesh([5, 5]))
    with pytest.raises(LimitError):
        verify_mesh_span_certificate((5, 5), exhaustive=True)
    with pytest.raises(InputError):
        span_exact(Graph.from_edges(4, [(0, 1), (2, 3)]))  # disconnected


def test_span_input_checks():
    one = Graph.from_edges(1, [])
    for run in (span_exact, lambda g: span_sampled(g, 5, 0)):
        with pytest.raises(InputError, match="^span needs at least 2 nodes$"):
            run(one)
    with pytest.raises(InputError, match="^span is defined for connected graphs$"):
        span_sampled(Graph.from_edges(4, [(0, 1), (2, 3)]), 5, 0)


def test_span_sampled_counts_a_set_past_max_size_as_skipped():
    # a draw that starts at the star's center fills in every leaf but
    # one, four nodes, past max_size = 1; a draw at a leaf keeps it
    star = Graph.from_edges(5, [(0, v) for v in range(1, 5)])
    r = span_sampled(star, 10, 0, max_size=1)
    assert (r.considered, r.skipped, r.value) == (6, 4, 1)


def _assert_span_tree(g: Graph, r):
    """r's tree is a tree of g on r.tree_size nodes covering r.boundary."""
    assert r.boundary == node_boundary(g, r.argmax)
    assert r.value == F(r.tree_size, len(r.boundary))
    assert all(v in g.adjacency[u] for u, v in r.tree_edges)
    touched = {v for e in r.tree_edges for v in e} or set(r.boundary)
    assert set(r.boundary) <= touched and len(touched) == r.tree_size
    assert len(r.tree_edges) == r.tree_size - 1
    assert is_connected_subset(Graph.from_edges(g.n, r.tree_edges), touched)


def test_span_exact_past_eighteen_nodes():
    g = mesh([4, 5])  # n = 20
    r = span_exact(g)
    assert (r.value, r.considered, r.skipped) == (F(7, 4), 274, 4668)
    assert r.tree_size == steiner_node_count_nx(g, r.boundary)
    _assert_span_tree(g, r)


def test_mesh_certificate_past_eighteen_nodes():
    cert = verify_mesh_span_certificate((4, 5), exhaustive=True)
    assert cert.ok and cert.checked == 4942
    assert verify_mesh_span_certificate((2, 2, 5), exhaustive=True).ok


def test_span_exact_builds_one_steiner_tree(monkeypatch):
    # Steiner sizes come from the table; only the argmax gets a tree
    calls = []
    tree = kernels.steiner_min_tree

    def counted(*args):
        calls.append(args[2])
        return tree(*args)

    monkeypatch.setattr(kernels, "steiner_min_tree", counted)
    for g in (cycle(6), mesh([3, 3]), mesh([4, 4]), hypercube(4), complete(6)):
        calls.clear()
        r = span_exact(g)
        assert calls == [r.boundary]
        _assert_span_tree(g, r)


def _virtual_pairs(dims, boundary):
    """Virtual edges among boundary nodes, read from the per-node rows."""
    bmask = sum(1 << v for v in boundary)
    return sorted(
        (u, w)
        for u in boundary
        for w in kernels.mask_nodes(span._virtual_row(dims, u)[0] & bmask)
        if u < w
    )


def test_mesh_virtual_boundary_graph():
    assert _virtual_pairs((3, 3), [1, 3, 5, 7]) == [(1, 3), (1, 5), (3, 7), (5, 7)]
    # neighbors of a corner in the 2-cube: pairwise within distance 2
    assert _virtual_pairs((2, 2, 2), [1, 2, 4]) == [(1, 2), (1, 4), (2, 4)]
    # boundary of a 2x2 corner block in the 4x4 mesh stays connected
    block = [0, 1, 4, 5]
    bnd = sum(1 << v for v in node_boundary(mesh([4, 4]), block))
    assert span._certify_boundary((4, 4), {}, bnd) is not None
    # a row of a 3x3 mesh has the two far rows as its boundary: split
    assert span._certify_boundary((3, 3), {}, 0b111000111) is None


def test_expand_virtual_edge():
    virt0, mids0 = span._virtual_row((3, 3), 0)
    assert virt0 >> 1 & 1 and 1 not in mids0  # already adjacent
    _virt1, mids1 = span._virtual_row((3, 3), 1)
    assert mids1[3] == mids1[5] == 1 << 4
    # connector must stitch the pair into a real path
    g = mesh([3, 3])
    for u, v in [(1, 3), (1, 5), (0, 4)]:
        virt, mids = span._virtual_row((3, 3), u)
        assert virt >> v & 1
        mid = kernels.mask_nodes(mids.get(v, 0))
        assert len(mid) <= 1
        if mid:
            assert g.has_edge(u, mid[0]) and g.has_edge(mid[0], v)
    assert not virt0 >> 8 & 1  # too far apart
    # the midpoint flips the parent's first differing coordinate
    assert span._virtual_row((3, 3), 4)[1][0] == 1 << 1
    assert span._virtual_row((3, 3), 0)[1][4] == 1 << 3


def test_mesh_span_certificate():
    cert = verify_mesh_span_certificate((3, 3), exhaustive=True)
    assert cert.ok and cert.failures == ()
    assert (cert.checked, cert.max_ratio) == (106, F(5, 3))
    cert44 = verify_mesh_span_certificate((4, 4), exhaustive=True)
    assert cert44.ok
    assert (cert44.checked, cert44.max_ratio) == (1254, F(9, 5))
    assert cert44.max_ratio <= 2  # the mesh span bound


def test_mesh_span_certificate_sampled():
    cert = verify_mesh_span_certificate((5, 5), exhaustive=False, samples=150, seed=1)
    assert cert.ok
    assert cert.max_ratio <= 2
    assert cert.checked <= 150


@st.composite
def connected_graphs(draw):
    """Connected graphs on 2..13 nodes: paths, cycles, complete graphs,
    meshes and random spanning trees topped up at some edge density.
    Node ids are relabelled at random and every adjacency list reaches
    Graph in shuffled order."""
    kind = draw(st.sampled_from(["path", "cycle", "complete", "mesh", "random"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "mesh":
        base = mesh(draw(st.sampled_from(MESH_DIMS)))
    elif kind == "random":
        n = draw(st.integers(2, 13))
        p = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        edges |= {(u, v) for v in range(n) for u in range(v) if rng.random() < p}
        base = Graph.from_edges(n, sorted(edges))
    else:
        n = draw(st.integers(3 if kind == "cycle" else 2, 13))
        base = {"path": path, "cycle": cycle, "complete": complete}[kind](n)
    perm = list(range(base.n))
    rng.shuffle(perm)
    adjacency = [[] for _ in range(base.n)]
    for u, v in base.edges():
        adjacency[perm[u]].append(perm[v])
        adjacency[perm[v]].append(perm[u])
    for nbrs in adjacency:
        rng.shuffle(nbrs)
    return Graph(adjacency)


@given(g=connected_graphs())
@settings(max_examples=80, deadline=None)
def test_compact_set_engine_matches_reference_loops(g):
    adj = kernels.adjacency_masks(g.adjacency)
    want = oracles.compact_masks(g.n, adj)
    masks = kernels.compact_masks(kernels.connectivity_table(g.n, adj))
    assert masks.tolist() == want
    greedy_size = kernels.greedy_connector(adj)
    rows = []
    for bnd in kernels.boundary_blocks(adj, masks):
        rows.extend(zip(bnd.tolist(), greedy_size(bnd).tolist()))
    assert len(rows) == len(want)
    for mask, (bnd, greedy) in zip(want, rows):
        terms = node_boundary(g, kernels.mask_nodes(mask))
        assert (kernels.mask_nodes(bnd), bnd.bit_count()) == (terms, len(terms))
        assert greedy == oracles._greedy_connector_size(g, terms)
    assert span_exact(g) == oracles.span_exact(g)


def _all_ints(values) -> bool:
    return all(type(v) is int for v in values)


def test_compact_set_results_hold_python_ints(monkeypatch):
    g = mesh([3, 3])
    sets = compact_sets(g)
    assert sets and all(_all_ints(s) for s in sets)
    r = span_exact(g)
    assert _all_ints(r.argmax) and _all_ints(r.boundary)
    assert _all_ints([r.tree_size, r.considered, r.skipped])
    assert all(_all_ints(e) for e in r.tree_edges)
    json.dumps(r.to_payload())
    # every compact set fails, so failures holds what the walk decoded
    monkeypatch.setattr(span, "_certify_boundary", lambda _dims, _rows, _bnd: None)
    cert = verify_mesh_span_certificate((3, 3), exhaustive=True)
    assert len(cert.failures) == cert.checked == len(sets)
    assert all(_all_ints(f) for f in cert.failures)
    json.dumps(cert.to_payload())


def _regular18(seed: int) -> Graph:
    """random_regular(18, 4) from the first generator seed at or after
    seed that yields one (the pairing model fails for some seeds)."""
    for s in range(seed, seed + 100):
        try:
            return random_regular(18, 4, s)
        except GenerationError:
            continue
    raise GenerationError(f"no random_regular(18, 4) in seeds {seed}+100")


FULL_SIZE_GRAPHS = {
    "mesh3x6": lambda: mesh((3, 6)),
    "mesh2x9": lambda: mesh((2, 9)),
    "hypercube4": lambda: hypercube(4),
    **{f"rr18_4_seed{s}": (lambda s=s: _regular18(s)) for s in (0, 3, 7, 42, 99)},
}


@pytest.mark.parametrize("name", sorted(FULL_SIZE_GRAPHS))
def test_span_exact_matches_reference_at_full_size(name):
    g = FULL_SIZE_GRAPHS[name]()
    assert 16 <= g.n <= 18
    assert span_exact(g) == oracles.span_exact(g)


# every 2- and 3-dimensional mesh with 4 <= n <= 18, sides >= 2, plus
# a few transposed ones, whose node numbering differs
CERT_DIMS = [
    (a, b) for a in range(2, 10) for b in range(a, 10) if a * b <= 18
] + [
    (a, b, c)
    for a in range(2, 5)
    for b in range(a, 5)
    for c in range(b, 5)
    if a * b * c <= 18
] + [(3, 2), (6, 3), (9, 2), (3, 2, 2)]


@pytest.mark.parametrize("dims", CERT_DIMS, ids=lambda d: "x".join(map(str, d)))
def test_mesh_certificate_matches_reference_exhaustive(dims):
    cert = verify_mesh_span_certificate(dims, exhaustive=True)
    assert cert == oracles.verify_mesh_span_certificate(dims, exhaustive=True)
    assert cert.ok


@given(
    dims=st.sampled_from([(3, 3), (5, 5), (4, 6), (7, 3), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2)]),
    seed=st.integers(0, 2**32 - 1),
    samples=st.integers(1, 40),
)
@settings(max_examples=40, deadline=None)
def test_mesh_certificate_matches_reference_sampled(dims, seed, samples):
    try:
        want = oracles.verify_mesh_span_certificate(
            dims, exhaustive=False, samples=samples, seed=seed
        )
    except SamplingError:
        with pytest.raises(SamplingError):
            verify_mesh_span_certificate(dims, exhaustive=False, samples=samples, seed=seed)
        return
    got = verify_mesh_span_certificate(dims, exhaustive=False, samples=samples, seed=seed)
    assert got == want
