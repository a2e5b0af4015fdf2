"""The bitmask kernels against brute-force references: adjacency
masks, connectivity and the connected-set enumeration against the
graph module, Steiner trees against a networkx oracle, and the
vectorized ratio sweeps against the per-mask reference loops. Also the
module's rule that no kernel calls a public kernel."""

import inspect
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from xpand import kernels
from xpand.errors import InputError, LimitError
from xpand.generators import cycle, mesh
from xpand.graph import Graph, is_connected_subset

from oracles import random_connected_graph, steiner_node_count_nx


def _graphs(count, n_max=11):
    out = [cycle(8), mesh([3, 3]), mesh([2, 2, 2])]
    for seed in range(count):
        out.append(random_connected_graph(seed * 31 + 7, n_max=n_max))
    return out


def test_adjacency_masks_set_one_bit_per_neighbour():
    for g in _graphs(30):
        masks = kernels.adjacency_masks(g.adjacency)
        assert [kernels.mask_nodes(m) for m in masks] == [tuple(a) for a in g.adjacency]


def test_mask_connected_matches_components():
    for g in _graphs(20):
        adj = kernels.adjacency_masks(g.adjacency)
        for mask in range(min(1 << g.n, 4096)):
            want = is_connected_subset(g, kernels.mask_nodes(mask))
            assert kernels._mask_connected(mask, adj) == want


@st.composite
def tie_heavy_adjacency(draw):
    """(n, adjacency masks) for 1 <= n <= 15: complete, edgeless,
    disjoint cliques over shuffled ids, or random. Past 12 nodes a sweep
    spans more than one chunk of low halves."""
    n = draw(st.integers(1, 15))
    kind = draw(st.sampled_from(["complete", "edgeless", "disconnected", "random"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    part = [rng.randrange(3) for _ in range(n)]
    p = rng.choice([0.2, 0.5, 0.8])
    adj = [0] * n
    for v in range(n):
        for u in range(v):
            if kind == "complete":
                edge = True
            elif kind == "edgeless":
                edge = False
            elif kind == "disconnected":
                edge = part[u] == part[v]
            else:
                edge = rng.random() < p
            if edge:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return n, adj


@given(graph=tie_heavy_adjacency())
@settings(max_examples=120, deadline=None)
def test_ratio_sweeps_match_reference_loops(graph):
    n, adj = graph
    for max_size in (1, n // 2, n, n + 3):
        for name in ("min_ratio_node_cut", "min_ratio_edge_cut"):
            want = getattr(oracles, name)(n, adj, max_size)
            assert getattr(kernels, name)(n, adj, max_size) == want


@pytest.mark.parametrize("name", ["min_ratio_node_cut", "min_ratio_edge_cut"])
def test_ratio_sweeps_refuse_masks_past_63_bits(name):
    adj = [0] * 64
    with pytest.raises(LimitError):
        getattr(kernels, name)(64, adj, 1)


def test_compact_set_engine_refuses_tables_past_24_nodes():
    adj = [0] * 25
    with pytest.raises(LimitError):
        kernels.connectivity_table(25, adj)
    with pytest.raises(LimitError):
        next(kernels.boundary_blocks(adj, np.zeros(0, dtype=np.uint32)))
    with pytest.raises(LimitError):
        next(kernels.compact_set_bounds([()] * 25, np.zeros(0, dtype=np.uint32)))


def test_connected_masks_match_brute_force():
    for g in _graphs(15, n_max=10):
        adj = kernels.adjacency_masks(g.adjacency)
        want = [
            m
            for m in range(1, 1 << g.n)
            if is_connected_subset(g, kernels.mask_nodes(m))
        ]
        assert kernels.connected_masks(g.n, adj, len(want)) == want
        assert kernels.connected_masks(g.n, adj, 10**6) == want


def test_connected_masks_cap_returns_none():
    g = mesh([3, 3])
    adj = kernels.adjacency_masks(g.adjacency)
    count = len(kernels.connected_masks(g.n, adj, 10**6))
    assert kernels.connected_masks(g.n, adj, 4) is None
    assert kernels.connected_masks(g.n, adj, count - 1) is None
    assert len(kernels.connected_masks(g.n, adj, count)) == count


def test_steiner_matches_oracle():
    methods = set()
    for g in _graphs(15, n_max=10):
        adj = kernels.adjacency_masks(g.adjacency)
        for terms in (
            (0, g.n - 1),
            tuple(sorted({0, g.n // 2, g.n - 1})),
            tuple(range(0, g.n, 2)),
        ):
            count, edges, method = kernels.steiner_min_tree(g.n, adj, terms)
            methods.add(method)
            assert count == steiner_node_count_nx(g, terms)
            # the certificate is a tree of g on count nodes covering the terminals
            assert all(v in g.adjacency[u] for u, v in edges)
            touched = {v for e in edges for v in e}
            assert set(terms) <= touched
            assert len(touched) == count
            assert len(edges) == count - 1
            assert is_connected_subset(Graph.from_edges(g.n, edges), touched)
    assert methods == {"sweep", "dw"}


def test_connector_lookup_decides_steiner_sizes():
    # the lookup answers "is the Steiner size at most limit" exactly,
    # also one below and one above the size, and for terminals split
    # across components of a disconnected graph
    split = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
    rng = random.Random(5)
    checked = 0
    for g in _graphs(15, n_max=12) + [split]:
        adj = kernels.adjacency_masks(g.adjacency)
        fits = kernels.connector_lookup(kernels.connectivity_table(g.n, adj))
        for _ in range(6):
            terms = tuple(sorted(rng.sample(range(g.n), rng.randint(1, min(5, g.n)))))
            res = kernels.steiner_min_tree(g.n, adj, terms)
            size = g.n + 2 if res is None else res[0]
            tmask = sum(1 << v for v in terms)
            for limit in range(len(terms) - 1, min(size + 2, g.n + 1)):
                assert fits(tmask, limit) == (size <= limit)
                checked += 1
    assert checked > 300
    with pytest.raises(InputError):
        fits(0, 3)


def test_steiner_without_terminals_is_an_input_error():
    adj = kernels.adjacency_masks(((1,), (0, 2), (1,)))
    with pytest.raises(InputError):
        kernels.steiner_min_tree(3, adj, ())


def test_wide_graphs_keep_python_int_masks():
    # masks past 63 bits stay Python ints outside the numpy sweeps
    wide = Graph.from_edges(70, [(i, i + 1) for i in range(69)])
    adj = kernels.adjacency_masks(wide.adjacency)
    assert kernels._mask_connected((1 << 70) - 1, adj)
    assert not kernels._mask_connected(0b101, adj)
    count, edges, _method = kernels.steiner_min_tree(70, adj, (0, 69))
    assert count == 70 and len(edges) == 69


def test_no_kernel_calls_a_public_kernel(monkeypatch):
    g = mesh([3, 5])  # 15 nodes: the ratio sweeps walk several high halves
    small = mesh([3, 3])
    adj = kernels.adjacency_masks(g.adjacency)
    sadj = kernels.adjacency_masks(small.adjacency)
    conn = kernels.connectivity_table(small.n, sadj)
    masks = kernels.compact_masks(conn)

    # wrap every public kernel with a counter under every name bound to
    # it in every loaded xpand module, as per-kernel call tracing does:
    # one call from outside must move only its own counter
    def public(fn):
        return inspect.isfunction(fn) and fn.__module__ == kernels.__name__

    calls = {name: 0 for name, fn in vars(kernels).items() if name[0] != "_" and public(fn)}

    def counter(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    wrapped = {id(getattr(kernels, name)): counter(name, getattr(kernels, name)) for name in calls}
    for modname, module in list(sys.modules.items()):
        if modname == "xpand" or modname.startswith("xpand."):
            for attr, value in list(vars(module).items()):
                if public(value) and id(value) in wrapped:
                    monkeypatch.setattr(module, attr, wrapped[id(value)])

    cases = [
        ("adjacency_masks", lambda: kernels.adjacency_masks(g.adjacency)),
        ("mask_nodes", lambda: kernels.mask_nodes(0b1011)),
        ("min_ratio_node_cut", lambda: kernels.min_ratio_node_cut(g.n, adj, g.n // 2)),
        ("min_ratio_edge_cut", lambda: kernels.min_ratio_edge_cut(g.n, adj, g.n // 2)),
        ("connectivity_table", lambda: kernels.connectivity_table(small.n, sadj)),
        ("compact_masks", lambda: kernels.compact_masks(conn)),
        ("connector_lookup", lambda: kernels.connector_lookup(conn)(0b101000101, 5)),
        ("boundary_blocks", lambda: list(kernels.boundary_blocks(sadj, masks))),
        ("compact_set_bounds", lambda: list(kernels.compact_set_bounds(small.adjacency, masks))),
        ("connected_masks", lambda: kernels.connected_masks(small.n, sadj, 10**6)),
        ("steiner_min_tree", lambda: kernels.steiner_min_tree(small.n, sadj, (0, 2, 6, 8))),
        ("steiner_min_tree", lambda: kernels.steiner_min_tree(g.n, adj, (0, 14))),
    ]
    assert {name for name, _ in cases} == set(calls)
    methods = []
    for name, call in cases:
        for key in calls:
            calls[key] = 0
        result = call()
        if name == "steiner_min_tree":
            methods.append(result[2])
        assert {key: count for key, count in calls.items() if count} == {name: 1}
    assert methods == ["sweep", "dw"]
