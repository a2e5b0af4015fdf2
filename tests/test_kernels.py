"""Backend equivalence: the compiled kernels and the fallback must
produce identical results on identical inputs, and the fallback's
vectorized ratio sweeps must match the per-mask reference loops."""

import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from xpand import _kernels_py, kernels
from xpand.errors import InputError, LimitError
from xpand.generators import cycle, mesh
from xpand.graph import Graph

from conftest import subprocess_env
from oracles import random_connected_graph, steiner_node_count_nx


def _both_backends():
    py = kernels.get_backend("python")
    try:
        cy = kernels.get_backend("cython")
    except Exception:
        pytest.skip("compiled backend not built")
    return py, cy


def _graphs(count, n_max=11):
    out = [cycle(8), mesh([3, 3]), mesh([2, 2, 2])]
    for seed in range(count):
        out.append(random_connected_graph(seed * 31 + 7, n_max=n_max))
    return out


def test_adjacency_masks_agree():
    py, cy = _both_backends()
    for g in _graphs(30):
        assert py.adjacency_masks(g.adjacency) == cy.adjacency_masks(g.adjacency)


def test_mask_connected_agrees():
    py, cy = _both_backends()
    for g in _graphs(20):
        adj = py.adjacency_masks(g.adjacency)
        for mask in range(1, min(1 << g.n, 4096)):
            assert py.mask_connected(mask, adj) == cy.mask_connected(mask, adj)


def test_min_ratio_cuts_agree():
    py, cy = _both_backends()
    for g in _graphs(25):
        adj = py.adjacency_masks(g.adjacency)
        for cap in (1, g.n // 2):
            assert py.min_ratio_node_cut(g.n, adj, cap) == cy.min_ratio_node_cut(
                g.n, adj, cap
            )
            assert py.min_ratio_edge_cut(g.n, adj, cap) == cy.min_ratio_edge_cut(
                g.n, adj, cap
            )


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
            assert getattr(_kernels_py, name)(n, adj, max_size) == want
            assert getattr(kernels, name)(n, adj, max_size) == want


@pytest.mark.parametrize("name", ["min_ratio_node_cut", "min_ratio_edge_cut"])
def test_ratio_sweeps_refuse_masks_past_63_bits(name):
    adj = [0] * 64
    with pytest.raises(LimitError):
        getattr(_kernels_py, name)(64, adj, 1)
    with pytest.raises(LimitError):
        getattr(kernels, name)(64, adj, 1)


def test_compact_set_engine_refuses_tables_past_24_nodes():
    adj = [0] * 25
    with pytest.raises(LimitError):
        _kernels_py.compact_masks(25, adj)
    with pytest.raises(LimitError):
        kernels.compact_masks(25, adj)
    with pytest.raises(LimitError):
        next(kernels.compact_set_bounds([()] * 25, np.zeros(0, dtype=np.uint32)))


def test_set_enumerations_agree():
    py, cy = _both_backends()
    for g in _graphs(15, n_max=10):
        adj = py.adjacency_masks(g.adjacency)
        assert list(py.compact_masks(g.n, adj)) == list(cy.compact_masks(g.n, adj))
        for cap in (5, 10**6):
            a = py.connected_masks(g.n, adj, cap)
            b = cy.connected_masks(g.n, adj, cap)
            assert (a is None) == (b is None)
            if a is not None:
                assert list(a) == list(b)


def test_steiner_agrees_and_matches_oracle():
    py, cy = _both_backends()
    for g in _graphs(15, n_max=10):
        adj = py.adjacency_masks(g.adjacency)
        terms = tuple(sorted({0, g.n // 2, g.n - 1}))
        a = py.steiner_min_tree(g.n, adj, terms)
        b = cy.steiner_min_tree(g.n, adj, terms)
        assert a == b
        assert a[0] == steiner_node_count_nx(g, terms)
        # the certificate really is a tree on a[0] nodes covering the terminals
        touched = {v for e in a[1] for v in e} or set(terms)
        assert set(terms) <= touched or len(terms) == 1
        assert len(touched) == a[0] or (a[0] == 1 and not a[1])
        assert len(a[1]) == max(a[0] - 1, 0)


def test_steiner_without_terminals_is_an_input_error():
    adj = _kernels_py.adjacency_masks(((1,), (0, 2), (1,)))
    with pytest.raises(InputError):
        _kernels_py.steiner_min_tree(3, adj, ())


def test_connected_masks_cap_returns_none():
    py, cy = _both_backends()
    g = mesh([3, 3])
    adj = py.adjacency_masks(g.adjacency)
    assert py.connected_masks(g.n, adj, 4) is None
    assert cy.connected_masks(g.n, adj, 4) is None


def test_wide_graphs_route_to_python_backend():
    # compiled kernels hold masks in 64-bit words; the dispatcher must
    # hand wider instances to the fallback instead of overflowing
    wide = Graph.from_edges(70, [(i, i + 1) for i in range(69)])
    adj = kernels.adjacency_masks(wide.adjacency)
    assert kernels.mask_connected((1 << 70) - 1, adj, n=70)
    assert not kernels.mask_connected(0b101, adj, n=70)
    count, edges, _method = kernels.steiner_min_tree(70, adj, (0, 69))
    assert count == 70 and len(edges) == 69


def test_pure_python_env_switch():
    code = (
        "from xpand import kernels\n"
        "from xpand.expansion import node_expansion_exact\n"
        "from xpand.generators import mesh\n"
        "assert kernels.BACKEND == 'python', kernels.BACKEND\n"
        "r = node_expansion_exact(mesh([3, 3]))\n"
        "print(r.value, r.witness)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=subprocess_env(XPAND_PURE_PYTHON="1"),
    )
    assert out.returncode == 0, out.stderr
    from xpand.expansion import node_expansion_exact

    r = node_expansion_exact(mesh([3, 3]))
    assert out.stdout.strip() == f"{r.value} {r.witness}"
