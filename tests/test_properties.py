"""Property tests over random graphs: the shared component walk against
networkx, the shared prune-and-grade path against a from-scratch
reference, and the warning-free survivor measurement."""

import warnings
from fractions import Fraction

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import to_nx
from xpand.expansion import edge_expansion_exact, node_expansion_exact
from xpand.experiments import (
    _prune_and_grade,
    adversary_exhaustive,
    percolation_point,
)
from xpand.generators import mesh
from xpand.graph import Graph, connected_components, remove_nodes
from xpand.pruning import prune, prune2


@st.composite
def graphs(draw, min_n=0, max_n=12, connected=False):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(draw(st.sets(st.sampled_from(pairs))) if pairs else ())
    if connected:
        # a random spanning tree: each node hangs off an earlier one
        for v in range(1, n):
            edges.add((draw(st.integers(0, v - 1)), v))
    return Graph.from_edges(n, sorted(edges))


@given(data=st.data(), g=graphs())
@settings(max_examples=150, deadline=None)
def test_connected_components_match_networkx(data, g):
    nodes = data.draw(st.sets(st.integers(0, g.n - 1)) if g.n else st.just(set()))
    for subset in (None, nodes):
        sub = to_nx(g) if subset is None else to_nx(g).subgraph(subset)
        want = sorted(
            (tuple(sorted(c)) for c in nx.connected_components(sub)),
            key=lambda c: (-len(c), c[0]),
        )
        assert connected_components(g, subset) == want


@given(data=st.data(), g=graphs(min_n=2, connected=True))
@settings(max_examples=40, deadline=None)
def test_prune_and_grade_matches_reference_node(data, g):
    faults = sorted(data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n // 3)))
    eps = 1 - Fraction(1, data.draw(st.integers(2, 4)))
    alpha = node_expansion_exact(g).value
    g_f = remove_nodes(g, faults)
    trace, expansion = _prune_and_grade(g_f, "node", alpha, eps, 24)
    ref = prune(remove_nodes(g, faults), alpha, eps)
    if ref.h_size >= 2:
        h = remove_nodes(g, sorted(set(range(g.n)) - set(ref.final_nodes)))
        ref_expansion = node_expansion_exact(h).value
    else:
        ref_expansion = Fraction(0)
    assert trace.to_payload() == ref.to_payload()
    assert expansion == ref_expansion


@given(data=st.data(), g=graphs(min_n=2, connected=True))
@settings(max_examples=40, deadline=None)
def test_prune_and_grade_matches_reference_edge(data, g):
    edges = list(g.edges())
    kept = data.draw(st.sets(st.sampled_from(edges))) if edges else set()
    g_f = Graph.from_edges(g.n, sorted(kept))
    eps = 1 - Fraction(1, data.draw(st.integers(2, 4)))
    alpha = edge_expansion_exact(g).value
    trace, expansion = _prune_and_grade(g_f, "edge", alpha, eps, 24)
    ref = prune2(g_f, alpha, eps)
    if ref.h_size >= 2:
        h = remove_nodes(g_f, sorted(set(range(g.n)) - set(ref.final_nodes)))
        ref_expansion = edge_expansion_exact(h).value
    else:
        ref_expansion = Fraction(0)
    assert trace.to_payload() == ref.to_payload()
    assert expansion == ref_expansion


def test_survivor_measurement_raises_no_warning():
    g = mesh([4, 4])
    alpha = node_expansion_exact(g).value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        adversary_exhaustive(g, 2, 1)
        rows = percolation_point(
            g, "node", Fraction(1, 3), 6, 5, 0, prune_params=(alpha, 2), threads=2
        )
    # some faulty graphs fell apart, and pruning left a survivor to measure
    assert any(r.gamma < 1 and r.h_frac > 0 for r in rows)
