"""Core graph container, boundaries, cuts, and the text format."""

from fractions import Fraction

import pytest

from xpand.errors import InputError, LimitError, LoadError
from xpand.generators import complete, cycle, mesh, path
from xpand.graph import (
    EDGE_LIMIT,
    NODE_LIMIT,
    Graph,
    check_size,
    connected_components,
    dumps,
    edge_boundary,
    is_compact,
    is_connected,
    is_connected_subset,
    loads,
    make_cut,
    node_boundary,
)

from oracles import random_connected_graph, relabel


def test_node_boundary_small_cases():
    assert node_boundary(cycle(4), [0]) == (1, 3)
    assert node_boundary(complete(5), [0, 1]) == (2, 3, 4)
    assert node_boundary(cycle(8), range(8)) == ()


def test_edge_boundary_sorted_pairs():
    assert edge_boundary(cycle(6), [0, 1, 2]) == ((0, 5), (2, 3))
    assert edge_boundary(complete(4), [0]) == ((0, 1), (0, 2), (0, 3))


def test_boundaries_match_naive_double_loop():
    for seed in range(20):
        g = random_connected_graph(seed)
        s = set(range(0, g.n, 2))
        nb_naive = sorted(
            v
            for v in range(g.n)
            if v not in s and any(u in s for u in g.adjacency[v])
        )
        eb_naive = sorted(
            (min(u, v), max(u, v))
            for u, v in g.edges()
            if (u in s) != (v in s)
        )
        assert list(node_boundary(g, s)) == nb_naive
        assert list(edge_boundary(g, s)) == eb_naive
        # every boundary node absorbs between 1 and deg many cut edges
        assert len(nb_naive) <= len(eb_naive) <= len(nb_naive) * max(
            (g.degree(v) for v in range(g.n)), default=0
        )


def test_make_cut_ratios():
    cut = make_cut(cycle(8), [0, 1, 2, 3])
    assert cut.set == (0, 1, 2, 3)
    assert cut.node_boundary == (4, 7)
    assert cut.edge_boundary_size == 2
    assert cut.node_ratio == cut.edge_ratio
    assert cut.node_ratio.numerator == 1 and cut.node_ratio.denominator == 2


def test_connected_components_ordering():
    # size descending, ties by smallest member
    g = Graph.from_edges(7, [(0, 1), (2, 3), (4, 5)])
    assert connected_components(g) == [(0, 1), (2, 3), (4, 5), (6,)]

    # on a node subset, in the graph's own ids
    assert connected_components(cycle(8), [1, 2, 3, 5, 6, 7]) == [(1, 2, 3), (5, 6, 7)]


def test_connectivity_predicates():
    c8 = cycle(8)
    assert is_connected(c8)
    assert not is_connected(relabel(c8, [1, 2, 3, 5, 6, 7])[0])
    assert is_connected_subset(c8, [1, 2, 3])
    assert not is_connected_subset(c8, [1, 3])


def test_is_compact():
    c8 = cycle(8)
    assert is_compact(c8, [1, 2, 3])  # arc and its complement both connected
    assert not is_compact(c8, [0, 2])
    assert not is_compact(mesh([4, 4]), [0, 3, 12, 15])
    # symmetric in complementation by definition
    assert is_compact(c8, [0, 1, 2]) == is_compact(c8, [3, 4, 5, 6, 7])
    with pytest.raises(InputError):
        is_compact(c8, [])
    with pytest.raises(InputError):
        is_compact(c8, range(8))


def test_remove_nothing_is_identity():
    # the subgraph induced by every node measures as g itself
    g = mesh([3, 3])
    everything = set(range(g.n))
    for s in ([0], [0, 1, 3], [4]):
        assert node_boundary(g, s, everything) == node_boundary(g, s)
        assert edge_boundary(g, s, everything) == edge_boundary(g, s)
        assert make_cut(g, s, everything) == make_cut(g, s)
    # a graph holds its adjacency alone, with no id map
    assert Graph.__slots__ == ("_adj", "_m", "_max_degree")


def _k5_without(missing):
    """K5 with `missing` dropped from node 2's row (0, 1, 3, 4) only."""
    adj = [[u for u in range(5) if u != v] for v in range(5)]
    adj[2].remove(missing)
    return adj


@pytest.mark.parametrize(
    "adj, pair",
    [
        (_k5_without(0), "2 and 0"),
        (_k5_without(3), "2 and 3"),
        (_k5_without(4), "2 and 4"),
        ([[1], []], "1 and 0"),
    ],
    ids=["first", "middle", "last", "empty-row"],
)
def test_a_missing_back_edge_is_refused_wherever_it_falls_in_its_row(adj, pair):
    with pytest.raises(InputError, match=f"^asymmetric adjacency between {pair}$"):
        Graph(adj)


def test_boundaries_and_cuts_on_a_node_subset():
    # the subgraph of cycle(8) induced by 0..5 is the path 0-1-2-3-4-5
    c8, nodes = cycle(8), set(range(6))
    assert node_boundary(c8, [0, 1], nodes) == (2,)
    assert edge_boundary(c8, [0, 1], nodes) == ((1, 2),)
    cut = make_cut(c8, [0, 1], nodes)
    assert (cut.node_ratio, cut.edge_ratio) == (Fraction(1, 2), Fraction(1, 2))
    # the edge ratio divides by the smaller side within nodes
    assert make_cut(c8, [0, 1, 2, 3, 4], nodes).edge_ratio == 1
    for s in ([], range(6), [5, 6]):
        with pytest.raises(InputError):
            make_cut(c8, s, nodes)


def test_text_format_round_trip():
    for g in (cycle(3), complete(5), mesh([3, 4]), path(2)):
        again = loads(dumps(g))
        assert again.n == g.n
        assert sorted(again.edges()) == sorted(g.edges())
    assert dumps(cycle(3)) == "3 3\n0 1\n0 2\n1 2\n"


def test_loads_rejects_malformed_input():
    for text in (
        "",
        "2 1\n0 0\n",  # self loop
        "2 1\n0 2\n",  # endpoint out of range
        "3 2\n0 1\n",  # fewer edge lines than promised
        "x y\n",
        "3 2\n0 1\n0 1\n",  # duplicate edge
    ):
        with pytest.raises(LoadError):
            loads(text)


def test_size_limits_admit_their_bound():
    check_size(NODE_LIMIT, EDGE_LIMIT)
    with pytest.raises(LimitError):
        check_size(NODE_LIMIT + 1, 0)
    with pytest.raises(LimitError):
        check_size(0, EDGE_LIMIT + 1)


def test_graph_accessors():
    g = mesh([4, 4])
    assert (g.n, g.m) == (16, 24)
    assert g.degree(0) == 2 and g.degree(5) == 4
    assert g.max_degree == 4
    assert g.has_edge(0, 1) and not g.has_edge(0, 5)
    assert g.neighbors(0) == (1, 4)
    assert sum(1 for _ in g.edges()) == 24


def test_cut_ratio_consistency_random():
    for seed in range(12):
        g = random_connected_graph(seed + 100)
        for size in (1, g.n // 3, g.n // 2):
            if size < 1:
                continue
            s = tuple(range(size))
            cut = make_cut(g, s)
            assert cut.node_ratio * len(s) == len(cut.node_boundary)
            assert cut.edge_ratio * len(s) == cut.edge_boundary_size
