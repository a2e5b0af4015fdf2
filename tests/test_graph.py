"""Core graph container, boundaries, cuts, and the text format."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from xpand.errors import InputError, LimitError, LoadError
from xpand.generators import complete, cycle, mesh, path
from xpand.graph import (
    EDGE_LIMIT,
    NODE_LIMIT,
    Graph,
    canon_nodes,
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

from xpand.span import steiner_tree_min

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


# the entry points, each with the error it raises on malformed input
_ENTRY_POINTS = {
    "Graph": (Graph, InputError),
    "from_edges": (lambda edges: Graph.from_edges(3, edges), InputError),
    "canon_nodes": (lambda ids: canon_nodes(path(5), ids), InputError),
    "degree": (lambda v: path(5).degree(v), InputError),
    "loads": (loads, LoadError),
}
_NA = object()  # a case an entry point cannot be given
# per case, one malformed argument for each entry point, in that order
_MALFORMED = {
    "float": ([[1.9], [0]], [(0, 1.9)], [1.5], 1.0, "2 1\n0 1.0\n"),
    "string": ([["1"], [0]], [("2", 1)], "12", "1", "2 1\n0 x\n"),
    "none": ([[None], [0]], [(None, 1)], [None], None, "2 1\n0 None\n"),
    "repeat": ([[1, 1], [0]], [(0, 1), (1, 0)], [1, 1], _NA, "3 2\n0 1\n0 1\n"),
    "self-loop": ([[0]], [(1, 1)], _NA, _NA, "2 1\n1 1\n"),
    "out-of-range": ([[2], [0]], [(0, 3)], [5], 5, "2 1\n0 2\n"),
    "negative": ([[-1], [0]], [(0, -1)], [-1], -1, "2 1\n-1 1\n"),
    "not-a-pair": (_NA, [(0, 1, 2)], _NA, _NA, "3 1\n0 1 2\n"),
}


@pytest.mark.parametrize(
    "entry, arg",
    [
        pytest.param(entry, arg, id=f"{case}-{entry}")
        for case, args in _MALFORMED.items()
        for entry, arg in zip(_ENTRY_POINTS, args)
        if arg is not _NA
    ],
)
def test_the_one_validator_refuses_malformed_ids_and_rows(entry, arg):
    # a typed refusal, never a TypeError or a graph with the bad part dropped
    call, error = _ENTRY_POINTS[entry]
    with pytest.raises(error):
        call(arg)


def test_numpy_ids_are_stored_as_python_ints():
    # a 70-node path: its masks pass 63 bits, where numpy ints overflow
    rows = [np.array([u for u in (v - 1, v + 1) if 0 <= u < 70]) for v in range(70)]
    edges = np.array([(v, v + 1) for v in range(69)])
    for g in (Graph(rows), Graph.from_edges(np.int64(70), edges)):
        assert g.adjacency == path(70).adjacency
        assert {type(u) for row in g.adjacency for u in row} == {int}
        assert steiner_tree_min(g, [np.int64(0), np.int64(69)])[0] == 70
    assert canon_nodes(path(5), np.array([3, 1])) == (1, 3)
    assert type(canon_nodes(path(5), np.array([3]))[0]) is int


def test_loads_builds_no_set_of_all_edges():
    # complete(300) has 44,850 edges; a set of them all costs about 3 MiB
    text = dumps(complete(300))
    tracemalloc.start()
    try:
        loads(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.5 * 2**20


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
