"""Exact and heuristic expansion, the exact sweep on a node subset, chain DP."""

import warnings
from fractions import Fraction

import pytest

from xpand import expansion, kernels
from xpand.errors import InputError, LimitError
from xpand.expansion import (
    edge_expansion_exact,
    edge_expansion_heuristic,
    node_expansion_exact,
    node_expansion_heuristic,
    subdivided_node_expansion,
)
from xpand.generators import (
    complete,
    cycle,
    hypercube,
    mesh,
    path,
    random_regular,
    subdivide_edges,
)
from xpand.graph import Graph, make_cut

import oracles
from oracles import edge_expansion_nx, node_expansion_nx, random_connected_graph

F = Fraction


NODE_CASES = [
    (complete(6), F(1), (0, 1, 2)),
    (cycle(8), F(1, 2), (0, 1, 2, 3)),
    (mesh([4, 4]), F(1, 2), (0, 1, 2, 3, 4, 5, 6, 7)),
    (cycle(12), F(1, 3), (0, 1, 2, 3, 4, 5)),
    (hypercube(3), F(3, 4), (0, 1, 2, 4)),
    (path(7), F(1, 3), (0, 1, 2)),
]


def test_node_expansion_frozen_values():
    for g, alpha, witness_set in NODE_CASES:
        r = node_expansion_exact(g)
        assert r.value == alpha
        assert r.witness.set == witness_set
        assert r.witness.node_ratio == alpha
        assert r.mode == "node" and r.method == "exact"


def test_node_expansion_q4():
    r = node_expansion_exact(hypercube(4))
    assert r.value == F(3, 4)
    assert len(r.witness.set) == 8  # a half-cube pair of adjacent faces


def test_edge_expansion_frozen_values():
    cases = [
        (mesh([4, 4]), F(1, 2)),
        (complete(4), F(2)),
        (path(7), F(1, 3)),
        (cycle(8), F(1, 2)),
    ]
    for g, alpha_e in cases:
        r = edge_expansion_exact(g)
        assert r.value == alpha_e
        assert r.witness.edge_ratio == alpha_e
        assert r.mode == "edge"


def test_expansion_matches_independent_sweep():
    for seed in range(10):
        g = random_connected_graph(seed * 13 + 1, n_max=10)
        assert node_expansion_exact(g).value == node_expansion_nx(g)
        assert edge_expansion_exact(g).value == edge_expansion_nx(g)


def test_disconnected_graph_has_zero_expansion():
    g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
    with pytest.warns(UserWarning):
        r = node_expansion_exact(g)
    assert r.value == 0


def test_witness_is_canonical_minimizer():
    # among minimizers: smallest set size, then lexicographically first
    r = node_expansion_exact(cycle(8))
    assert r.witness.set == (0, 1, 2, 3)
    r2 = edge_expansion_exact(cycle(8))
    assert r2.witness.set == (0, 1, 2, 3)


def test_min_ratio_cut_on_a_node_subset():
    # the subgraph of cycle(8) induced by 1..7 is a path: its endpoint
    # arc, in cycle(8)'s ids, has node ratio 1/3
    got = expansion._min_ratio_cut(cycle(8), range(1, 8), "node")
    assert got == (F(1, 3), (1, 2, 3))
    # a node isolated within the subset is a free cut in both modes
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 5)])
    for mode in ("node", "edge"):
        assert expansion._min_ratio_cut(g, {5, 3, 2, 1}, mode) == (0, (5,))
    # the cap is checked on the size alone, before the nodes are read
    with pytest.raises(LimitError, match="limited to n <= 24, got n=1000000000"):
        expansion._min_ratio_cut(g, range(10**9), "node")


@pytest.mark.parametrize(
    "dims, keep",
    [
        ((4, 4), range(1, 16)),  # id 0 missing
        ((4, 4), range(15)),  # the top id missing
        ((4, 4), range(0, 16, 2)),  # every other id
        ((4, 4), (1, 2, 3, 6, 9, 10, 13)),  # gaps below, between and above
        ((5, 6), (0, 1, 2, 5, 6, 7, 8, 11, 12, 13, 24, 25, 29)),  # past 24 nodes
    ],
    ids=["no-0", "no-top", "alternate", "gaps", "30-nodes"],
)
@pytest.mark.parametrize("mode", ["node", "edge"])
def test_min_ratio_cut_renumbers_like_a_relabelled_copy(dims, keep, mode):
    g = mesh(list(dims))
    sub, ids = oracles.relabel(g, keep)
    sweep = getattr(kernels, f"min_ratio_{mode}_cut")
    bnd, size, mask = sweep(sub.n, kernels.adjacency_masks(sub.adjacency))
    want = (Fraction(bnd, size), oracles.mapped(ids, kernels.mask_nodes(mask)))
    assert expansion._min_ratio_cut(g, list(keep), mode) == want
    # again from g's masks kept since the first call, in another order
    assert expansion._min_ratio_cut(g, set(keep), mode) == want


def test_heuristic_bounds_exact():
    assert node_expansion_heuristic(complete(30), trials=8, seed=0).value == 1
    assert node_expansion_heuristic(mesh([10, 10]), trials=16, seed=1).value <= F(1, 5)
    for g in (mesh([4, 4]), cycle(12), hypercube(3)):
        exact = node_expansion_exact(g).value
        heur = node_expansion_heuristic(g, trials=12, seed=3)
        assert exact <= heur.value
        assert heur.method == "heuristic"
        # claimed value must be realized by the witness
        assert make_cut(g, heur.witness.set).node_ratio == heur.value


def test_edge_heuristic_bounds_exact():
    for g in (mesh([4, 4]), cycle(12)):
        assert edge_expansion_exact(g).value <= edge_expansion_heuristic(
            g, trials=12, seed=3
        ).value


def test_heuristic_is_seed_deterministic():
    a = node_expansion_heuristic(mesh([5, 5]), trials=10, seed=7)
    b = node_expansion_heuristic(mesh([5, 5]), trials=10, seed=7)
    assert (a.value, a.witness) == (b.value, b.witness)


@pytest.mark.parametrize("trials", [0, -3])
def test_heuristic_needs_a_trial(trials):
    for fn in (node_expansion_heuristic, edge_expansion_heuristic):
        with pytest.raises(InputError):
            fn(mesh([4, 4]), trials=trials)


def test_exact_size_limit():
    with pytest.raises(LimitError):
        node_expansion_exact(complete(30))
    with pytest.raises(LimitError):
        edge_expansion_exact(complete(30))


def test_chain_dp_matches_sweep():
    s = subdivide_edges(complete(4), 2)
    dp = subdivided_node_expansion(s)
    sweep = node_expansion_exact(s.graph)
    assert dp.value == sweep.value == F(3, 8)
    assert dp.method == "chain-dp"
    # witnesses may differ between the two searches, both must attain the value
    assert make_cut(s.graph, dp.witness.set).node_ratio == dp.value


def test_chain_dp_beyond_sweep_limit():
    s = subdivide_edges(random_regular(8, 3, seed=0), 4)
    assert s.graph.n == 56
    r = subdivided_node_expansion(s)
    assert r.value == F(1, 7)  # half of one chain plus its light endpoint
    assert make_cut(s.graph, r.witness.set).node_ratio == r.value


def test_chain_dp_caps():
    with pytest.raises(LimitError):
        subdivided_node_expansion(subdivide_edges(path(11), 1))  # base n = 11
    with pytest.raises(LimitError):
        subdivided_node_expansion(subdivide_edges(path(2), 17))  # k = 17


def test_chain_dp_on_cycle_subdivision():
    # subdividing a cycle gives a longer cycle, expansion known in closed form
    s = subdivide_edges(cycle(4), 2)
    assert subdivided_node_expansion(s).value == node_expansion_exact(cycle(12)).value


def test_values_step_runs_once_per_chain(monkeypatch):
    calls = []
    step = expansion._values_step

    def counted(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(expansion, "_values_step", counted)
    for base in (complete(5), cycle(6), Graph.from_edges(8, [(0, 4), (0, 7), (2, 5)])):
        h = subdivide_edges(base, 3)
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the sparse base is disconnected
            subdivided_node_expansion(h)
        # tables exist for the winning base set only; the class sweep builds none
        assert len(calls) == len(h.chains)


def test_chain_config_tables_are_shared_and_read_only():
    for k in range(1, 9):
        for a in (0, 1):
            for b in (0, 1):
                table = expansion._chain_config_tables(k, a, b)
                assert expansion._chain_config_tables(k, a, b) is table
                want = oracles._chain_config_tables(k, a, b)
                assert list(table) == list(want)
                assert {key: (list(c), list(p)) for key, (c, p) in table.items()} == want
    table = expansion._chain_config_tables(3, 0, 1)
    with pytest.raises(TypeError):
        table[(0, 0)] = ((), ())
    with pytest.raises(TypeError):
        table[(0, 0)][0][0] = 0
