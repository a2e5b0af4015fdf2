"""Fault sampling, fault application, and attack constructions."""

import statistics

import pytest

from xpand.errors import InputError
from xpand.kernels import EXACT_MAX_N
from xpand.faults import (
    KIND_EDGE,
    KIND_NODE,
    FaultPattern,
    apply_faults,
    attack_chain_centers,
    edge_survival_pattern,
    make_rng,
    rand_below,
    random_node_faults,
    shuffle_in_place,
)
from xpand.generators import complete, cycle, mesh, path, subdivide_edges
from xpand.graph import Graph, connected_components
from xpand.pruning import attack_greedy_cuts


def test_boundary_probabilities_are_deterministic():
    g = cycle(8)
    assert random_node_faults(g, 0.0, 1).failed_nodes == ()
    assert random_node_faults(g, 1.0, 1).failed_nodes == tuple(range(8))
    assert edge_survival_pattern(g, 0.0, 1).kept_edges == ()
    assert edge_survival_pattern(g, 1.0, 1).kept_edges == tuple(sorted(g.edges()))


def test_node_fault_count_in_binomial_band():
    # 1e4 nodes at p=0.3: mean 3000, sd ~46, allow 6 sigma
    g = Graph.from_edges(10000, [(i, i + 1) for i in range(9999)])
    count = len(random_node_faults(g, 0.3, seed=7).failed_nodes)
    assert abs(count - 3000) < 280


def test_edge_survival_mean_tracks_p():
    c100 = cycle(100)
    kept = [len(edge_survival_pattern(c100, 0.5, s).kept_edges) for s in range(30)]
    assert abs(statistics.mean(kept) - 50) < 15


def test_same_seed_same_pattern():
    g = cycle(8)
    a = random_node_faults(g, 0.4, 5)
    b = random_node_faults(g, 0.4, 5)
    assert a == b
    assert a.failed_nodes == tuple(sorted(a.failed_nodes))
    assert a.provenance == {"model": "random-node", "p": 0.4, "seed": 5}
    assert random_node_faults(g, 0.4, 6) != a


def test_probability_validation():
    g = cycle(8)
    with pytest.raises(InputError):
        random_node_faults(g, -0.1, 0)
    with pytest.raises(InputError):
        edge_survival_pattern(g, 1.5, 0)


def test_apply_node_faults():
    g = cycle(8)
    pat = FaultPattern(kind=KIND_NODE, failed_nodes=(0, 4), provenance={"by": "hand"})
    gf, nodes = apply_faults(g, pat)
    # g itself, with the nodes outside the failed set
    assert gf is g
    assert nodes == (1, 2, 3, 5, 6, 7)
    assert connected_components(gf, nodes) == [(1, 2, 3), (5, 6, 7)]
    # a failed id outside g is an input error, not a dropped fault
    with pytest.raises(InputError):
        apply_faults(g, FaultPattern(kind=KIND_NODE, failed_nodes=(8,)))


def test_apply_edge_survival_keeps_node_set():
    g = cycle(8)
    pat = edge_survival_pattern(g, 0.5, seed=3)
    ge, nodes = apply_faults(g, pat)
    assert ge.n == 8 and nodes == tuple(range(8))
    assert sorted(ge.edges()) == sorted(tuple(e) for e in pat.kept_edges)


def test_fault_count_by_kind():
    g = mesh([3, 3])  # 12 edges
    assert random_node_faults(g, 0.0, 1).fault_count(g) == 0
    assert random_node_faults(g, 1.0, 1).fault_count(g) == 9
    assert FaultPattern(kind=KIND_NODE, failed_nodes=(2, 5)).fault_count(g) == 2
    # edge survival counts the edges of g it does not keep
    assert edge_survival_pattern(g, 1.0, 1).fault_count(g) == 0
    assert edge_survival_pattern(g, 0.0, 1).fault_count(g) == 12
    assert FaultPattern(kind=KIND_EDGE, kept_edges=((0, 1),)).fault_count(g) == 11


def test_apply_rejects_foreign_edges():
    g = cycle(4)
    bad = FaultPattern(kind=KIND_EDGE, kept_edges=((0, 2),), provenance={})
    with pytest.raises(InputError):
        apply_faults(g, bad)


def test_reversed_kept_edge_is_rejected_with_the_edge_order():
    g = cycle(4)
    # (1, 0) is the edge (0, 1) written backwards
    reversed_pair = FaultPattern(kind=KIND_EDGE, kept_edges=((1, 0),), provenance={})
    with pytest.raises(InputError, match=r"kept edge \[1, 0\] .*\[u, v\] with u < v"):
        apply_faults(g, reversed_pair)
    ok = FaultPattern(kind=KIND_EDGE, kept_edges=((0, 1),), provenance={})
    assert list(apply_faults(g, ok)[0].edges()) == [(0, 1)]


def test_chain_center_attack():
    s = subdivide_edges(complete(4), 2)
    pat = attack_chain_centers(s)
    # one inner node per chain, the one nearer the smaller endpoint
    assert pat.failed_nodes == (4, 6, 8, 10, 12, 14)
    assert pat.kind == KIND_NODE
    assert len(pat.failed_nodes) == len(s.chains)
    with pytest.raises(InputError):
        attack_chain_centers(subdivide_edges(complete(4), 3))  # odd k


def test_greedy_cut_attack_on_path():
    pat = attack_greedy_cuts(path(9), 1)
    assert pat.failed_nodes == (4,)  # midpoint separates the halves
    assert attack_greedy_cuts(path(9), 0).failed_nodes == ()
    with pytest.raises(InputError):
        attack_greedy_cuts(path(9), -1)


def test_greedy_attack_spends_full_budget():
    g = cycle(12)
    pat = attack_greedy_cuts(g, 3)
    assert len(pat.failed_nodes) == 3
    # cutting a cycle three times leaves at most 3 pieces
    assert len(connected_components(*apply_faults(g, pat))) <= 3


@pytest.mark.parametrize(
    "g, budget, failed",
    [
        (path(40), 3, (10, 20, 30)),
        (cycle(30), 4, (7, 15, 22, 29)),
        (mesh((5, 6)), 5, (5, 10, 15, 20, 25)),
    ],
)
def test_greedy_attack_past_the_exact_cap(g, budget, failed):
    # the first component exceeds EXACT_MAX_N, so its cut is
    # the seeded heuristic's
    assert g.n > EXACT_MAX_N
    assert attack_greedy_cuts(g, budget).failed_nodes == failed


def test_pattern_json_round_trip():
    s = subdivide_edges(complete(4), 2)
    pat = attack_chain_centers(s)
    text = pat.to_json()
    assert text.endswith("\n")
    assert FaultPattern.from_json(text) == pat
    epat = edge_survival_pattern(cycle(6), 0.5, 9)
    assert FaultPattern.from_json(epat.to_json()) == epat


def test_pattern_json_rejects_garbage():
    with pytest.raises(InputError):
        FaultPattern.from_json("{}")
    with pytest.raises(InputError):
        FaultPattern.from_json("not json")


@pytest.mark.parametrize(
    "provenance",
    [
        pytest.param('[["a", 1]]', id="pairs"),
        pytest.param('"ab"', id="string"),
        pytest.param("3", id="number"),
        pytest.param("null", id="null"),
        pytest.param("true", id="bool"),
    ],
)
def test_pattern_json_rejects_non_object_provenance(provenance):
    text = '{"kind": "node-faults", "failed": [1], "provenance": %s}' % provenance
    with pytest.raises(InputError, match="provenance must be a JSON object"):
        FaultPattern.from_json(text)
    # a missing provenance still reads as an empty one
    assert FaultPattern.from_json('{"kind": "node-faults", "failed": [1]}').provenance == {}


def test_rng_helpers():
    rng = make_rng(42)
    vals = [rand_below(rng, 10) for _ in range(100)]
    assert all(0 <= v < 10 for v in vals)
    rng2 = make_rng(42)
    assert [rand_below(rng2, 10) for _ in range(100)] == vals


@pytest.mark.parametrize("seed", range(20))
def test_shuffle_matches_one_draw_per_swap(seed):
    # the per-draw Fisher-Yates the batched shuffle replaces
    def reference(items, rng):
        for i in range(len(items) - 1, 0, -1):
            j = rand_below(rng, i + 1)
            items[i], items[j] = items[j], items[i]

    for length in range(60):
        got, want = list(range(length)), list(range(length))
        rng_got, rng_want = make_rng(seed), make_rng(seed)
        shuffle_in_place(got, rng_got)
        reference(want, rng_want)
        assert got == want
        # the stream is left where the per-draw loop leaves it
        assert rng_got.random() == rng_want.random()
