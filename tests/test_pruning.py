"""Pruning procedures, compactification, and the shatter construction."""

from fractions import Fraction

import pytest

from xpand.errors import InputError, LimitError
from xpand.expansion import edge_expansion_exact, node_expansion_exact
from xpand.faults import KIND_NODE, FaultPattern, apply_faults, random_node_faults
from xpand.generators import complete, cycle, mesh, path
from xpand.graph import Graph
from xpand.pruning import (
    compactify,
    expansion_lower_bound,
    hypothesis_ok,
    prune,
    prune2,
    shatter_uniform,
    size_lower_bound,
    union_boundary_check,
)

from oracles import relabel

F = Fraction


def two_k5_bridge() -> Graph:
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(i + 5, j + 5) for i in range(5) for j in range(i + 1, 5)]
    edges.append((4, 5))
    return Graph.from_edges(10, edges)


def test_compactify_connected_set_is_fixed_point():
    assert compactify(cycle(8), [1, 2, 3]) == (1, 2, 3)


def test_compactify_swaps_to_a_component_side():
    # {3} splits path7; the larger piece is outside, so the set grows
    # into the smaller side of the split without raising its edge ratio
    assert compactify(path(7), [3]) == (0, 1, 2)
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert compactify(star, [0]) == (1,)


def test_compactify_never_worsens_edge_ratio():
    from xpand.graph import make_cut

    for g, s in [
        (path(7), [3]),
        (cycle(8), [0, 1]),
        (mesh([3, 3]), [1, 4]),
        (mesh([4, 4]), [5, 6, 10]),
    ]:
        out = compactify(g, s)
        assert make_cut(g, out).edge_ratio <= make_cut(g, s).edge_ratio
        assert 2 * len(out) < g.n


def test_compactify_input_validation():
    with pytest.raises(InputError):
        compactify(cycle(8), [])
    with pytest.raises(InputError):
        compactify(cycle(8), [0, 1, 2, 3])  # 2|s| = n
    gd = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(InputError):
        compactify(gd, [0])  # host must be connected
    with pytest.raises(InputError, match="^compactify needs a connected set$"):
        compactify(cycle(8), [0, 4])


def test_prune_no_faults_no_steps():
    t = prune(complete(8), F(1), F(1, 2))
    assert t.steps == ()
    assert t.final_nodes == tuple(range(8))
    assert t.certified and t.mode == "node"


def test_prune_keeps_whole_path_when_threshold_is_low():
    t = prune(cycle(8), F(1, 2), F(1, 2), nodes=range(1, 8))
    # min ratio of any half-or-smaller set of path7 is 1/3 > 1/4
    assert t.steps == ()
    assert t.final_nodes == (1, 2, 3, 4, 5, 6, 7)


def test_prune_culls_endpoint_arc_at_higher_eps():
    t = prune(cycle(8), F(1, 2), F(3, 4), nodes=range(1, 8))
    assert [s.nodes for s in t.steps] == [(1, 2, 3)]
    assert t.steps[0].ratio == F(1, 3)
    assert t.final_nodes == (4, 5, 6, 7)
    # loop exit: survivor expansion strictly above alpha*eps
    h = relabel(cycle(8), t.final_nodes)[0]
    assert node_expansion_exact(h).value > F(3, 8)


def test_prune2_no_faults_no_steps():
    t = prune2(mesh([4, 4]), F(1, 2), F(1, 8))
    assert t.steps == ()
    assert len(t.final_nodes) == 16


def test_prune2_culls_disconnected_clique():
    g = two_k5_bridge()
    alpha_e = edge_expansion_exact(g).value
    assert alpha_e == F(1, 5)  # one bridge over a balanced split
    gf, nodes = apply_faults(
        g, FaultPattern(kind=KIND_NODE, failed_nodes=(4,), provenance={})
    )
    t = prune2(gf, alpha_e, F(1, 2), nodes=nodes)
    assert [s.nodes for s in t.steps] == [(0, 1, 2, 3)]
    assert t.steps[0].ratio == 0
    assert t.final_nodes == (5, 6, 7, 8, 9)
    assert t.certified


def test_trace_payload_and_invariants():
    g = two_k5_bridge()
    gf, nodes = apply_faults(
        g, FaultPattern(kind=KIND_NODE, failed_nodes=(4,), provenance={})
    )
    t = prune2(gf, F(1, 5), F(1, 2), nodes=nodes)
    payload = t.to_payload()
    assert payload["mode"] == "edge"
    assert payload["certified"] is True
    assert payload["h_size"] == 5
    assert payload["removed_total"] == 4
    # culls are disjoint from each other and from the survivor
    seen = set(t.final_nodes)
    for s in t.steps:
        assert not (set(s.nodes) & seen)
        seen |= set(s.nodes)
    assert seen == set(nodes)


def test_union_boundary_telescopes():
    g = two_k5_bridge()
    gf, nodes = apply_faults(
        g, FaultPattern(kind=KIND_NODE, failed_nodes=(4,), provenance={})
    )
    t = prune2(gf, F(1, 5), F(1, 2), nodes=nodes)
    rows = union_boundary_check(gf, t)
    assert len(rows) == len(t.steps)
    assert all(row["ok"] for row in rows)
    # a zero-step trace has nothing to telescope
    assert union_boundary_check(complete(6), prune(complete(6), F(1), F(1, 2))) == []


def test_prune_multi_step_cascade():
    # failing two opposite nodes of C12 leaves two paths; with a high
    # eps both endpoint arcs of each path go, one cull at a time
    g = cycle(12)
    nodes = [v for v in range(12) if v not in (0, 6)]
    t = prune(g, F(1, 3), F(3, 4), nodes=nodes)
    assert len(t.steps) >= 1
    for s in t.steps:
        assert s.ratio <= F(1, 3) * F(3, 4)
    rows = union_boundary_check(g, t)
    assert all(row["ok"] for row in rows)


def test_prune_parameter_validation():
    with pytest.raises(InputError):
        prune(cycle(8), F(0), F(1, 2))
    with pytest.raises(InputError):
        prune(cycle(8), F(1, 2), F(0))
    with pytest.raises(InputError):
        prune(cycle(8), F(1, 2), F(1))
    with pytest.raises(InputError):
        prune(cycle(8), F(1, 2), F(1, 2), method="bogus")
    with pytest.raises(LimitError):
        prune(complete(30), F(1), F(1, 2))
    for nodes in ([8], [1, 1]):
        with pytest.raises(InputError):
            prune(cycle(8), F(1, 2), F(1, 2), nodes=nodes)


def test_heuristic_method_lifts_size_limit():
    g = Graph.from_edges(30, [(i, i + 1) for i in range(28)])  # path + isolated
    t = prune(g, F(1, 2), F(1, 2), method="heuristic")
    assert not t.certified
    assert len(t.steps) >= 1
    for s in t.steps:
        assert s.ratio <= F(1, 4)
    assert t.final_nodes == prune(g, F(1, 2), F(1, 2), method="heuristic").final_nodes


def test_heuristic_method_on_faulted_mesh():
    m = mesh([6, 6])
    gf, nodes = apply_faults(m, random_node_faults(m, 0.15, seed=4))
    t = prune(gf, F(1, 2), F(1, 2), method="heuristic", nodes=nodes)
    assert not t.certified
    assert set(t.final_nodes) <= set(nodes)


@pytest.mark.parametrize("run", [prune, prune2], ids=["node", "edge"])
def test_heuristic_prune_stops_below_two_nodes(run):
    for n in (0, 1):
        t = run(Graph.from_edges(n, []), F(1), F(1, 2), method="heuristic")
        assert t.steps == () and t.final_nodes == tuple(range(n))
    # one isolated node is culled, and the other is left unswept
    t = run(Graph.from_edges(2, []), F(1), F(1, 2), method="heuristic")
    assert [s.nodes for s in t.steps] == [(0,)]
    assert t.final_nodes == (1,)
    assert not t.certified and t.h_expansion is None


@pytest.mark.parametrize(
    "run, measure",
    [(prune, node_expansion_exact), (prune2, edge_expansion_exact)],
    ids=["node", "edge"],
)
def test_exact_trace_keeps_the_survivors_expansion(run, measure):
    for g, nodes, alpha, eps in (
        (two_k5_bridge(), None, F(1, 2), F(1, 2)),
        (path(7), None, F(1, 2), F(3, 4)),
        (mesh([4, 4]), [v for v in range(16) if v != 5], F(1, 2), F(1, 2)),
    ):
        t = run(g, alpha, eps, nodes=nodes)
        h = relabel(g, t.final_nodes)[0]
        assert t.h_size >= 2 and t.h_expansion == measure(h).value
        assert "h_expansion" not in t.to_payload()
        assert run(g, alpha, eps, method="heuristic", nodes=nodes).h_expansion is None
    # an exact survivor below two nodes is not swept and grades 0: on
    # 0 and 1 nodes, and on path(3), whose last sweep found ratio 1
    cases = (
        (Graph.from_edges(0, []), F(1)),
        (Graph.from_edges(1, []), F(1)),
        (path(3), F(2)),
    )
    for g, alpha in cases:
        t = run(g, alpha, F(1, 2))
        assert t.h_size < 2 and t.h_expansion == 0
        assert run(g, alpha, F(1, 2), method="heuristic").h_expansion is None
    assert [s.nodes for s in run(path(3), F(2), F(1, 2)).steps] == [(0,), (1,)]


def test_theorem_bounds_helpers():
    assert size_lower_bound(16, F(1, 2), 2, 1) == 12
    assert expansion_lower_bound(F(1, 2), 2) == F(1, 4)
    assert expansion_lower_bound(F(1, 2), 4) == F(3, 8)
    assert hypothesis_ok(16, F(1, 2), 2, 1)
    assert not hypothesis_ok(16, F(1, 2), 2, 2)


def test_prune_result_meets_theorem_bounds_small():
    # random faulted meshes under the hypothesis: certified H must meet
    # both conclusions of the size/expansion guarantee
    m = mesh([4, 4])
    alpha = node_expansion_exact(m).value
    k = 2
    for seed in range(6):
        pat = random_node_faults(m, 0.05, seed=seed)
        f = len(pat.failed_nodes)
        if not hypothesis_ok(m.n, alpha, k, f):
            continue
        gf, nodes = apply_faults(m, pat)
        t = prune(gf, alpha, F(1, k), nodes=nodes)
        assert len(t.final_nodes) >= size_lower_bound(m.n, alpha, k, f)


def test_shatter_k4():
    r = shatter_uniform(complete(4), F(1, 2))
    assert [(s.picked, s.removed) for s in r.steps] == [((0, 1), (2, 3))]
    assert r.failed == (2, 3)
    assert r.components == ((0, 1),)


def test_shatter_path8():
    r = shatter_uniform(path(8), F(1, 4))
    assert r.failed == (2, 4, 6)
    assert all(len(c) <= 2 for c in r.components)


def test_shatter_mesh44():
    r = shatter_uniform(mesh([4, 4]), F(1, 4))
    assert r.failed == (2, 6, 8, 9, 10, 11)
    assert r.components == ((0, 1, 4, 5), (12, 13, 14, 15), (3, 7))
    assert all(len(c) <= 4 for c in r.components)
    # the construction witnesses gamma collapse with few faults
    assert len(r.failed) < mesh([4, 4]).n / 2


def test_shatter_validation():
    with pytest.raises(InputError):
        shatter_uniform(cycle(8), F(0))
    with pytest.raises(InputError):
        shatter_uniform(cycle(8), F(1, 100))  # eps*n < 1
    with pytest.raises(InputError, match="^shatter needs a nonempty graph$"):
        shatter_uniform(Graph.from_edges(0, []), F(1, 2))
    with pytest.raises(LimitError):
        shatter_uniform(mesh([6, 6]), F(1, 4))
