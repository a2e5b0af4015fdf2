"""The bitmask kernels against brute-force references: adjacency
masks, connectivity and the connected-set census against the graph
module, Steiner trees against a networkx oracle, and the vectorized
ratio sweeps against the per-mask reference loops. Also the module's
rule that no kernel calls a public kernel."""

import inspect
import random
import sys
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from xpand import kernels
from xpand.errors import InputError, LimitError
from xpand.generators import complete, cycle, hypercube, mesh, path, random_regular
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
def tie_heavy_adjacency(draw, n_max=15):
    """(n, adjacency masks) for 1 <= n <= n_max: complete, edgeless,
    disjoint cliques over shuffled ids, or random. Past 12 nodes a sweep
    spans more than one chunk of low halves."""
    n = draw(st.integers(1, n_max))
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
    for name in ("min_ratio_node_cut", "min_ratio_edge_cut"):
        assert getattr(kernels, name)(n, adj) == getattr(oracles, name)(n, adj, n // 2)


# one high half per block, then two: a sweep of n >= 14 nodes (c = 12
# low bits) spans 4 or more blocks, and n = 13 spans its two
@pytest.mark.parametrize("cap", [1 << 12, 1 << 13])
@given(graph=tie_heavy_adjacency())
@settings(max_examples=60, deadline=None)
def test_ratio_sweeps_match_reference_loops_across_blocks(graph, cap):
    n, adj = graph
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_SWEEP_BLOCK", cap)
        for name in ("min_ratio_node_cut", "min_ratio_edge_cut"):
            assert getattr(kernels, name)(n, adj) == getattr(oracles, name)(n, adj, n // 2)


def _k8_and_k9():
    # K8 on the even ids below 16, K9 on the rest: each spans both halves
    evens, rest = range(0, 16, 2), [*range(1, 16, 2), 16]
    edges = [e for part in (evens, rest) for e in combinations(part, 2)]
    return Graph.from_edges(17, edges)


@pytest.mark.parametrize(
    "make",
    [lambda: complete(17), lambda: Graph.from_edges(17, []), _k8_and_k9],
    ids=["K17", "edgeless", "K8+K9"],
)
@pytest.mark.parametrize("name", ["min_ratio_node_cut", "min_ratio_edge_cut"])
def test_ratio_sweeps_break_ties_across_blocks(make, name):
    # every block holds sets that tie the canonical winner's (ratio,
    # size), or, on K8 + K9, the one ratio-0 set spans the blocks
    g = make()
    adj = kernels.adjacency_masks(g.adjacency)
    want = getattr(oracles, name)(g.n, adj, g.n // 2)
    assert getattr(kernels, name)(g.n, adj) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_SWEEP_BLOCK", 1 << 12)  # 32 blocks
        assert getattr(kernels, name)(g.n, adj) == want


@pytest.mark.parametrize("name", ["min_ratio_node_cut", "min_ratio_edge_cut"])
def test_ratio_sweep_peak_memory(name):
    # at the engine cap a sweep holds one block (256 KiB of node ORs or
    # edge rows) and its tables; the caches of width 12 are filled first
    g = mesh([4, 6])
    adj = kernels.adjacency_masks(g.adjacency)
    sweep = getattr(kernels, name)
    sweep(g.n, adj)
    tracemalloc.start()
    try:
        sweep(g.n, adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("name", ["min_ratio_node_cut", "min_ratio_edge_cut"])
def test_ratio_sweeps_refuse_past_the_exact_cap(name):
    # one past EXACT_MAX_N is refused before any subset is walked
    n = kernels.EXACT_MAX_N + 1
    with pytest.raises(LimitError, match=f"limited to n <= 24, got n={n}$"):
        getattr(kernels, name)(n, [0] * n)


def test_scan_order_is_built_once_per_width():
    c, order, starts = kernels._low_halves(14)
    assert (c, len(order), len(starts)) == (12, 1 << 12, 14)
    again = kernels._low_halves(20)  # the same low width
    assert again[1] is order and again[2] is starts
    assert isinstance(starts, tuple)
    with pytest.raises(ValueError):
        order[0] = 1
    assert kernels._low_halves(5)[1] is kernels._low_halves(5)[1]


@given(graph=tie_heavy_adjacency(n_max=14))
@settings(max_examples=150, deadline=None)
def test_connectivity_table_matches_flood_reference(graph):
    n, adj = graph
    assert np.array_equal(kernels.connectivity_table(n, adj), oracles.connectivity_table(n, adj))


@pytest.mark.parametrize(
    "make",
    [lambda: mesh([3, 6]), lambda: hypercube(4), lambda: random_regular(18, 4, 0), lambda: path(20)],
    ids=["mesh3x6", "Q4", "rr18-4", "P20"],
)
def test_connectivity_table_matches_flood_reference_on_named_graphs(make):
    g = make()
    adj = kernels.adjacency_masks(g.adjacency)
    assert np.array_equal(kernels.connectivity_table(g.n, adj), oracles.connectivity_table(g.n, adj))


@pytest.mark.parametrize(
    "dims, limit_mib",
    # the bool table plus the uint32 bottom half of L is 48 MiB at n = 24;
    # at n = 18 the 0.75 MiB of tables plus the chunk temporaries
    [((4, 6), 56), ((3, 6), 1.5)],
)
def test_connectivity_table_peak_memory(dims, limit_mib):
    g = mesh(list(dims))
    adj = kernels.adjacency_masks(g.adjacency)
    tracemalloc.start()
    try:
        kernels.connectivity_table(g.n, adj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


def test_compact_set_engine_refuses_tables_past_24_nodes():
    adj = [0] * 25
    with pytest.raises(LimitError):
        kernels.connectivity_table(25, adj)
    with pytest.raises(LimitError):
        next(kernels.boundary_blocks(adj, np.zeros(0, dtype=np.uint32)))
    with pytest.raises(LimitError):
        kernels.greedy_connector(adj)


@given(graph=tie_heavy_adjacency(n_max=12))
@settings(max_examples=100, deadline=None)
def test_connected_counts_match_a_definition_level_count(graph):
    n, adj = graph
    g = Graph.from_edges(n, [(u, v) for u in range(n) for v in kernels.mask_nodes(adj[u]) if u < v])
    want = [0] + [
        sum(is_connected_subset(g, nodes) for nodes in combinations(range(n), r))
        for r in range(1, n + 1)
    ]
    assert kernels.connected_counts(kernels.connectivity_table(n, adj)) == want


@pytest.mark.parametrize(
    "make, count",
    [
        (lambda: complete(23), lambda r: comb(23, r)),
        (lambda: path(24), lambda r: 25 - r),
        (lambda: cycle(24), lambda r: 24 if r < 24 else 1),
    ],
    ids=["K23", "P24", "C24"],
)
def test_connected_counts_closed_forms_over_many_blocks(make, count):
    # tables of 2^23 and 2^24 masks span hundreds of blocks
    g = make()
    conn = kernels.connectivity_table(g.n, kernels.adjacency_masks(g.adjacency))
    assert kernels.connected_counts(conn) == [0] + [count(r) for r in range(1, g.n + 1)]


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
    # the lookup returns the exact Steiner node count, and None for
    # terminals split across components of a disconnected graph
    split = Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
    rng = random.Random(5)
    checked = split_checked = 0
    for g in _graphs(15, n_max=12) + [split]:
        adj = kernels.adjacency_masks(g.adjacency)
        size = kernels.connector_lookup(kernels.connectivity_table(g.n, adj))
        for _ in range(12):
            terms = tuple(sorted(rng.sample(range(g.n), rng.randint(1, min(5, g.n)))))
            res = kernels.steiner_min_tree(g.n, adj, terms)
            got = size(sum(1 << v for v in terms))
            if res is None:
                assert got is None
                split_checked += 1
            else:
                assert got == res[0]
            checked += 1
    assert checked > 200 and split_checked > 0
    with pytest.raises(InputError):
        size(0)


def test_connector_lookup_matches_steiner_on_every_terminal_set():
    # small random graphs, a third of them edgeless or split in parts:
    # every nonempty terminal mask gets the Steiner node count, or None
    rng = random.Random(11)
    split = 0
    for _ in range(30):
        n = rng.randint(1, 9)
        p = rng.choice([0.15, 0.3, 0.5, 0.8])
        g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
        adj = kernels.adjacency_masks(g.adjacency)
        size = kernels.connector_lookup(kernels.connectivity_table(n, adj))
        for terms in range(1, 1 << n):
            res = kernels.steiner_min_tree(n, adj, kernels.mask_nodes(terms))
            assert size(terms) == (None if res is None else res[0])
            split += res is None
    assert split > 0


@st.composite
def connected_mask_cases(draw):
    """(adjacency masks, a connected mask): the flood from the lowest
    node of a random mask within it."""
    n, adj = draw(tie_heavy_adjacency())
    allowed = draw(st.integers(1, (1 << n) - 1))
    return adj, kernels._flood(allowed & -allowed, allowed, adj)


@given(case=connected_mask_cases())
@settings(max_examples=150, deadline=None)
def test_kruskal_lex_matches_union_find_reference(case):
    adj, w = case
    assert kernels._kruskal_lex(w, adj) == oracles.kruskal_lex(w, adj)


def test_steiner_without_terminals_is_an_input_error():
    adj = kernels.adjacency_masks(((1,), (0, 2), (1,)))
    with pytest.raises(InputError):
        kernels.steiner_min_tree(3, adj, ())


def _dp_branch(n: int, t: int) -> bool:
    """Whether steiner_min_tree hands t of n terminals to the subset DP."""
    return t >= 2 and not (n - t <= 22 and (1 << (n - t)) <= 4 * 3**t)


def test_steiner_dp_terminal_cap_is_a_limit_error():
    # 17 terminals spread along a 60-node path leave 43 free nodes, too
    # many for the superset sweep, so the subset DP is chosen and its
    # work budget refuses 3^17 * 60 units
    g = Graph.from_edges(60, [(i, i + 1) for i in range(59)])
    adj = kernels.adjacency_masks(g.adjacency)
    terms = tuple(range(2, 60, 3))[:17]
    assert len(terms) == 17 and _dp_branch(g.n, len(terms))
    with pytest.raises(LimitError, match="got 3\\^17 \\* 60$"):
        kernels.steiner_min_tree(g.n, adj, terms)
    budget = kernels._STEINER_DP_MAX_WORK
    # the exact engine's graphs never reach the budget: the largest DP
    # there is 3^8 * 24 units
    exact = (3**t * n for n in range(2, 25) for t in range(n + 1) if _dp_branch(n, t))
    assert max(exact) == 3**8 * 24 <= budget
    # on every graph adjacency_masks admits, a DP within the budget has
    # under 14 terminals and at most 2^21 table entries (2^9 * 3409)
    most = 0
    for n in range(2, kernels.MASKS_MAX_N + 1):
        t = 2
        while t <= n and 3**t * n <= budget:
            if _dp_branch(n, t):
                assert t < 14, (n, t)
                most = max(most, (1 << t) * n)
            t += 1
    assert most == (1 << 9) * 3409 <= 1 << 21


def test_steiner_dp_past_its_budget_is_refused_before_it_runs(monkeypatch):
    def no_dp(*args):
        raise AssertionError("the subset DP ran")

    monkeypatch.setattr(kernels, "_steiner_dw", no_dp)
    g = mesh([20, 20])
    adj = kernels.adjacency_masks(g.adjacency)
    # 3^11 * 400 units, which the DP would take about 6 s to run
    with pytest.raises(LimitError, match="got 3\\^11 \\* 400$"):
        kernels.steiner_min_tree(g.n, adj, range(0, 400, 37))


def test_steiner_dp_table_cap_is_a_limit_error(monkeypatch):
    # the README's timings, mesh 10x10 at 12 terminals and mesh 20x20 at
    # 10, stay under the budget
    assert 3**12 * 100 <= kernels._STEINER_DP_MAX_WORK
    assert 3**10 * 400 <= kernels._STEINER_DP_MAX_WORK
    # 4 terminals at both ends of a 30-node path take the subset DP
    g = path(30)
    adj = kernels.adjacency_masks(g.adjacency)
    terms = (0, 1, 28, 29)
    monkeypatch.setattr(kernels, "_STEINER_DP_MAX_WORK", 81 * 30)
    assert kernels.steiner_min_tree(g.n, adj, terms)[::2] == (30, "dw")
    monkeypatch.setattr(kernels, "_STEINER_DP_MAX_WORK", 81 * 30 - 1)
    with pytest.raises(LimitError, match="limited to 2429, got 3\\^4 \\* 30$"):
        kernels.steiner_min_tree(g.n, adj, terms)


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
    bnd = next(kernels.boundary_blocks(sadj, masks))

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
        ("exact_limit", lambda: kernels.exact_limit(g.n)),
        ("mask_nodes", lambda: kernels.mask_nodes(0b1011)),
        ("min_ratio_node_cut", lambda: kernels.min_ratio_node_cut(g.n, adj)),
        ("min_ratio_edge_cut", lambda: kernels.min_ratio_edge_cut(g.n, adj)),
        ("connectivity_table", lambda: kernels.connectivity_table(small.n, sadj)),
        ("compact_masks", lambda: kernels.compact_masks(conn)),
        ("connector_lookup", lambda: kernels.connector_lookup(conn)(0b101000101)),
        ("boundary_blocks", lambda: list(kernels.boundary_blocks(sadj, masks))),
        ("greedy_connector", lambda: kernels.greedy_connector(sadj)(bnd)),
        ("connected_counts", lambda: kernels.connected_counts(conn)),
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
