"""Property tests over random graphs: the shared component walk against
networkx, the shared prune-and-grade path against a from-scratch
reference, the prune and greedy cut loops against their first
Graph-rebuilding versions, prune, prune2, gamma and the heuristic
finders on a faulty graph (g, nodes) against the same on its relabelled
copy, the heuristic prune and greedy cut paths building no Graph, the
adversary's traces against the reference prune of each faulty graph,
percolation points and resilience trials against their two first-written
trial loops, the chain DP against its first dict-of-states version, its
class sweep against the per-base-set table sweep it replaced, its
values-only step and its walk against the pointer step, the compact-set
sampler against its first version, the text format's round trip and
token checks, the fault-pattern format's round trip and its malformed
payloads, manifest replay from foreign directories, and the warning-free
survivor measurement."""

import contextlib
import io
import json
import os
import tempfile
import warnings
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import to_nx
from xpand import expansion, kernels
from xpand.cli import main
from xpand.errors import InputError, LoadError
from xpand.expansion import (
    edge_expansion_exact,
    edge_expansion_heuristic,
    node_expansion_exact,
    node_expansion_heuristic,
    subdivided_node_expansion,
)
from xpand.experiments import (
    adversary_exhaustive,
    gamma,
    run_percolation_sweep,
    run_resilience_trial,
)
from xpand.faults import KIND_EDGE, KIND_NODE, FaultPattern, apply_faults, make_rng
from xpand.generators import complete, cycle, mesh, subdivide_edges
from xpand.graph import (
    Graph,
    connected_components,
    dumps,
    is_connected,
    loads,
)
from xpand.pruning import (
    attack_greedy_cuts,
    hypothesis_ok,
    prune,
    prune2,
    shatter_uniform,
    union_boundary_check,
)
from xpand.span import sample_compact_set


@st.composite
def graphs(draw, min_n=0, max_n=12, connected=False, max_edges=None):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(draw(st.sets(st.sampled_from(pairs), max_size=max_edges)) if pairs else ())
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
    nodes = [v for v in range(g.n) if v not in faults]
    trace = prune(g, alpha, eps, nodes=nodes)
    ref = oracles.prune_loop(g, alpha, eps, "node", nodes=nodes)
    if ref.h_size >= 2:
        ref_expansion = node_expansion_exact(oracles.relabel(g, ref.final_nodes)[0]).value
    else:
        ref_expansion = Fraction(0)
    assert trace.to_payload() == ref.to_payload()
    assert trace.h_expansion == ref_expansion


@given(data=st.data(), g=graphs(min_n=2, connected=True))
@settings(max_examples=40, deadline=None)
def test_prune_and_grade_matches_reference_edge(data, g):
    edges = list(g.edges())
    kept = data.draw(st.sets(st.sampled_from(edges))) if edges else set()
    g_f = Graph.from_edges(g.n, sorted(kept))
    eps = 1 - Fraction(1, data.draw(st.integers(2, 4)))
    alpha = edge_expansion_exact(g).value
    trace = prune2(g_f, alpha, eps)
    ref = oracles.prune_loop(g_f, alpha, eps, "edge")
    if ref.h_size >= 2:
        ref_expansion = edge_expansion_exact(oracles.relabel(g_f, ref.final_nodes)[0]).value
    else:
        ref_expansion = Fraction(0)
    assert trace.to_payload() == ref.to_payload()
    assert trace.h_expansion == ref_expansion


@st.composite
def faulty_graphs(draw, max_n=12):
    """A random faulty graph (g, nodes): nodes is None for all of g, or
    the nodes outside a random fault set of up to 2n/3 nodes."""
    g = draw(graphs(max_n=max_n))
    if not g.n or draw(st.booleans()):
        return g, None
    failed = draw(st.sets(st.integers(0, g.n - 1), max_size=2 * g.n // 3))
    return g, tuple(v for v in range(g.n) if v not in failed)


@st.composite
def patterns_on(draw, g):
    """A node pattern whose survivors are a random set, so none and one
    come up often, or an edge pattern keeping a random set of edges."""
    if draw(st.booleans()):
        alive = draw(st.sets(st.integers(0, g.n - 1))) if g.n else set()
        failed = tuple(v for v in range(g.n) if v not in alive)
        return FaultPattern(kind=KIND_NODE, failed_nodes=failed)
    edges = list(g.edges())
    kept = draw(st.sets(st.sampled_from(edges))) if edges else set()
    return FaultPattern(kind=KIND_EDGE, kept_edges=tuple(sorted(kept)))


_RATIOS = st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=4)
_EPS = st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])


def _grade(ref):
    """The reference trace's h_expansion as prune reports it: the frozen
    loop leaves an exact survivor below two nodes ungraded (None), and
    prune grades it 0."""
    if ref.certified and ref.h_size < 2:
        return Fraction(0)
    return ref.h_expansion


@given(
    faulty=faulty_graphs(),
    alpha=_RATIOS,
    eps=_EPS,
    mode=st.sampled_from(["node", "edge"]),
    method=st.sampled_from(["exact", "heuristic"]),
)
@settings(max_examples=150, deadline=None)
def test_prune_loop_matches_graph_rebuilding_reference(faulty, alpha, eps, mode, method):
    g, nodes = faulty
    run = prune if mode == "node" else prune2
    trace = run(g, alpha, eps, method=method, nodes=nodes)
    ref = oracles.prune_loop(g, alpha, eps, mode, method, nodes)
    assert trace.to_payload() == ref.to_payload()
    assert trace.h_expansion == _grade(ref)
    assert union_boundary_check(g, trace) == oracles.union_boundary_check(g, ref, nodes)


@given(
    data=st.data(),
    g=graphs(),
    alpha=_RATIOS,
    eps=_EPS,
    mode=st.sampled_from(["node", "edge"]),
    method=st.sampled_from(["exact", "heuristic"]),
)
@settings(max_examples=100, deadline=None)
def test_faulty_graph_matches_its_relabelled_copy(data, g, alpha, eps, mode, method):
    g_f, nodes = apply_faults(g, data.draw(patterns_on(g)))
    copy, ids = oracles.relabel(g_f, nodes)
    run = prune if mode == "node" else prune2
    trace = run(g_f, alpha, eps, method=method, nodes=nodes)
    ref = oracles.prune_loop(copy, alpha, eps, mode, method)
    assert trace.to_payload() == oracles.mapped_trace(ref, ids).to_payload()
    assert trace.h_expansion == _grade(ref)
    assert union_boundary_check(g_f, trace) == oracles.union_boundary_check(copy, ref)
    assert gamma(g_f, nodes) == oracles.gamma_nx(copy)


@given(
    faulty=faulty_graphs(max_n=20),
    mode=st.sampled_from(["node", "edge"]),
    trials=st.integers(1, 24),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None)
def test_heuristic_on_a_faulty_graph_matches_its_relabelled_copy(faulty, mode, trials, seed):
    g, nodes = faulty
    copy, ids = oracles.relabel(g, range(g.n) if nodes is None else nodes)
    fn = node_expansion_heuristic if mode == "node" else edge_expansion_heuristic
    if copy.n < 2:
        with pytest.raises(InputError, match="at least 2 nodes"):
            fn(g, trials=trials, seed=seed, nodes=nodes)
        return
    got = fn(g, trials=trials, seed=seed, nodes=nodes)
    want = fn(copy, trials=trials, seed=seed)
    assert got.value == want.value
    assert got.witness.set == oracles.mapped(ids, want.witness.set)
    assert got.witness.node_boundary == oracles.mapped(ids, want.witness.node_boundary)
    assert got.witness.edge_boundary_size == want.witness.edge_boundary_size
    assert (got.witness.node_ratio, got.witness.edge_ratio) == (
        want.witness.node_ratio,
        want.witness.edge_ratio,
    )


@given(data=st.data(), g=graphs())
@settings(max_examples=80, deadline=None)
def test_shatter_and_attack_match_graph_rebuilding_reference(data, g):
    eps = data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]))
    if eps * g.n >= 1:
        assert shatter_uniform(g, eps) == oracles.shatter_uniform(g, eps)
    budget = data.draw(st.integers(0, 4))
    assert attack_greedy_cuts(g, budget) == oracles.attack_greedy_cuts(g, budget)


@pytest.mark.parametrize(
    "g",
    [
        oracles.relabel(cycle(32), set(range(32)).difference([1, 30]))[0],
        oracles.relabel(mesh([5, 6]), set(range(30)).difference([1, 6, 17]))[0],
        oracles.relabel(mesh([6, 6]), set(range(36)).difference([1, 6, 14]))[0],
    ],
    ids=["cycle32", "mesh5x6", "mesh6x6"],
)
def test_greedy_attack_past_the_exact_cap_matches_reference(g):
    # each graph's largest component has more than 24 nodes, so the
    # first cuts come from the heuristic on a component graph, and it
    # misses node 0, so that graph's ids are not g's
    comp = connected_components(g)[0]
    assert len(comp) > kernels.EXACT_MAX_N and comp[0] > 0
    assert attack_greedy_cuts(g, 3) == oracles.attack_greedy_cuts(g, 3)


# a graph on which one fault leaves a cull next to it, so the prefix
# check of the adversary's trace must leave the fault out
_CULL_BY_FAULT_CASE = Graph.from_edges(
    9,
    [(0, 1), (0, 4), (0, 8), (1, 2), (1, 4), (1, 5), (1, 6), (1, 8), (2, 3), (2, 4)]
    + [(2, 5), (2, 6), (2, 8), (4, 6), (4, 7), (4, 8), (5, 6), (5, 7), (7, 8)],
)


@given(g=graphs(min_n=2, max_n=10, connected=True))
@example(g=_CULL_BY_FAULT_CASE)
@settings(max_examples=30, deadline=None)
def test_adversary_traces_match_prune_of_the_faulty_graph(g):
    alpha = node_expansion_exact(g).value
    f = max(f for f in range(3) if hypothesis_ok(g.n, alpha, 2, f))
    report, traces = adversary_exhaustive(g, 2, f, keep_traces=True)
    assert report.iterations == len(traces)
    for faults, trace in traces:
        nodes = [v for v in range(g.n) if v not in faults]
        ref = oracles.prune_loop(g, alpha, Fraction(1, 2), "node", nodes=nodes)
        assert trace.to_payload() == ref.to_payload()
        assert trace.h_expansion == _grade(ref)
        assert union_boundary_check(g, trace) == oracles.union_boundary_check(g, ref, nodes)


@pytest.fixture
def graph_builds(monkeypatch):
    """A list that gains one entry per Graph built from here on."""
    built = []
    init = Graph.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted)
    return built


_MESH44 = mesh([4, 4])


def test_adversary_builds_no_graph(graph_builds):
    report = adversary_exhaustive(_MESH44, 2, 1)
    assert report.iterations == 16
    assert graph_builds == []


# mesh 5x6 and its faulty form both have a component past the exact cap,
# so each run below goes through the heuristic finder on (g, nodes)
_MESH56 = mesh([5, 6])
_MESH56_NODES = tuple(v for v in range(30) if v not in (1, 6, 17))


@pytest.mark.parametrize(
    "run",
    [
        lambda: prune(_MESH56, 1, Fraction(1, 2), method="heuristic", nodes=_MESH56_NODES),
        lambda: prune2(_MESH56, 1, Fraction(1, 2), method="heuristic", nodes=_MESH56_NODES),
        lambda: attack_greedy_cuts(_MESH56, 3),
    ],
    ids=["prune", "prune2", "attack"],
)
def test_heuristic_prune_and_greedy_attack_build_no_graph(graph_builds, run):
    run()
    assert graph_builds == []


_TRIAL_PS = st.sampled_from([Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(1)])


@given(
    data=st.data(),
    g=graphs(min_n=2, max_n=10, connected=True),
    model=st.sampled_from(["node", "edge"]),
    p=_TRIAL_PS,
    pruned=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_percolation_point_matches_reference(data, g, model, p, pruned):
    prune_k, prune_params = None, None
    if pruned:
        model = "node"  # pruning is defined for the node model only
        prune_k = data.draw(st.integers(2, 4))
        # the reference takes alpha, the library measures it
        prune_params = (node_expansion_exact(g).value, prune_k)
    trials, seed_base, index = (data.draw(st.integers(*r)) for r in ((1, 3), (0, 99), (0, 2)))
    want = oracles.percolation_point(
        g, model, p, trials, seed_base, index, prune_params=prune_params
    )
    # point index of a sweep draws from seed base + index * 10**6
    rows, _ = run_percolation_sweep(
        g, model, [p], trials, seed_base + index * 10**6, prune_k=prune_k
    )
    assert rows == want


@given(
    data=st.data(),
    g=graphs(min_n=2, max_n=10, connected=True),
    model=st.sampled_from(["node", "edge"]),
    p=_TRIAL_PS,
    eps=st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)]),
)
@settings(max_examples=60, deadline=None)
def test_resilience_trial_matches_reference(data, g, model, p, eps):
    args = (g, model, p, data.draw(st.integers(0, 20)), data.draw(st.integers(0, 99)), eps)
    assert run_resilience_trial(*args) == oracles.run_resilience_trial(*args)


# Random draws rarely reach a base where the order of a chain's moves
# decides the witness, so two are given: on K4 with k = 1, replacing an
# entry on a tie or taking the pushed endpoints in the other order picks
# another witness of the same value; on this base, taking a chain's
# source rows in the other order does.
_SUBMASK_ORDER_CASE = Graph.from_edges(
    6,
    [(0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 5), (4, 5)],
)
# Sparse bases whose idle base nodes, ending no chain, share one table
# across the base sets that differ only in them.
_IDLE_NODES_CASE = Graph.from_edges(10, [(0, 1), (2, 3)])
_IDLE_NODES_CASE_2 = Graph.from_edges(8, [(0, 4), (0, 7), (2, 5)])


# at most 8 chains keeps the reference's dict-of-states loops affordable
@given(base=graphs(min_n=1, max_n=8, max_edges=8), k=st.integers(1, 5))
@example(base=complete(4), k=1)
@example(base=_SUBMASK_ORDER_CASE, k=1)
@example(base=_IDLE_NODES_CASE, k=4)
@example(base=_IDLE_NODES_CASE_2, k=5)
@settings(max_examples=150, deadline=None)
def test_chain_dp_matches_dict_of_states_reference(base, k):
    h = subdivide_edges(base, k)
    if h.graph.n < 2:
        for solver in (subdivided_node_expansion, oracles.subdivided_node_expansion):
            with pytest.raises(InputError):
                solver(h)
        return
    results = []
    for solver in (subdivided_node_expansion, oracles.subdivided_node_expansion):
        # a disconnected graph has expansion 0, which both solvers warn about
        if is_connected(h.graph):
            expect = contextlib.nullcontext()
        else:
            expect = pytest.warns(UserWarning, match="disconnected")
        with expect:
            results.append(solver(h))
    assert results[0] == results[1]


def _tables(k):
    return {(a, b): expansion._chain_config_tables(k, a, b) for a in (0, 1) for b in (0, 1)}


@given(base=graphs(min_n=0, max_n=8, max_edges=10), k=st.integers(1, 4))
@example(base=Graph.from_edges(1, []), k=1)  # n < 2: neither finds a set
@example(base=Graph.from_edges(5, []), k=3)  # edgeless: every base node is idle
@example(base=_IDLE_NODES_CASE, k=4)
@example(base=_IDLE_NODES_CASE_2, k=5)
@example(base=complete(6), k=2)
@settings(max_examples=150, deadline=None)
def test_class_sweep_matches_values_sweep(base, k):
    h = subdivide_edges(base, k)
    tables = _tables(k)
    ours = list(expansion._class_minima(h, tables))
    ref = list(oracles.values_minima(h, tables))
    assert dict(ours) == dict(ref)
    got = expansion._first_candidate(h, ours)
    assert got == expansion._first_candidate(h, ref)
    assert (got is None) == (h.graph.n < 2)


@given(data=st.data(), base=graphs(min_n=1, max_n=7, max_edges=9), k=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_values_step_matches_pointer_step(data, base, k):
    h = subdivide_edges(base, k)
    half = h.graph.n // 2
    bmask = data.draw(st.integers(0, (1 << base.n) - 1))
    if bmask.bit_count() > half:
        return
    tables = _tables(k)
    pushable = sorted({b for u, v, _inner in h.chains for b in (u, v)})
    index, dp = expansion._empty_table(pushable, bmask, half - bmask.bit_count() + 1)
    values = dp
    for u, v, _inner in h.chains:
        table = tables[((bmask >> u) & 1, (bmask >> v) & 1)]
        dp, _ptr, _moves = oracles._chain_step(dp, table, index.get(u), index.get(v))
        values = expansion._values_step(values, table, index.get(u), index.get(v))
        assert values.shape == dp.shape
        assert np.array_equal(values, dp)


@given(base=graphs(min_n=1, max_n=6, max_edges=6), k=st.integers(1, 3), bmask=st.integers(0, 63))
@example(base=complete(4), k=1, bmask=0)
@example(base=_SUBMASK_ORDER_CASE, k=1, bmask=0)
@settings(max_examples=100, deadline=None)
def test_first_move_is_the_pointer_steps_move(base, k, bmask):
    h = subdivide_edges(base, k)
    half = h.graph.n // 2
    bmask &= (1 << base.n) - 1
    if bmask.bit_count() > half:
        return
    tables = _tables(k)
    pushable = sorted({b for u, v, _inner in h.chains for b in (u, v)})
    width = half - bmask.bit_count() + 1
    index, dp = expansion._empty_table(pushable, bmask, width)
    for u, v, _inner in h.chains:
        table = tables[((bmask >> u) & 1, (bmask >> v) & 1)]
        iu, iv = index.get(u), index.get(v)
        prev = dp.reshape(-1, width)
        dp, ptr, moves = oracles._chain_step(dp, table, iu, iv)
        cur, ptr = dp.reshape(-1, width), ptr.reshape(-1, width)
        # every reached entry: the walk picks the move its pointer holds
        for row, s in zip(*np.nonzero(ptr >= 0)):
            move = expansion._first_move(prev, table, iu, iv, int(row), int(s), int(cur[row, s]))
            assert move == moves[ptr[row, s]]


@given(
    g=graphs(min_n=1, max_n=16, connected=True),
    seed=st.integers(0, 2**32),
    max_size=st.none() | st.integers(1, 8),
)
@settings(max_examples=100, deadline=None)
def test_sampler_matches_rebuilt_frontier_reference(g, seed, max_size):
    # one stream per sampler: equal sets also mean equal draws
    ours, ref = make_rng(seed), make_rng(seed)
    for _ in range(5):
        got = sample_compact_set(g, ours, max_size=max_size)
        assert got == oracles.sample_compact_set(g, ref, max_size=max_size)


# blanks and separators other than ASCII space, tab and the line ends
_FOREIGN_BLANKS = [c for c in map(chr, range(0x3001)) if c.isspace() and c not in " \t\n\r"]
# comment text stays on its line: any character but \n and \r, among them
# every separator str.splitlines() would also break at
_COMMENT = st.text(
    st.sampled_from(_FOREIGN_BLANKS)
    | st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
    max_size=8,
)


@given(data=st.data(), g=graphs())
@settings(max_examples=100, deadline=None)
def test_text_format_round_trips_with_crlf_comments_and_blanks(data, g):
    lines = []
    for line in dumps(g).splitlines():
        if data.draw(st.booleans()):
            lines.append("# " + data.draw(_COMMENT))
        if data.draw(st.booleans()):
            lines.append(data.draw(st.sampled_from(["", " ", "\t"])))
        if data.draw(st.booleans()):
            line += " # " + data.draw(_COMMENT)
        lines.append(line)
    text = "".join(line + data.draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    again = loads(text)
    assert (again.n, again.adjacency) == (g.n, g.adjacency)


def _spoil(token: str, how: str) -> str:
    if how == "sign":
        return "+" + token
    if how == "underscore":
        return token[0] + "_" + token[1:] if len(token) > 1 else "0_" + token
    # the same digits in Arabic-Indic script
    return "".join(chr(ord("\u0660") + int(d)) for d in token)


@given(data=st.data(), g=graphs(min_n=2), how=st.sampled_from(["sign", "underscore", "digit"]))
@settings(max_examples=100, deadline=None)
def test_loads_rejects_tokens_int_would_take(data, g, how):
    lines = dumps(g).splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    col = data.draw(st.integers(0, 1))
    tokens = lines[row].split()
    bad = _spoil(tokens[col], how)
    assert int(bad) == int(tokens[col])  # int() alone reads it as the same number
    tokens[col] = bad
    lines[row] = " ".join(tokens)
    with pytest.raises(LoadError):
        loads("\n".join(lines) + "\n")


@given(data=st.data(), g=graphs(min_n=2), blank=st.sampled_from(_FOREIGN_BLANKS))
@settings(max_examples=100, deadline=None)
def test_loads_rejects_foreign_blanks_between_tokens(data, g, blank):
    lines = dumps(g).splitlines()
    row = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[row].split()
    lines[row] = blank.join(tokens)
    assert lines[row].split() == tokens  # str.split() alone reads the same tokens
    with pytest.raises(LoadError):
        loads("\n".join(lines) + "\n")


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=4,
)


@st.composite
def fault_patterns(draw, kind=None):
    kind = kind or draw(st.sampled_from([KIND_NODE, KIND_EDGE]))
    provenance = draw(st.dictionaries(st.text(max_size=6), _JSON_VALUES, max_size=4))
    ids = st.integers(0, 2**40)
    if kind == KIND_NODE:
        failed = tuple(draw(st.lists(ids, max_size=8)))
        return FaultPattern(kind=kind, failed_nodes=failed, provenance=provenance)
    kept = tuple(draw(st.lists(st.tuples(ids, ids), max_size=8)))
    return FaultPattern(kind=kind, kept_edges=kept, provenance=provenance)


@given(pattern=fault_patterns())
@settings(max_examples=100, deadline=None)
def test_fault_pattern_json_round_trips(pattern):
    text = pattern.to_json()
    again = FaultPattern.from_json(text)
    assert again == pattern
    assert again.to_json() == text


_NOT_AN_OBJECT = st.sampled_from(
    [[], [["kind", "node-faults"]], "node-faults", 3, 2.5, True, None]
)
_NOT_AN_ID = st.sampled_from([True, False, 1.5, 2.0, "3", None, [1], {"a": 1}])


@st.composite
def spoiled_patterns(draw):
    """The JSON text of a fault pattern with one malformed part: the
    payload or its provenance not an object, an id that is not an
    integer, or a kept edge without exactly two ends."""
    how = draw(st.sampled_from(["payload", "provenance", "node id", "edge id", "arity"]))
    kind = KIND_NODE if how == "node id" else KIND_EDGE if how in ("edge id", "arity") else None
    payload = json.loads(draw(fault_patterns(kind)).to_json())
    if how == "payload":
        payload = draw(_NOT_AN_OBJECT)
    elif how == "provenance":
        payload["provenance"] = draw(_NOT_AN_OBJECT)
    elif how == "node id":
        failed = payload["failed"] or [0]
        failed[draw(st.integers(0, len(failed) - 1))] = draw(_NOT_AN_ID)
        payload["failed"] = failed
    else:
        edges = payload["kept_edges"] or [[0, 1]]
        i = draw(st.integers(0, len(edges) - 1))
        if how == "edge id":
            edges[i][draw(st.integers(0, 1))] = draw(_NOT_AN_ID)
        else:
            edges[i] = (edges[i] + [edges[i][1] + 1])[: draw(st.sampled_from([0, 1, 3]))]
        payload["kept_edges"] = edges
    return json.dumps(payload)


@given(text=spoiled_patterns())
@settings(max_examples=100, deadline=None)
def test_spoiled_fault_patterns_are_input_errors(text):
    with pytest.raises(InputError):
        FaultPattern.from_json(text)
    with tempfile.TemporaryDirectory() as tmp:
        graph, faults = os.path.join(tmp, "c.gr"), os.path.join(tmp, "f.json")
        with open(graph, "w", encoding="utf-8") as f:
            f.write(dumps(cycle(5)))
        with open(faults, "w", encoding="utf-8") as f:
            f.write(text)
        assert main(["prune", graph, "--oracle", "--eps", "1/2", "--faults", faults]) == 2


# a directory below the scratch root, as path components; "" is the root
_DIRS = st.lists(st.sampled_from(["a", "b", "c d", ".e"]), max_size=3).map(
    lambda parts: os.path.join(*parts) if parts else ""
)


@given(
    run_dir=_DIRS,
    graph_dir=_DIRS,
    out_dir=_DIRS,
    manifest_dir=st.none() | _DIRS,
    replay_dir=_DIRS,
)
@settings(max_examples=40, deadline=None)
def test_manifests_replay_from_foreign_directories(
    run_dir, graph_dir, out_dir, manifest_dir, replay_dir
):
    # a run started in run_dir reads and writes through relative paths,
    # which may climb out of it or descend into nested or sibling
    # directories; its manifests then replay from replay_dir
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.realpath(tmp)
        for d in (run_dir, graph_dir, out_dir, manifest_dir or "", replay_dir):
            os.makedirs(os.path.join(root, d), exist_ok=True)
        graph = os.path.join(root, graph_dir, "g.gr")
        out = os.path.join(root, out_dir, "e.json")
        manifest = os.path.join(root, manifest_dir or out_dir, "e.manifest.json")
        here = os.path.normpath(os.path.join(root, run_dir))
        gen = ["gen", "--family", "mesh", "--dims", "2x3", "-o", os.path.relpath(graph, here)]
        run = ["expansion", os.path.relpath(graph, here), "--node", "--exact"]
        run += ["-o", os.path.relpath(out, here)]
        if manifest_dir is None:
            manifest = out + ".manifest.json"
        else:
            run += ["--manifest", os.path.relpath(manifest, here)]
        try:
            os.chdir(here)
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(gen) == 0
                assert main(run) == 0
            there = os.path.normpath(os.path.join(root, replay_dir))
            os.chdir(there)
            for recorded in (graph + ".manifest.json", manifest):
                said = io.StringIO()
                with contextlib.redirect_stdout(said):
                    assert main(["--replay", os.path.relpath(recorded, there)]) == 0
                assert "byte for byte" in said.getvalue()
                assert os.getcwd() == there
            assert not os.path.exists(graph + ".replay")
            assert not os.path.exists(out + ".replay")
        finally:
            os.chdir(start)


def test_survivor_measurement_raises_no_warning():
    g = mesh([4, 4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        adversary_exhaustive(g, 2, 1)
        rows, _ = run_percolation_sweep(g, "node", [Fraction(1, 3)], 6, 5, prune_k=2)
    # some faulty graphs fell apart, and pruning left a survivor to measure
    assert any(r.gamma < 1 and r.h_frac > 0 for r in rows)
