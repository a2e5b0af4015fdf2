"""Percolation sweeps, resilience trials, adversary search and its sweep
count, attack reports, and the connected-subgraph census."""

import dataclasses
import statistics
import tracemalloc
import warnings
from fractions import Fraction
from math import ceil, comb

import pytest

from xpand import experiments, kernels, pruning
from xpand.errors import ContractError, InputError, LimitError
from xpand.experiments import (
    adversary_exhaustive,
    chain_attack_report,
    gamma,
    rows_to_csv,
    rows_to_jsonl,
    run_percolation_sweep,
    run_resilience_trial,
    verify_subgraph_count_bound,
)
from xpand.expansion import node_expansion_exact
from xpand.generators import complete, cycle, mesh, path, subdivide_edges
from xpand.graph import Graph
from xpand.pruning import hypothesis_ok, prune, prune2

from test_acceptance import _theorem_graphs

F = Fraction


def test_gamma():
    assert gamma(cycle(8)) == 1
    # on the faulty graph (g, nodes)
    assert gamma(cycle(8), [1, 2, 3, 5, 6, 7]) == F(1, 2)
    assert gamma(cycle(8), [0, 1, 2, 4, 5]) == F(3, 5)
    assert gamma(cycle(8), [3]) == 1
    assert gamma(cycle(8), []) == 0
    assert gamma(Graph.from_edges(5, [])) == F(1, 5)
    assert gamma(Graph.from_edges(0, [])) == 0


def test_csv_format_is_frozen():
    rows, _ = run_percolation_sweep(cycle(12), "node", [F(1, 10)], 3, 42)
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "p,trial,gamma,h_frac,expansion_num,expansion_den,certified,ms"
    assert len(lines) == 4
    # without pruning the certificate columns stay at their defaults
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "0.1"
        assert cells[4:8] == ["0", "1", "false", "0"]


def test_jsonl_format_matches_csv_fields():
    import json

    rows, _ = run_percolation_sweep(cycle(12), "node", [F(1, 10)], 2, 42)
    for line, row in zip(rows_to_jsonl(rows).splitlines(), rows):
        obj = json.loads(line)
        assert obj["p"] == float(row.p)
        assert obj["trial"] == row.trial
        assert obj["gamma"] == float(row.gamma)
        assert obj["certified"] is row.certified
        assert set(obj) == {
            "p",
            "trial",
            "gamma",
            "h_frac",
            "expansion_num",
            "expansion_den",
            "certified",
            "ms",
        }


def test_node_model_extremes():
    rows, _ = run_percolation_sweep(cycle(12), "node", [F(1), F(0)], 3, 0)
    assert all(r.gamma == 0 for r in rows[:3])
    assert all(r.gamma == 1 for r in rows[3:])


def test_edge_model_p_is_survival_probability():
    # p=0 keeps nothing (gamma collapses to 1/n), p=1 keeps everything
    rows, _ = run_percolation_sweep(cycle(12), "edge", [F(0), F(1)], 3, 0)
    assert all(r.gamma == F(1, 12) for r in rows[:3])
    assert all(r.gamma == 1 for r in rows[3:])
    rows, _ = run_percolation_sweep(cycle(12), "edge", [F(1, 4), F(3, 4)], 20, 7)
    means = {}
    for r in rows:
        means.setdefault(r.p, []).append(r.gamma)
    assert statistics.mean(means[F(1, 4)]) < statistics.mean(means[F(3, 4)])


def test_sweep_is_deterministic():
    a, sa = run_percolation_sweep(cycle(12), "edge", [F(1, 4), F(1, 2)], 10, 7)
    b, sb = run_percolation_sweep(cycle(12), "edge", [F(1, 4), F(1, 2)], 10, 7)
    assert a == b and sa == sb
    c, _ = run_percolation_sweep(cycle(12), "edge", [F(1, 4), F(1, 2)], 10, 8)
    assert c != a


def test_point_summaries():
    rows, summaries = run_percolation_sweep(cycle(12), "node", [F(1, 3)], 25, 3)
    (s,) = summaries
    assert s.trials == 25
    assert s.mean_gamma == statistics.mean(r.gamma for r in rows)
    assert s.certified_count == 0


def test_supercritical_and_subcritical_bands():
    m = mesh([20, 20])
    rows, _ = run_percolation_sweep(m, "edge", [F(9, 10), F(1, 10)], 30, 11)
    hi, lo = rows[:30], rows[30:]
    assert statistics.mean(r.gamma for r in hi) > F(9, 10)
    assert statistics.mean(r.gamma for r in lo) < F(1, 20)


def test_pruned_sweep_invariants():
    m = mesh([4, 4])
    alpha = node_expansion_exact(m).value
    rows, summaries = run_percolation_sweep(m, "node", [F(1, 8)], 20, 5, prune_k=2)
    for r in rows:
        assert r.h_frac <= r.gamma  # H sits inside one surviving component
        if r.certified:
            assert 2 * r.h_frac >= 1
            assert r.expansion >= alpha * F(1, 2)
    assert summaries[0].certified_count == sum(1 for r in rows if r.certified)


def test_percolation_validation():
    m = mesh([4, 4])
    with pytest.raises(InputError):
        run_percolation_sweep(m, "bogus", [F(1, 2)], 1, 0)
    with pytest.raises(InputError):
        run_percolation_sweep(m, "node", [F(2)], 1, 0)
    with pytest.raises(InputError):
        run_percolation_sweep(m, "node", [F(1, 2)], 0, 0)
    with pytest.raises(InputError):
        run_percolation_sweep(m, "edge", [F(1, 2)], 1, 0, prune_k=2)
    with pytest.raises(LimitError):
        run_percolation_sweep(mesh([6, 6]), "node", [F(1, 2)], 1, 0, prune_k=2)


@pytest.mark.parametrize("k", [-1, 0, 1])
@pytest.mark.parametrize("p", [F(0), F(1, 2)])
def test_pruned_percolation_refuses_k_below_2_up_front(k, p):
    # k = 0 used to divide by zero and k = +-1 to fail inside a trial
    with pytest.raises(InputError, match="k must be at least 2"):
        run_percolation_sweep(mesh([3, 3]), "node", [p], 1, 0, prune_k=k)


@pytest.mark.parametrize(
    "model, ps, kwargs, error, message",
    [
        ("node", [F(0), F(1, 2), F(1), F(3, 2)], {}, InputError, r"p must lie in \[0,1\]"),
        ("edge", [F(1, 2), F(-1, 2)], {}, InputError, r"p must lie in \[0,1\]"),
        ("node", [F(1, 2)] * 3, {"prune_k": 2}, LimitError, "n <= 24, got n=25"),
        ("edge", [F(1, 2)] * 3, {"prune_k": 2}, InputError, "node fault model only"),
        ("node", [F(1, 2)] * 3, {"prune_k": 1}, InputError, "k must be at least 2"),
    ],
    ids=["p-above-1", "p-below-0", "past-the-exact-cap", "edge-pruning", "k-below-2"],
)
def test_a_sweep_checks_every_point_before_the_first_draw(
    monkeypatch, model, ps, kwargs, error, message
):
    def no_draw(*args):
        raise AssertionError("a trial was drawn")

    def no_measure(g):
        raise AssertionError("alpha was measured")

    monkeypatch.setattr(experiments, "random_node_faults", no_draw)
    monkeypatch.setattr(experiments, "edge_survival_pattern", no_draw)
    monkeypatch.setattr(experiments, "node_expansion_exact", no_measure)
    with pytest.raises(error, match=f"{message}$"):
        run_percolation_sweep(cycle(25), model, ps, 20, 0, **kwargs)


def test_a_point_is_the_sweep_on_its_one_probability():
    m = mesh([3, 3])
    # point i of a sweep draws from seed base + i * 10**6, as a sweep of
    # that one point from that base does
    rows, _ = run_percolation_sweep(m, "node", [F(1, 4), F(1, 3)], 4, 9, prune_k=2)
    assert run_percolation_sweep(m, "node", [F(1, 3)], 4, 9 + 10**6, prune_k=2)[0] == rows[4:]
    assert run_percolation_sweep(m, "node", [F(1, 4)], 4, 9, prune_k=2)[0] == rows[:4]


@pytest.mark.parametrize(
    "model, p, message",
    [
        ("bogus", F(1, 2), "unknown fault model 'bogus'"),
        ("node", F(5, 4), r"p must lie in \[0,1\]"),
        ("edge", F(-1), r"p must lie in \[0,1\]"),
    ],
)
def test_resilience_trial_validation(model, p, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        run_resilience_trial(mesh([3, 3]), model, p, 0, 0, F(1, 2))


def test_resilience_trial_identity_cases():
    r = run_resilience_trial(mesh([4, 4]), "node", F(0), 0, 5, F(1, 2))
    assert (r.gamma, r.h_frac, r.expansion, r.certified) == (1, 1, F(1, 2), True)
    r2 = run_resilience_trial(complete(8), "edge", F(1), 0, 5, F(1, 2))
    assert (r2.gamma, r2.h_frac, r2.certified) == (1, 1, True)


def test_resilience_trial_survivor_bounds():
    m = mesh([4, 4])
    alpha = node_expansion_exact(m).value
    for j in range(25):
        t = run_resilience_trial(m, "node", F(1, 5), j, 99, F(1, 4))
        assert t.h_frac <= t.gamma
        assert 0 <= t.h_frac <= 1
        if t.certified:
            assert t.expansion >= F(1, 4) * alpha


def test_resilience_trial_is_deterministic():
    m = mesh([4, 4])
    a = run_resilience_trial(m, "node", F(1, 5), 3, 99, F(1, 4))
    b = run_resilience_trial(m, "node", F(1, 5), 3, 99, F(1, 4))
    assert a == b


def test_adversary_mesh44_frozen():
    rep = adversary_exhaustive(mesh([4, 4]), 2, 1)
    assert rep.iterations == 16
    assert rep.worst_faults == (0,)
    assert rep.worst_h_size == 15
    assert rep.worst_expansion == F(3, 7)
    assert rep.size_bound == 12
    assert rep.expansion_bound == F(1, 4)
    assert rep.eps == F(1, 2)
    # exhaustive worst case still satisfies both guarantees
    assert rep.worst_h_size >= rep.size_bound
    assert rep.worst_expansion >= rep.expansion_bound


def test_adversary_f0_is_identity():
    rep = adversary_exhaustive(mesh([4, 4]), 2, 0)
    assert rep.iterations == 1
    assert rep.worst_faults == ()
    assert rep.worst_h_size == 16


def test_adversary_keep_traces():
    rep, traces = adversary_exhaustive(mesh([4, 4]), 2, 1, keep_traces=True)
    assert rep.iterations == len(traces) == 16
    for faults, trace in traces:
        assert len(faults) == 1
        assert trace.n_start == 15


def _k9_with_pendant() -> Graph:
    # node 9 hangs off node 0: failing node 0 leaves it to be culled
    edges = [(i, j) for i in range(9) for j in range(i + 1, 9)]
    return Graph.from_edges(10, edges + [(0, 9)])


@pytest.mark.parametrize(
    "g, f, steps",
    [(mesh([4, 4]), 1, 0), (complete(16), 2, 0), (_k9_with_pendant(), 1, 1)],
    ids=["mesh4x4-f1", "K16-f2", "K9-pendant-f1"],
)
def test_adversary_runs_one_sweep_per_fault_set_and_step(monkeypatch, g, f, steps):
    sweep, measure = kernels.min_ratio_node_cut, experiments.node_expansion_exact
    swept, measured = [], []

    def counted_sweep(n, adj):
        swept.append(n)
        return sweep(n, adj)

    def counted_measure(h):
        measured.append(h.n)
        return measure(h)

    monkeypatch.setattr(kernels, "min_ratio_node_cut", counted_sweep)
    monkeypatch.setattr(experiments, "node_expansion_exact", counted_measure)
    _rep, traces = adversary_exhaustive(g, 2, f, keep_traces=True)
    assert sum(len(t.steps) for _faults, t in traces) == steps
    assert all(t.h_size >= 2 for _faults, t in traces)
    # one sweep for alpha; per fault set one per culled set and one that
    # finds no sparse set, which also grades the survivor
    assert len(swept) == 1 + sum(len(t.steps) + 1 for _faults, t in traces)
    # alpha of the fault-free graph is the only expansion measured
    assert measured == [g.n]


@pytest.mark.parametrize(
    "g, k, f, message",
    [
        (mesh([3, 3]), 1, 0, "k must be at least 2"),
        (mesh([3, 3]), 2, -1, "f must be nonnegative"),
        (Graph.from_edges(1, []), 2, 0, "adversary needs at least 2 nodes"),
        (Graph.from_edges(4, [(0, 1), (2, 3)]), 2, 0, "original graph must be connected"),
    ],
    ids=["k-below-2", "f-negative", "one-node", "disconnected"],
)
def test_adversary_input_checks(g, k, f, message):
    # measuring the disconnected graph also warns that its expansion is 0
    with warnings.catch_warnings(), pytest.raises(InputError, match=f"^{message}$"):
        warnings.simplefilter("ignore", UserWarning)
        adversary_exhaustive(g, k, f)


def test_adversary_rejects_hypothesis_violations():
    # alpha(C8)=1/2: k*f/alpha = 4 > n/4 = 2
    with pytest.raises(InputError):
        adversary_exhaustive(cycle(8), 2, 1)


def test_adversary_past_the_exact_cap_is_refused_by_the_expansion_sweep():
    with pytest.raises(LimitError, match="^exact subset enumeration is limited to n <= 24, got n=25$"):
        adversary_exhaustive(complete(25), 2, 0)


def test_hypothesis_bounds_the_adversary_to_2024_fault_sets():
    # any floor(n/2) nodes have at most ceil(n/2) outside them, so alpha
    # <= ceil(n/2)/floor(n/2), and hypothesis_ok then caps f; past the
    # exact cap C(n, f) outgrows this bound on the adversary's work
    for n in range(2, kernels.EXACT_MAX_N + 1):
        alpha = F(ceil(n / 2), n // 2)
        for k in (2, 3, 4):
            f = max(f for f in range(n + 1) if hypothesis_ok(n, alpha, k, f))
            assert comb(n, f) <= 2024, (n, k, f)
    for g in _theorem_graphs():
        assert node_expansion_exact(g).value <= F(ceil(g.n / 2), g.n // 2)


def test_a_broken_prefix_stops_prune_prune2_and_the_adversary(monkeypatch):
    # the public prefix check guards the telescoping invariant for every
    # caller: prune and prune2 directly, the adversary through prune
    walk = pruning.union_boundary_check
    monkeypatch.setattr(
        pruning,
        "union_boundary_check",
        lambda g, trace: [dict(r, ok=False) for r in walk(g, trace)],
    )
    two_paths = [v for v in range(12) if v not in (0, 6)]
    with pytest.raises(ContractError, match="^prefix 1 broke the boundary invariant"):
        prune(cycle(12), F(1, 3), F(3, 4), nodes=two_paths)
    with pytest.raises(ContractError, match="^prefix 1 broke the boundary invariant"):
        prune2(cycle(12), F(1, 3), F(3, 4), nodes=two_paths)
    with pytest.raises(ContractError, match="^prefix 1 broke the boundary invariant"):
        adversary_exhaustive(_k9_with_pendant(), 2, 1)


def test_chain_attack_reports_frozen():
    s2 = subdivide_edges(complete(4), 2)
    r2 = chain_attack_report(s2)
    assert r2.fault_count == 6
    assert r2.gamma == F(2, 5)
    assert r2.largest_component == r2.component_bound == 4

    s4 = subdivide_edges(complete(4), 4)
    r4 = chain_attack_report(s4)
    assert r4.fault_count == 6
    assert r4.gamma == F(7, 22)
    assert r4.largest_component == r4.component_bound == 7
    assert r4.ok
    assert r4.to_payload() == {
        "fault_count": 6,
        "gamma_num": 7,
        "gamma_den": 22,
        "largest_component": 7,
        "component_bound": 7,
        "ok": True,
    }
    over = dataclasses.replace(r4, largest_component=8)
    assert not over.ok and over.to_payload()["ok"] is False


def test_chain_attack_fault_cost_scales_with_edges_only():
    # budget is one node per base edge no matter how long the chains are
    for k in (2, 4, 6):
        s = subdivide_edges(cycle(6), k)
        assert chain_attack_report(s).fault_count == 6


def test_census_subdivided_k4():
    s = subdivide_edges(complete(4), 2)
    rep = verify_subgraph_count_bound(s)
    assert rep.n == 4 and rep.delta == 3
    assert rep.bins == (
        (1, 4, 36, True),
        (2, 6, 324, True),
        (3, 4, 2916, True),
        (4, 1, 26244, True),
    )
    assert rep.total == 15
    trunc = verify_subgraph_count_bound(s, r_max=3)
    assert trunc.bins == rep.bins[:3]
    assert trunc.total == 14
    assert rep.ok
    assert rep.to_payload() == {
        "n": 4,
        "delta": 3,
        "bins": [
            {"r": 1, "count": 4, "bound": 36, "ok": True},
            {"r": 2, "count": 6, "bound": 324, "ok": True},
            {"r": 3, "count": 4, "bound": 2916, "ok": True},
            {"r": 4, "count": 1, "bound": 26244, "ok": True},
        ],
        "total": 15,
        "ok": True,
    }
    over = dataclasses.replace(rep, bins=rep.bins[:3] + ((4, 26245, 26244, False),))
    assert not over.ok and over.to_payload()["ok"] is False


def test_census_on_plain_graph():
    rep = verify_subgraph_count_bound(cycle(5))
    # C5 has 5 connected induced subgraphs of each size 1..4, plus C5 itself
    assert rep.total == 21
    assert all(ok for _r, _c, _b, ok in rep.bins)


def test_census_validation():
    for g, r_max, message in (
        (cycle(5), 0, "r_max must be at least 1"),
        (Graph.from_edges(0, []), None, "census needs a nonempty graph"),
        (Graph.from_edges(3, []), None, "census needs at least one edge"),
    ):
        with pytest.raises(InputError, match=f"^{message}$"):
            verify_subgraph_count_bound(g, r_max=r_max)


def test_census_skips_sizes_no_component_reaches():
    rep = verify_subgraph_count_bound(Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]))
    assert rep.bins == ((1, 5, 20, True), (2, 3, 80, True), (3, 1, 320, True))
    assert rep.total == 9


def test_census_cap_is_the_connectivity_table_cap():
    # a 25-node base is refused, however few connected sets it has
    with pytest.raises(LimitError, match="n <= 24"):
        verify_subgraph_count_bound(path(25))
    # all 2^23 - 1 nonempty node sets of K23 are connected, and counted
    rep = verify_subgraph_count_bound(complete(23))
    assert rep.bins == tuple((r, comb(23, r), 23 * 22 ** (2 * r), True) for r in range(1, 24))
    assert rep.total == 2**23 - 1


def test_census_peak_memory_is_the_table_build():
    g = mesh([4, 5])
    adj = kernels.adjacency_masks(g.adjacency)
    peaks = []
    for run in (
        lambda: kernels.connectivity_table(g.n, adj),
        lambda: verify_subgraph_count_bound(g),
    ):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**20
