"""Acceptance suite: eleven criteria, one test each, with a PASS/FAIL
scoreboard printed at the end of the run (see conftest).

Criteria 1-8 are exact (zero tolerance), 9-10 are statistical with the
stated margins, 11 replays every manifest produced by representative
command-line runs."""

import math
import statistics
from fractions import Fraction

from conftest import criterion

from xpand.expansion import (
    edge_expansion_exact,
    node_expansion_exact,
    subdivided_node_expansion,
)
from xpand.experiments import (
    adversary_exhaustive,
    chain_attack_report,
    run_percolation_sweep,
    verify_subgraph_count_bound,
)
from xpand.faults import apply_faults, edge_survival_pattern, random_node_faults
from xpand.generators import (
    complete,
    cycle,
    hypercube,
    mesh,
    random_regular,
    subdivide_edges,
)
from xpand.graph import (
    is_compact,
    is_connected,
    make_cut,
)
from xpand.pruning import compactify, prune, prune2, union_boundary_check
from xpand.span import span_exact, verify_mesh_span_certificate

from oracles import is_compact_nx, random_connected_graph, random_connected_subset, relabel

F = Fraction

# traces accumulated by criteria 1 and 2, consumed by criterion 4
_TRACES: list = []


def _theorem_graphs():
    graphs = [mesh([4, 4]), cycle(12), hypercube(3)]
    seed, found = 0, 0
    while found < 10:
        g = random_regular(10, 3, seed=seed)
        if is_connected(g):
            graphs.append(g)
            found += 1
        seed += 1
    return graphs


def test_criterion_1_size_and_expansion_guarantees():
    with criterion(
        1, "prune meets size and expansion bounds on every fault set"
    ) as c:
        instances = 0
        iterations = 0
        for g in _theorem_graphs():
            alpha = node_expansion_exact(g).value
            for k in (2, 3):
                f = 0
                while F(k * f) / alpha <= F(g.n, 4):
                    rep, traces = adversary_exhaustive(g, k, f, keep_traces=True)
                    assert rep.worst_h_size >= rep.size_bound
                    assert rep.worst_expansion >= rep.expansion_bound
                    for faults, trace in traces:
                        _TRACES.append((g, trace))
                    instances += 1
                    iterations += rep.iterations
                    f += 1
        c.detail = f"{instances} (graph,k,f) instances, {iterations} fault sets"


def test_criterion_2_loop_exit_contracts():
    with criterion(2, "exact prune/prune2 loop-exit expansion contracts") as c:
        eps_pool = [F(1, 4), F(1, 2), F(2, 3), F(3, 4), F(7, 8)]
        node_checked = edge_checked = 0
        for i in range(500):
            g = random_connected_graph(i * 7 + 3, n_max=16)
            eps = eps_pool[i % len(eps_pool)]

            alpha = node_expansion_exact(g).value
            g_f, nodes = apply_faults(g, random_node_faults(g, 0.15, seed=i))
            if nodes:
                trace = prune(g_f, alpha, eps, nodes=nodes)
                _TRACES.append((g_f, trace))
                if len(trace.final_nodes) >= 2:
                    h = relabel(g_f, trace.final_nodes)[0]
                    assert node_expansion_exact(h).value > alpha * eps
                    node_checked += 1

            alpha_e = edge_expansion_exact(g).value
            g_e, nodes_e = apply_faults(g, edge_survival_pattern(g, 0.85, seed=i))
            trace2 = prune2(g_e, alpha_e, eps, nodes=nodes_e)
            _TRACES.append((g_e, trace2))
            if len(trace2.final_nodes) >= 2:
                h = relabel(g_e, trace2.final_nodes)[0]
                assert edge_expansion_exact(h).value > alpha_e * eps
                edge_checked += 1
        c.detail = f"{node_checked} node + {edge_checked} edge survivors checked"


def test_criterion_3_compactification():
    with criterion(3, "compactify output is compact, edge ratio never worse") as c:
        done = 0
        i = 0
        while done < 1000:
            g = random_connected_graph(i * 11 + 1, n_max=16)
            i += 1
            cap = (g.n - 1) // 2
            if cap < 1:
                continue
            s = random_connected_subset(g, seed=i, size_cap=cap)
            out = compactify(g, s)
            assert is_compact(g, out)
            assert is_compact_nx(g, out)
            assert make_cut(g, out).edge_ratio <= make_cut(g, s).edge_ratio
            done += 1
        c.detail = f"{done} random instances"


def test_criterion_4_union_boundary_telescoping():
    with criterion(4, "telescoping union invariant on all collected traces") as c:
        assert _TRACES, "criteria 1-2 must run first"
        rows_checked = 0
        for g_f, trace in _TRACES:
            for row in union_boundary_check(g_f, trace):
                assert row["ok"]
                rows_checked += 1
        c.detail = f"{len(_TRACES)} traces, {rows_checked} prefixes"


def test_criterion_5_mesh_span():
    with criterion(5, "mesh span at most 2, certificates hold") as c:
        values = {}
        for dims in ((3, 3), (4, 4), (2, 2, 2), (3, 3, 2)):
            r = span_exact(mesh(dims))
            assert r.value <= 2
            values[dims] = r.value
        cert = verify_mesh_span_certificate((4, 4), exhaustive=True)
        assert cert.ok and cert.failures == ()
        c55 = verify_mesh_span_certificate((5, 5), exhaustive=False, samples=900, seed=5)
        c333 = verify_mesh_span_certificate(
            (3, 3, 3), exhaustive=False, samples=700, seed=5
        )
        assert c55.ok and c55.checked >= 500
        assert c333.ok and c333.checked >= 500
        c.detail = (
            "exact "
            + ", ".join(f"{d}:{v}" for d, v in values.items())
            + f"; sampled {c55.checked}+{c333.checked} compact sets"
        )


def test_criterion_6_subdivided_expansion_bound():
    with criterion(6, "subdivided expander expansion at most 2/k") as c:
        seed = 0
        while not is_connected(random_regular(8, 3, seed=seed)):
            seed += 1
        bases = [complete(4), random_regular(8, 3, seed=seed)]
        seen = []
        for base in bases:
            for k in (2, 4):
                s = subdivide_edges(base, k)
                val = subdivided_node_expansion(s).value
                if s.graph.n <= 24:
                    # cross-check the chain DP against the full sweep
                    assert val == node_expansion_exact(s.graph).value
                assert val <= F(2, k)
                seen.append(f"n={s.graph.n}:{val}")
        c.detail = "; ".join(seen)


def test_criterion_7_chain_center_shattering():
    with criterion(7, "chain-center attack leaves components <= 3k/2 + 1") as c:
        out = []
        for k in (2, 4):
            s = subdivide_edges(complete(4), k)
            rep = chain_attack_report(s)
            bound = 3 * k // 2 + 1
            assert rep.largest_component <= bound
            assert rep.component_bound == bound
            out.append(f"k={k}: {rep.largest_component}<={bound}")
        c.detail = "; ".join(out)


def test_criterion_8_connected_subgraph_census():
    with criterion(8, "connected-subgraph census within n*delta^(2r)") as c:
        rep = verify_subgraph_count_bound(subdivide_edges(complete(4), 2), r_max=3)
        for r, count, bound, ok in rep.bins:
            assert ok and count <= bound
        c.detail = ", ".join(f"r={r}:{cnt}<={b}" for r, cnt, b, _ in rep.bins)


def test_criterion_9_percolation_bracket():
    with criterion(9, "edge-percolation gamma bracket around p*=1/2") as c:
        m40 = mesh([40, 40])
        ps = [F(7, 20), F(13, 20)]
        rows, summaries = run_percolation_sweep(m40, "edge", ps, 30, 2026)
        means = {s.p: s.mean_gamma for s in summaries}
        diff = means[F(13, 20)] - means[F(7, 20)]
        assert diff >= F(3, 10)
        rows2, _ = run_percolation_sweep(m40, "edge", ps, 30, 2026)
        assert rows == rows2
        c.detail = f"mean gap {float(diff):.3f} >= 0.3, re-run identical"


def test_criterion_10_disintegration_trend():
    with criterion(10, "node faults above threshold halve mean gamma") as c:
        seed = 0
        while not is_connected(random_regular(20, 3, seed=seed)):
            seed += 1
        s = subdivide_edges(random_regular(20, 3, seed=seed), 6)
        p_hi = F(round(4 * math.log(3) / 6 * 10**6), 10**6)
        p_lo = p_hi / 4
        rows, _ = run_percolation_sweep(s.graph, "node", [p_hi, p_lo], 50, 77)
        hi, lo = rows[:50], rows[50:]
        mean_hi = statistics.mean(r.gamma for r in hi)
        mean_lo = statistics.mean(r.gamma for r in lo)
        assert mean_hi <= mean_lo / 2
        c.detail = f"gamma {float(mean_hi):.3f} at p_hi vs {float(mean_lo):.3f} at p_lo/4"


def test_criterion_11_manifest_replay(tmp_path, monkeypatch, capsys):
    from xpand.cli import main

    with criterion(11, "every recorded manifest replays byte-for-byte") as c:
        monkeypatch.chdir(tmp_path)
        runs = [
            ["gen", "--family", "mesh", "--dims", "4x4", "-o", "m44.gr"],
            ["gen", "--family", "mesh", "--dims", "40x40", "-o", "m40.gr"],
            ["gen", "--family", "complete", "--n", "4", "-o", "k4.gr"],
            ["gen", "--family", "subdivide", "--base", "k4.gr", "--k", "2",
             "-o", "s2.gr"],
            ["expansion", "m44.gr", "--node", "--exact",
             "--manifest", "exp.manifest.json"],
            ["expansion", "s2.gr", "--node", "--chain-dp", "-o", "dp.json"],
            ["prune", "m44.gr", "--oracle", "--eps", "1/2", "--faults", "empty",
             "-o", "prune.json"],
            ["span", "m44.gr", "--exact", "-o", "span.json"],
            ["verify-mesh-span", "--dims", "4x4", "--exhaustive", "-o", "cert.json"],
            ["attack", "s2.gr", "--strategy", "chain-centers", "-o", "attack.json"],
            ["percolate", "m40.gr", "--model", "edge", "--p-grid", "7/20:13/20:3/10",
             "--trials", "30", "--seed", "2026", "-o", "bracket.csv"],
            ["percolate", "m44.gr", "--model", "node", "--p-grid", "1/8",
             "--trials", "10", "--seed", "7", "--prune", "--k", "2",
             "-o", "pruned.csv"],
        ]
        for argv in runs:
            assert main(argv) == 0, argv
        capsys.readouterr()
        manifests = sorted(p.name for p in tmp_path.glob("*.manifest.json"))
        assert len(manifests) == len(runs)
        for m in manifests:
            assert main(["--replay", m]) == 0, m
            replay_out = capsys.readouterr().out
            assert "MISMATCH" not in replay_out
        assert not list(tmp_path.glob("*.replay"))
        c.detail = f"{len(manifests)} manifests replayed"
