"""Experiments: percolation sweeps, exhaustive fault adversaries over
the pruning guarantees, chain-center disintegration, and the connected
subgraph census bound.

Randomness follows the package seed policy. p carries each model's
natural meaning: the failure probability for node faults, the survival
probability for edge faults, so larger p hurts the node model and
helps the edge model. Trial seeds are
seed_base + point_index * 10**6 + trial, so any row can be reproduced
in isolation.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from . import kernels
from .errors import ContractError, InputError, LimitError
from .expansion import (
    EXACT_EXPANSION_LIMIT,
    edge_expansion_exact,
    node_expansion_exact,
)
from .faults import (
    FaultPattern,
    apply_faults,
    attack_chain_centers,
    edge_survival_pattern,
    random_node_faults,
)
from .generators import SubdividedGraph
from .graph import Graph, connected_components, induced_subgraph, remove_nodes
from .pruning import (
    expansion_lower_bound,
    hypothesis_ok,
    prune,
    prune2,
    size_lower_bound,
    union_boundary_check,
)

MAX_TRIALS_PER_POINT = 10**6
ADVERSARY_SUBSET_LIMIT = 10**6
CENSUS_COUNT_CAP = 1 << 22

CSV_HEADER = "p,trial,gamma,h_frac,expansion_num,expansion_den,certified,ms"


def gamma(g: Graph) -> Fraction:
    """Largest-component fraction of g; 0 for the empty graph."""
    if g.n == 0:
        return Fraction(0)
    return Fraction(len(connected_components(g)[0]), g.n)


@dataclass(frozen=True)
class TrialResult:
    p: Fraction
    trial: int
    gamma: Fraction
    h_frac: Fraction
    expansion: Fraction
    certified: bool
    ms: int

    def csv_row(self) -> str:
        return ",".join(
            [
                repr(float(self.p)),
                str(self.trial),
                repr(float(self.gamma)),
                repr(float(self.h_frac)),
                str(self.expansion.numerator),
                str(self.expansion.denominator),
                "true" if self.certified else "false",
                str(self.ms),
            ]
        )


@dataclass(frozen=True)
class PointSummary:
    p: Fraction
    trials: int
    mean_gamma: Fraction
    mean_h_frac: Fraction
    certified_count: int


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in rows]) + "\n"


def rows_to_jsonl(rows) -> str:
    """One canonical JSON object per line, same fields as the CSV."""
    out = []
    for r in rows:
        out.append(
            json.dumps(
                {
                    "p": float(r.p),
                    "trial": r.trial,
                    "gamma": float(r.gamma),
                    "h_frac": float(r.h_frac),
                    "expansion_num": r.expansion.numerator,
                    "expansion_den": r.expansion.denominator,
                    "certified": r.certified,
                    "ms": r.ms,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return "\n".join(out) + "\n"


def _prune_and_grade(g_f: Graph, mode: str, alpha, eps):
    """Prune g_f (prune for node mode, prune2 for edge mode), induce the
    survivor H from g_f and measure it exactly in the same mode.
    Returns (trace, expansion of H), the expansion 0 when |H| < 2.

    H with at least 2 nodes is connected, so its measurement never warns
    of a disconnected graph: its smallest component would have at most
    |H|/2 nodes and ratio 0 <= alpha*eps, and the loop would have culled
    it."""
    if mode == "node":
        trace = prune(g_f, alpha, eps)
        measure = node_expansion_exact
    else:
        trace = prune2(g_f, alpha, eps)
        measure = edge_expansion_exact
    if trace.h_size < 2:
        return trace, Fraction(0)
    h_graph = induced_subgraph(g_f, g_f.local_ids(trace.final_nodes))
    return trace, measure(h_graph).value


def percolation_point(
    g: Graph,
    model: str,
    p: Fraction,
    trials: int,
    seed_base: int,
    point_index: int,
    *,
    prune_params=None,  # (alpha, k) to prune each faulty graph
    record_ms: bool = False,
    threads: int = 1,
) -> list:
    if model not in ("node", "edge"):
        raise InputError(f"unknown percolation model {model!r}")
    if not 0 <= p <= 1:
        raise InputError("p must lie in [0,1]")
    if not 1 <= trials <= MAX_TRIALS_PER_POINT:
        raise InputError(f"trials must lie in [1, {MAX_TRIALS_PER_POINT}]")
    if prune_params is not None:
        if model != "node":
            raise InputError("pruning is defined for the node fault model only")
        if g.n > EXACT_EXPANSION_LIMIT:
            raise LimitError(f"pruning needs n <= {EXACT_EXPANSION_LIMIT}, got n={g.n}")
    def one(j: int) -> TrialResult:
        seed = seed_base + point_index * 10**6 + j
        t0 = time.monotonic_ns()
        if model == "node":
            pattern = random_node_faults(g, float(p), seed)
            g_f = apply_faults(g, pattern)
            fault_count = len(pattern.failed_nodes)
        else:
            pattern = edge_survival_pattern(g, float(p), seed)
            g_f = apply_faults(g, pattern)
            fault_count = g.m - len(pattern.kept_edges)
        gam = gamma(g_f)
        if prune_params is not None:
            alpha, k = prune_params
            eps = 1 - Fraction(1, k)
            trace, expansion = _prune_and_grade(g_f, "node", alpha, eps)
            h_size = trace.h_size
            h_frac = Fraction(h_size, g.n)
            certified = (
                hypothesis_ok(g.n, alpha, k, fault_count)
                and h_size >= size_lower_bound(g.n, alpha, k, fault_count)
                and h_size >= 2
                and expansion >= expansion_lower_bound(alpha, k)
            )
        else:
            h_frac, expansion, certified = Fraction(0), Fraction(0), False
        ms = (time.monotonic_ns() - t0) // 10**6 if record_ms else 0
        return TrialResult(
            p=p,
            trial=j,
            gamma=gam,
            h_frac=h_frac,
            expansion=expansion,
            certified=certified,
            ms=int(ms),
        )

    # trials are seeded independently, so the order of execution cannot
    # matter; results are gathered back in trial order either way
    if threads > 1 and trials > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            return list(pool.map(one, range(int(trials))))
    return [one(j) for j in range(int(trials))]


def run_percolation_sweep(
    g: Graph,
    model: str,
    ps,
    trials: int,
    seed_base: int,
    *,
    prune_params=None,
    record_ms: bool = False,
    threads: int = 1,
):
    """Sweep failure probabilities; returns (rows, per-point summaries)."""
    rows = []
    points = []
    for i, p in enumerate(ps):
        batch = percolation_point(
            g,
            model,
            Fraction(p),
            trials,
            seed_base,
            i,
            prune_params=prune_params,
            record_ms=record_ms,
            threads=threads,
        )
        rows.extend(batch)
        mean_gamma = sum((r.gamma for r in batch), Fraction(0)) / len(batch)
        points.append(
            PointSummary(
                p=Fraction(p),
                trials=len(batch),
                mean_gamma=mean_gamma,
                mean_h_frac=sum((r.h_frac for r in batch), Fraction(0)) / len(batch),
                certified_count=sum(1 for r in batch if r.certified),
            )
        )
    return rows, points


def run_resilience_trial(
    g: Graph,
    model: str,
    p,
    trial: int,
    seed_base: int,
    eps: Fraction,
    *,
    alpha: Fraction | None = None,
    record_ms: bool = False,
) -> TrialResult:
    """One fault-and-prune round. Node faults are pruned on node
    ratios, edge faults on edge ratios after compactification, both
    with cull threshold alpha*eps. The certified flag grades H against
    the half-size target: at least n/2 nodes surviving with expansion
    at least eps*alpha of the matching kind.

    alpha defaults to the exact fault-free expansion; p follows the
    model's meaning (failure probability for nodes, survival for
    edges).
    """
    if model not in ("node", "edge"):
        raise InputError(f"unknown fault model {model!r}")
    if not 0 <= Fraction(p) <= 1:
        raise InputError("p must lie in [0,1]")
    if g.n > EXACT_EXPANSION_LIMIT:
        raise LimitError(f"exact pruning is limited to n <= {EXACT_EXPANSION_LIMIT}, got {g.n}")
    seed = seed_base + trial
    t0 = time.monotonic_ns()
    if model == "node":
        g_f = apply_faults(g, random_node_faults(g, float(p), seed))
        measure = node_expansion_exact
    else:
        g_f = apply_faults(g, edge_survival_pattern(g, float(p), seed))
        measure = edge_expansion_exact
    if alpha is None:
        alpha = measure(g).value
    trace, expansion = _prune_and_grade(g_f, model, alpha, Fraction(eps))
    gam = gamma(g_f)
    h_frac = Fraction(trace.h_size, g.n)
    certified = (
        2 * trace.h_size >= g.n
        and trace.h_size >= 2
        and expansion >= Fraction(eps) * alpha
    )
    ms = (time.monotonic_ns() - t0) // 10**6 if record_ms else 0
    return TrialResult(
        p=Fraction(p),
        trial=trial,
        gamma=gam,
        h_frac=h_frac,
        expansion=expansion,
        certified=certified,
        ms=int(ms),
    )


@dataclass(frozen=True)
class AdversaryReport:
    n: int
    alpha: Fraction
    k: int
    f: int
    eps: Fraction
    iterations: int
    size_bound: Fraction
    expansion_bound: Fraction
    worst_faults: tuple
    worst_h_size: int
    worst_expansion: Fraction

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "alpha": {"num": self.alpha.numerator, "den": self.alpha.denominator},
            "k": self.k,
            "f": self.f,
            "iterations": self.iterations,
            "size_bound_num": self.size_bound.numerator,
            "size_bound_den": self.size_bound.denominator,
            "expansion_bound_num": self.expansion_bound.numerator,
            "expansion_bound_den": self.expansion_bound.denominator,
            "worst_faults": list(self.worst_faults),
            "worst_h_size": self.worst_h_size,
            "worst_expansion_num": self.worst_expansion.numerator,
            "worst_expansion_den": self.worst_expansion.denominator,
        }


def adversary_exhaustive(
    g: Graph,
    k: int,
    f: int,
    *,
    keep_traces: bool = False,
):
    """Prune against every f-subset of faults and hold the guarantees
    to account on each one: surviving size at least n - k*f/alpha,
    surviving expansion at least (1 - 1/k)*alpha, and the telescoping
    boundary invariant on every prefix. Any violation raises
    ContractError. Returns the report and, optionally, all traces."""
    k = int(k)
    f = int(f)
    if k < 2:
        raise InputError("k must be at least 2")
    if f < 0:
        raise InputError("f must be nonnegative")
    if g.n < 2:
        raise InputError("adversary needs at least 2 nodes")
    if g.n > EXACT_EXPANSION_LIMIT:
        raise LimitError(f"adversary is limited to n <= {EXACT_EXPANSION_LIMIT}, got n={g.n}")
    alpha = node_expansion_exact(g).value
    if alpha <= 0:
        raise InputError("original graph must be connected")
    if not hypothesis_ok(g.n, alpha, k, f):
        raise InputError(
            f"k*f/alpha = {Fraction(k * f) / alpha} exceeds n/4 = {Fraction(g.n, 4)}"
        )
    if comb(g.n, f) > ADVERSARY_SUBSET_LIMIT:
        raise LimitError(
            f"{comb(g.n, f)} fault subsets exceed the budget {ADVERSARY_SUBSET_LIMIT}"
        )
    eps = 1 - Fraction(1, k)
    size_bound = size_lower_bound(g.n, alpha, k, f)
    exp_bound = expansion_lower_bound(alpha, k)
    worst = None  # (h_size, expansion, faults, trace)
    iterations = 0
    traces = []
    for faults in combinations(range(g.n), f):
        iterations += 1
        g_f = remove_nodes(g, faults)
        trace, h_exp = _prune_and_grade(g_f, "node", alpha, eps)
        if Fraction(trace.h_size) < size_bound:
            raise ContractError(
                f"faults {faults}: |H| = {trace.h_size} below bound {size_bound}"
            )
        if h_exp < exp_bound:
            raise ContractError(
                f"faults {faults}: expansion {h_exp} below bound {exp_bound}"
            )
        if not all(c["ok"] for c in union_boundary_check(g_f, trace)):
            raise ContractError(f"faults {faults}: prefix boundary invariant failed")
        if keep_traces:
            traces.append((faults, trace))
        key = (trace.h_size, h_exp, faults)
        if worst is None or key < worst[:3]:
            worst = (trace.h_size, h_exp, faults, trace)
    report = AdversaryReport(
        n=g.n,
        alpha=alpha,
        k=k,
        f=f,
        eps=eps,
        iterations=iterations,
        size_bound=size_bound,
        expansion_bound=exp_bound,
        worst_faults=worst[2],
        worst_h_size=worst[0],
        worst_expansion=worst[1],
    )
    if keep_traces:
        return report, traces
    return report


@dataclass(frozen=True)
class ChainAttackReport:
    pattern: FaultPattern
    fault_count: int
    gamma: Fraction
    largest_component: int
    component_bound: int  # max_degree * k/2 + 1

    @property
    def ok(self) -> bool:
        return self.largest_component <= self.component_bound

    def to_payload(self) -> dict:
        return {
            "fault_count": self.fault_count,
            "gamma_num": self.gamma.numerator,
            "gamma_den": self.gamma.denominator,
            "largest_component": self.largest_component,
            "component_bound": self.component_bound,
            "ok": self.ok,
        }


def chain_attack_report(h: SubdividedGraph) -> ChainAttackReport:
    """Fail one center per chain and measure the wreckage: with one
    fault per original edge every surviving component hugs one base
    node, so its size is at most max_degree * k/2 + 1."""
    degree = [0] * len(h.base_nodes)
    for u, v, _inner in h.chains:
        degree[u] += 1
        degree[v] += 1
    base_max_degree = max(degree) if degree else 0
    pattern = attack_chain_centers(h)
    g_f = apply_faults(h.graph, pattern)
    comps = connected_components(g_f) if g_f.n else []
    largest = len(comps[0]) if comps else 0
    return ChainAttackReport(
        pattern=pattern,
        fault_count=len(pattern.failed_nodes),
        gamma=gamma(g_f),
        largest_component=largest,
        component_bound=base_max_degree * (h.k // 2) + 1,
    )


@dataclass(frozen=True)
class CensusReport:
    n: int
    delta: int
    bins: tuple  # (r, count, bound, ok) per footprint size
    total: int

    @property
    def ok(self) -> bool:
        return all(b[3] for b in self.bins)

    def to_payload(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "bins": [
                {"r": r, "count": c, "bound": b, "ok": ok}
                for r, c, b, ok in self.bins
            ],
            "total": self.total,
            "ok": self.ok,
        }


def verify_subgraph_count_bound(target, r_max: int | None = None) -> CensusReport:
    """Census of connected subgraph footprints against the bound
    n * delta^(2r), where r is the number of base nodes touched.

    target is a subdivided graph or the base graph itself. A connected
    subgraph of a subdivision traces a connected set on the base nodes,
    so bin r counts the connected induced base subgraphs with r nodes;
    that is what the bound controls. The r=0 bin (pieces inside a
    single chain) is out of scope by definition.
    """
    base = target.base_graph() if isinstance(target, SubdividedGraph) else target
    if base.n < 1:
        raise InputError("census needs a nonempty graph")
    if base.max_degree < 1:
        raise InputError("census needs at least one edge")
    if r_max is not None and r_max < 1:
        raise InputError("r_max must be at least 1")
    adj = kernels.adjacency_masks(base.adjacency)
    masks = kernels.connected_masks(base.n, adj, CENSUS_COUNT_CAP)
    if masks is None:
        raise LimitError(f"more than {CENSUS_COUNT_CAP} connected subgraphs")
    counts: dict = {}
    for m in masks:
        r = m.bit_count()
        counts[r] = counts.get(r, 0) + 1
    bins = []
    total = 0
    for r in sorted(counts):
        if r_max is not None and r > r_max:
            continue
        bound = base.n * base.max_degree ** (2 * r)
        bins.append((r, counts[r], bound, counts[r] <= bound))
        total += counts[r]
    return CensusReport(
        n=base.n, delta=base.max_degree, bins=tuple(bins), total=total
    )
