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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import kernels
from .errors import ContractError, InputError
from .expansion import edge_expansion_exact, node_expansion_exact
from .faults import (
    MAX_DRAWS,
    FaultPattern,
    apply_faults,
    attack_chain_centers,
    check_draws,
    edge_survival_pattern,
    random_node_faults,
)
from .generators import SubdividedGraph
from .graph import Graph, connected_components
from .pruning import (
    expansion_lower_bound,
    hypothesis_ok,
    prune,
    prune2,
    size_lower_bound,
)

# the columns of a percolation row, in CSV order
COLUMNS = ("p", "trial", "gamma", "h_frac", "expansion_num", "expansion_den", "certified", "ms")


def gamma(g: Graph, nodes=None) -> Fraction:
    """Largest-component fraction of g, or of its subgraph induced by
    nodes; 0 when there are no nodes."""
    comps = connected_components(g, nodes)
    if not comps:
        return Fraction(0)
    return Fraction(len(comps[0]), sum(map(len, comps)))


@dataclass(frozen=True)
class TrialResult:
    p: Fraction
    trial: int
    gamma: Fraction
    h_frac: Fraction
    expansion: Fraction
    certified: bool

    def fields(self) -> tuple:
        """The row's values in COLUMNS order, as JSON values; the ms
        column is kept for file compatibility and always reads 0."""
        return (
            float(self.p),
            self.trial,
            float(self.gamma),
            float(self.h_frac),
            self.expansion.numerator,
            self.expansion.denominator,
            self.certified,
            0,
        )


@dataclass(frozen=True)
class PointSummary:
    p: Fraction
    trials: int
    mean_gamma: Fraction
    mean_h_frac: Fraction
    certified_count: int


def rows_to_csv(rows) -> str:
    """A header line, then one line per row; a cell is the JSON of its
    value, so floats print by repr and booleans as true/false."""
    lines = [",".join(COLUMNS)]
    lines += [",".join(json.dumps(v) for v in r.fields()) for r in rows]
    return "\n".join(lines) + "\n"


def rows_to_jsonl(rows) -> str:
    """One canonical JSON object per line, same fields as the CSV."""
    lines = [
        json.dumps(dict(zip(COLUMNS, r.fields())), sort_keys=True, separators=(",", ":"))
        for r in rows
    ]
    return "\n".join(lines) + "\n"


def _trial(g: Graph, model: str, p, trial: int, seed: int, grade):
    """One random-fault trial: draw the model's pattern from seed, apply
    it and measure gamma. With grade = (alpha, eps, size_ok), also prune
    in the model's mode with cull threshold alpha*eps and certify H: at
    least 2 nodes, expansion at least eps*alpha, and size_ok(|H|, fault
    count) true. Without it the certificate columns stay 0, 0, False."""
    draw = random_node_faults if model == "node" else edge_survival_pattern
    pattern = draw(g, float(p), seed)
    g_f, nodes = apply_faults(g, pattern)
    h_frac, expansion, certified = Fraction(0), Fraction(0), False
    if grade is not None:
        alpha, eps, size_ok = grade
        trace = (prune if model == "node" else prune2)(g_f, alpha, eps, nodes=nodes)
        expansion = trace.h_expansion
        h_frac = Fraction(trace.h_size, g.n)
        certified = (
            trace.h_size >= 2
            and expansion >= eps * alpha
            and size_ok(trace.h_size, pattern.fault_count(g))
        )
    return TrialResult(
        p=p,
        trial=trial,
        gamma=gamma(g_f, nodes),
        h_frac=h_frac,
        expansion=expansion,
        certified=certified,
    )


def run_percolation_sweep(
    g: Graph,
    model: str,
    ps,
    trials: int,
    seed_base: int,
    *,
    prune_k: int | None = None,
):
    """Sweep fault probabilities; returns (rows, per-point summaries).

    Trial j of point i is drawn from seed seed_base + i * 10**6 + j.
    Every input is checked before the first sweep or draw: the model,
    each p in [0, 1], trials, the sweep's draw budget of
    faults.MAX_DRAWS trials over all points and, with prune_k, the node
    model, k >= 2 and the exact engine's cap. With prune_k = k, the
    exact alpha of g is measured once, each faulty graph is pruned with
    eps = 1 - 1/k, and H is certified against the adversarial guarantee
    for the trial's fault count f: k*f/alpha <= n/4,
    |H| >= n - k*f/alpha and expansion at least (1 - 1/k)*alpha.
    """
    if model not in ("node", "edge"):
        raise InputError(f"unknown percolation model {model!r}")
    ps = [Fraction(p) for p in ps]
    if not all(0 <= p <= 1 for p in ps):
        raise InputError("p must lie in [0,1]")
    check_draws(trials, "trials")
    if len(ps) * trials > MAX_DRAWS:
        raise InputError(f"a sweep takes at most {MAX_DRAWS} trials, got {len(ps)} x {trials}")
    grade = None
    if prune_k is not None:
        if model != "node":
            raise InputError("pruning is defined for the node fault model only")
        if prune_k < 2:
            raise InputError("k must be at least 2")
        kernels.exact_limit(g.n)
        alpha = node_expansion_exact(g).value
        grade = (
            alpha,
            1 - Fraction(1, prune_k),
            lambda h_size, f: hypothesis_ok(g.n, alpha, prune_k, f)
            and h_size >= size_lower_bound(g.n, alpha, prune_k, f),
        )
    rows = []
    points = []
    for i, p in enumerate(ps):
        seed0 = seed_base + i * 10**6
        batch = [_trial(g, model, p, j, seed0 + j, grade) for j in range(int(trials))]
        rows.extend(batch)
        points.append(
            PointSummary(
                p=p,
                trials=len(batch),
                mean_gamma=sum((r.gamma for r in batch), Fraction(0)) / len(batch),
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
) -> TrialResult:
    """One fault-and-prune round. Node faults are pruned on node
    ratios, edge faults on edge ratios after compactification, both
    with cull threshold alpha*eps, where alpha is the exact fault-free
    expansion of g of the model's kind. The certified flag grades H
    against the half-size target: at least n/2 nodes surviving with
    expansion at least eps*alpha. p follows the model's meaning
    (failure probability for nodes, survival for edges).
    """
    if model not in ("node", "edge"):
        raise InputError(f"unknown fault model {model!r}")
    if not 0 <= Fraction(p) <= 1:
        raise InputError("p must lie in [0,1]")
    kernels.exact_limit(g.n)
    alpha = (node_expansion_exact if model == "node" else edge_expansion_exact)(g).value
    grade = (alpha, Fraction(eps), lambda h_size, _f: 2 * h_size >= g.n)
    return _trial(g, model, Fraction(p), trial, seed_base + trial, grade)


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
    boundary invariant on every prefix, which prune itself enforces on
    V - F. Any violation raises ContractError. Returns the report and,
    optionally, all traces. hypothesis_ok admits at most C(24, 3) = 2024
    fault sets."""
    k = int(k)
    f = int(f)
    if k < 2:
        raise InputError("k must be at least 2")
    if f < 0:
        raise InputError("f must be nonnegative")
    if g.n < 2:
        raise InputError("adversary needs at least 2 nodes")
    alpha = node_expansion_exact(g).value
    if alpha <= 0:
        raise InputError("original graph must be connected")
    if not hypothesis_ok(g.n, alpha, k, f):
        raise InputError(
            f"k*f/alpha = {Fraction(k * f) / alpha} exceeds n/4 = {Fraction(g.n, 4)}"
        )
    eps = 1 - Fraction(1, k)
    size_bound = size_lower_bound(g.n, alpha, k, f)
    exp_bound = expansion_lower_bound(alpha, k)
    worst = None  # (h_size, expansion, faults)
    iterations = 0
    traces = []
    for faults in combinations(range(g.n), f):
        iterations += 1
        # G - F is pruned as g's nodes outside F, with no graph built
        nodes = set(range(g.n)).difference(faults)
        trace = prune(g, alpha, eps, nodes=nodes)
        h_exp = trace.h_expansion
        if Fraction(trace.h_size) < size_bound:
            raise ContractError(
                f"faults {faults}: |H| = {trace.h_size} below bound {size_bound}"
            )
        if h_exp < exp_bound:
            raise ContractError(
                f"faults {faults}: expansion {h_exp} below bound {exp_bound}"
            )
        if keep_traces:
            traces.append((faults, trace))
        key = (trace.h_size, h_exp, faults)
        if worst is None or key < worst:
            worst = key
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
    g_f, nodes = apply_faults(h.graph, pattern)
    comps = connected_components(g_f, nodes)
    largest = len(comps[0]) if comps else 0
    return ChainAttackReport(
        pattern=pattern,
        fault_count=pattern.fault_count(h.graph),
        gamma=gamma(g_f, nodes),
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
    single chain) is out of scope by definition. The bins count the
    base's connectivity table by popcount, so the table's cap of 24
    base nodes applies (LimitError before anything is allocated).
    """
    base = target.base_graph() if isinstance(target, SubdividedGraph) else target
    if base.n < 1:
        raise InputError("census needs a nonempty graph")
    if base.max_degree < 1:
        raise InputError("census needs at least one edge")
    if r_max is not None and r_max < 1:
        raise InputError("r_max must be at least 1")
    kernels.exact_limit(base.n)
    adj = kernels.adjacency_masks(base.adjacency)
    counts = kernels.connected_counts(kernels.connectivity_table(base.n, adj))
    bins = []
    total = 0
    for r, count in enumerate(counts):
        if not count or (r_max is not None and r > r_max):
            continue
        bound = base.n * base.max_degree ** (2 * r)
        bins.append((r, count, bound, count <= bound))
        total += count
    return CensusReport(
        n=base.n, delta=base.max_degree, bins=tuple(bins), total=total
    )
