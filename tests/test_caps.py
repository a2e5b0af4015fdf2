"""Size caps: every capped entry point refuses an oversized input before
it allocates the tables or masks the cap protects, and README's Limits
table names each cap constant with its value."""

import ast
import importlib
import pathlib
import re
import tracemalloc
from fractions import Fraction

import pytest

import xpand
from xpand import experiments, kernels, span
from xpand.errors import InputError, LimitError
from xpand.expansion import node_expansion_exact
from xpand.experiments import verify_subgraph_count_bound
from xpand.generators import complete, cycle, mesh, path
from xpand.graph import NODE_LIMIT, Graph
from xpand.pruning import prune

SRC = pathlib.Path(xpand.__file__).parent
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# one past the exact engine's cap of 24 nodes, and one past 10^6 draws
N = 25
DRAWS = 10**6 + 1

PAST_EXACT_CAP = {
    "min_ratio_node_cut": lambda: kernels.min_ratio_node_cut(N, [0] * N),
    "min_ratio_edge_cut": lambda: kernels.min_ratio_edge_cut(N, [0] * N),
    "connectivity_table": lambda: kernels.connectivity_table(N, [0] * N),
    "node_expansion_exact": lambda: node_expansion_exact(complete(N)),
    "prune": lambda: prune(complete(N), 1, Fraction(1, 2)),
    "span_exact": lambda: span.span_exact(mesh((5, 5))),
    "exhaustive_certificate": lambda: span.verify_mesh_span_certificate((5, 5)),
    "census": lambda: verify_subgraph_count_bound(path(N)),
}

LONG_PATH = path(1 << 14)  # built once, before any tracemalloc run

PAST_MASK_CAP = {
    "census": lambda: verify_subgraph_count_bound(LONG_PATH),
    "steiner_tree_min": lambda: span.steiner_tree_min(LONG_PATH, (0, 1)),
    "span_sampled": lambda: span.span_sampled(LONG_PATH, 1, 0),
}


def _peak_of_refusal(call, error) -> int:
    tracemalloc.start()
    try:
        with pytest.raises(error):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(PAST_EXACT_CAP))
def test_exact_entry_points_refuse_25_nodes(name):
    with pytest.raises(LimitError, match=f"n <= 24, got n={N}$"):
        PAST_EXACT_CAP[name]()


@pytest.mark.parametrize("name", sorted(PAST_MASK_CAP))
def test_whole_graph_masks_are_refused_before_they_are_built(name):
    # 2^14 neighbour masks of a path hold about 16 MiB
    assert _peak_of_refusal(PAST_MASK_CAP[name], LimitError) < 4 * 2**20


def test_graph_from_edges_refuses_past_the_node_cap_before_its_rows():
    # 2^20 + 1 empty neighbour lists would hold about 72 MiB
    peak = _peak_of_refusal(lambda: Graph.from_edges(NODE_LIMIT + 1, []), LimitError)
    assert peak < 2**20


def test_sampled_draws_are_refused_before_the_first(monkeypatch):
    def no_draw(seed):
        raise AssertionError("a draw was made")

    def no_mesh(dims):
        raise AssertionError(f"mesh {dims} was built")

    monkeypatch.setattr(span, "make_rng", no_draw)
    monkeypatch.setattr(span, "mesh", no_mesh)
    for call in (
        lambda: span.span_sampled(cycle(8), DRAWS, 0),
        lambda: span.verify_mesh_span_certificate((3, 3), exhaustive=False, samples=DRAWS),
        lambda: experiments.run_percolation_sweep(cycle(8), "node", [Fraction(1, 2)], DRAWS, 0),
    ):
        with pytest.raises(InputError, match=r"must lie in \[1, 1000000\]$"):
            call()


def test_a_percolation_sweep_past_the_draw_cap_is_refused_before_the_first(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(experiments, "random_node_faults", no_draw)
    monkeypatch.setattr(experiments, "edge_survival_pattern", no_draw)
    ps = [Fraction(1, 4), Fraction(1, 2)]
    # each point's 500,001 trials are within the cap, the sweep's are not
    with pytest.raises(InputError, match=r"at most 1000000 trials, got 2 x 500001$"):
        experiments.run_percolation_sweep(cycle(8), "node", ps, (DRAWS + 1) // 2, 0)


def _limits_table() -> list:
    """(cap, constant) per row of README's Limits table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and len(cells) == 3 and cells[2].startswith("`"):
            rows.append((cells[1], cells[2].strip("`")))
    return rows


def _cap_value(cap: str) -> int:
    m = re.fullmatch(r"(?:n <= )?(\d+)(?:\^(\d+))?", cap)
    assert m, f"unreadable cap {cap!r}"
    return int(m[1]) ** int(m[2] or 1)


def test_limits_table_names_each_constant_with_its_value():
    rows = _limits_table()
    names = [name for _cap, name in rows]
    assert len(rows) >= 10 and len(set(names)) == len(names)
    for cap, name in rows:
        module, attr = name.split(".")
        assert getattr(importlib.import_module(f"xpand.{module}"), attr) == _cap_value(cap), name


def test_limits_table_lists_every_cap_constant():
    listed = {name for _cap, name in _limits_table()}
    for path_ in sorted(SRC.glob("*.py")):
        for node in ast.parse(path_.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                for name in names:
                    if "LIMIT" in name or "MAX" in name:
                        assert f"{path_.stem}.{name}" in listed


def _library_bullets() -> list:
    """(module, text) per `xpand.<module>` bullet of README's Library section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `xpand\.(\w+)`:(.*?)(?=^\S|\Z)", section, re.M | re.S)


def test_library_section_names_only_what_exists():
    # every bare backticked name, `name`, `name()` or `Class.attr`,
    # resolves in the module its bullet names, so a deleted function
    # cannot stay documented
    bullets = _library_bullets()
    assert len(bullets) >= 7
    for module, body in bullets:
        for name in re.findall(r"`([A-Za-z_][\w.]*)(?:\(\))?`", body):
            target = importlib.import_module(f"xpand.{module}")
            for part in name.split("."):
                assert hasattr(target, part), f"xpand.{module} has no {name}"
                target = getattr(target, part)
