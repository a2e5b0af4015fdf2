"""Command line front end.

Every subcommand reads plain-text graph files, emits one primary
document (graph text, canonical JSON, or CSV), and, when writing to a
file, drops a sidecar manifest so the run can be replayed and checked
byte for byte with --replay.

Exit codes: 0 success, 1 refused or failed (size limits, contract
violations, a verification that found a counterexample), 2 bad input.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from fractions import Fraction

from . import __version__, kernels
from .errors import ContractError, InputError, LimitError, XpandError
from .expansion import (
    edge_expansion_exact,
    edge_expansion_heuristic,
    node_expansion_exact,
    node_expansion_heuristic,
    subdivided_node_expansion,
)
from .experiments import rows_to_csv, rows_to_jsonl, run_percolation_sweep
from .faults import (
    FaultPattern,
    apply_faults,
    attack_chain_centers,
    attack_greedy_cuts,
)
from .generators import (
    complete,
    cycle,
    hypercube,
    mesh,
    path,
    random_regular,
    subdivide_edges,
    subdivision_from_json,
    subdivision_to_json,
)
from .graph import Graph, dumps, loads
from .manifest import (
    MANIFEST_SUFFIX,
    build_manifest,
    canonical_json,
    load_manifest,
    sha256_file,
    sha256_text,
)
from .pruning import prune, prune2, shatter_uniform
from .span import span_exact, span_sampled, verify_mesh_span_certificate

MAX_THREADS = 64
SIDECAR_SUFFIX = ".sub.json"
STDOUT_KEY = "<stdout>"


def parse_rational(text: str) -> Fraction:
    """Rationals on the command line are num/den or a bare integer;
    decimals are rejected so every run is exactly reproducible."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(int(s))
    except (ValueError, ZeroDivisionError):
        raise InputError(
            f"expected a rational like 3/4 or an integer, got {text!r}"
        ) from None
    return value


def parse_dims(text: str) -> tuple:
    try:
        dims = tuple(int(part) for part in text.strip().split("x"))
    except ValueError:
        raise InputError(f"expected dimensions like 4x4, got {text!r}") from None
    if not dims:
        raise InputError("empty dimension list")
    return dims


def parse_p_grid(text: str) -> list:
    """A single rational, or start:stop:step with an inclusive stop."""
    parts = text.strip().split(":")
    if len(parts) == 1:
        return [parse_rational(parts[0])]
    if len(parts) != 3:
        raise InputError(f"expected P or START:STOP:STEP, got {text!r}")
    start, stop, step = (parse_rational(p) for p in parts)
    if step <= 0:
        raise InputError("p grid step must be positive")
    if stop < start:
        raise InputError("p grid stop is below its start")
    grid = []
    cur = start
    while cur <= stop:
        grid.append(cur)
        if len(grid) > 10000:
            raise InputError("p grid has more than 10000 points")
        cur += step
    return grid


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


class RunContext:
    """Tracks input and output digests for the manifest, and redirects
    writes during a replay so the original files are never touched."""

    def __init__(self, *, replaying: bool = False, redirect=None):
        self.replaying = replaying
        self.redirect = dict(redirect or {})
        self.inputs: dict = {}
        self.outputs: dict = {}
        self.threads = 1

    def load_text(self, path: str) -> str:
        # the digest covers the file's bytes, as replay checks them
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            text = data.decode("utf-8")
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc}") from None
        self.inputs[path] = hashlib.sha256(data).hexdigest()
        return text

    def load_graph(self, path: str) -> Graph:
        return loads(self.load_text(path))

    def write_output(self, path: str, text: str) -> None:
        _write_text(self.redirect.get(path, path), text)
        self.outputs[path] = sha256_text(text)

    def emit(self, text: str) -> None:
        self.outputs[STDOUT_KEY] = sha256_text(text)
        if not self.replaying:
            sys.stdout.write(text)

    def deliver(self, out_path, text: str) -> None:
        if out_path:
            self.write_output(out_path, text)
        else:
            self.emit(text)

    def info(self, message: str) -> None:
        if not self.replaying:
            print(message)


def _load_sidecar(ctx: RunContext, graph_path: str, g: Graph):
    sidecar = graph_path + SIDECAR_SUFFIX
    if not os.path.exists(sidecar):
        raise InputError(
            f"{sidecar} not found; this command needs the chain sidecar "
            f"written by gen --family subdivide"
        )
    return subdivision_from_json(ctx.load_text(sidecar), g)


def cmd_gen(args, ctx: RunContext) -> int:
    fam = args.family
    if fam == "subdivide":
        if args.base is None or args.k is None:
            raise InputError("subdivide needs --base GRAPH and --k K")
        if not args.output:
            raise InputError("subdivide writes two files; -o is required")
        base = ctx.load_graph(args.base)
        h = subdivide_edges(base, args.k)
        ctx.write_output(args.output, dumps(h.graph))
        ctx.write_output(args.output + SIDECAR_SUFFIX, subdivision_to_json(h))
        ctx.info(
            f"subdivided: {base.n} base nodes -> {h.graph.n} nodes, "
            f"k={args.k}, sidecar {args.output + SIDECAR_SUFFIX}"
        )
        return 0
    if fam == "mesh":
        if args.dims is None:
            raise InputError("mesh needs --dims, like --dims 4x4")
        g = mesh(parse_dims(args.dims))
    elif fam == "hypercube":
        if args.dim is None:
            raise InputError("hypercube needs --dim")
        g = hypercube(args.dim)
    elif fam in ("cycle", "path", "complete"):
        if args.n is None:
            raise InputError(f"{fam} needs --n")
        g = {"cycle": cycle, "path": path, "complete": complete}[fam](args.n)
    elif fam == "random-regular":
        if args.n is None or args.degree is None:
            raise InputError("random-regular needs --n and --degree")
        g = random_regular(args.n, args.degree, args.seed)
    else:  # unreachable, argparse restricts choices
        raise InputError(f"unknown family {fam!r}")
    ctx.deliver(args.output, dumps(g))
    return 0


def cmd_expansion(args, ctx: RunContext) -> int:
    g = ctx.load_graph(args.graph)
    mode = "edge" if args.edge else "node"
    if args.heuristic:
        fn = (
            node_expansion_heuristic if mode == "node" else edge_expansion_heuristic
        )
        res = fn(g, trials=args.trials, seed=args.seed)
    elif args.chain_dp:
        if mode != "node":
            raise InputError("--chain-dp computes node expansion only")
        res = subdivided_node_expansion(_load_sidecar(ctx, args.graph, g))
    else:
        fn = node_expansion_exact if mode == "node" else edge_expansion_exact
        res = fn(g)
    ctx.deliver(args.output, canonical_json(res.to_payload()))
    return 0


def cmd_span(args, ctx: RunContext) -> int:
    g = ctx.load_graph(args.graph)
    if args.sample is not None:
        if args.exact:
            raise InputError("--exact and --sample exclude each other")
        rep = span_sampled(g, args.sample, args.seed, max_size=args.max_size)
    else:
        if args.max_size is not None:
            raise InputError("--max-size needs --sample")
        rep = span_exact(g)
    ctx.deliver(args.output, canonical_json(rep.to_payload()))
    return 0


def _load_faults(ctx: RunContext, args, g: Graph):
    """Returns (faulty graph, fault count). --faults empty means none."""
    if args.faults == "empty":
        return g, 0
    pattern = FaultPattern.from_json(ctx.load_text(args.faults))
    g_f = apply_faults(g, pattern)
    if pattern.kind == "node-faults":
        count = len(pattern.failed_nodes)
    else:
        count = g.m - len(pattern.kept_edges)
    return g_f, count


def cmd_prune(args, ctx: RunContext) -> int:
    g = ctx.load_graph(args.graph)
    g_f, fault_count = _load_faults(ctx, args, g)
    edge_mode = args.command == "prune2"
    given = getattr(args, "alpha_e" if edge_mode else "alpha", None)
    flag = "--alpha-e" if edge_mode else "--alpha"
    if args.oracle == (given is not None):
        raise InputError(f"pass exactly one of {flag} NUM/DEN or --oracle")
    method = "heuristic" if args.heuristic else "exact"
    if given is not None:
        alpha = parse_rational(given)
    elif method == "heuristic":
        fn = edge_expansion_heuristic if edge_mode else node_expansion_heuristic
        alpha = fn(g).value
    else:
        oracle = edge_expansion_exact if edge_mode else node_expansion_exact
        alpha = oracle(g).value
    eps = parse_rational(args.eps)
    trace = (prune2 if edge_mode else prune)(g_f, alpha, eps, method=method)
    payload = trace.to_payload()
    payload["faults"] = fault_count
    ctx.deliver(args.output, canonical_json(payload))
    return 0


def cmd_shatter(args, ctx: RunContext) -> int:
    g = ctx.load_graph(args.graph)
    res = shatter_uniform(g, parse_rational(args.eps_frac))
    ctx.deliver(args.output, canonical_json(res.to_payload()))
    return 0


def cmd_attack(args, ctx: RunContext) -> int:
    g = ctx.load_graph(args.graph)
    if args.strategy == "chain-centers":
        pattern = attack_chain_centers(_load_sidecar(ctx, args.graph, g))
    else:
        if args.budget is None or args.budget < 1:
            raise InputError("greedy attack needs --budget of at least 1")
        pattern = attack_greedy_cuts(g, args.budget)
    ctx.deliver(args.output, pattern.to_json())
    return 0


def cmd_percolate(args, ctx: RunContext) -> int:
    g = ctx.load_graph(args.graph)
    ps = parse_p_grid(args.p_grid)
    prune_params = None
    if args.prune:
        # flags first: the exact alpha below is a full subset sweep
        if args.model != "node":
            raise InputError("pruning is defined for the node fault model only")
        if args.k < 2:
            raise InputError("--k must be at least 2")
        prune_params = (node_expansion_exact(g).value, args.k)
    rows, points = run_percolation_sweep(
        g,
        args.model,
        ps,
        args.trials,
        args.seed,
        prune_params=prune_params,
        record_ms=args.record_ms,
        threads=ctx.threads,
    )
    render = rows_to_csv if args.out_format == "csv" else rows_to_jsonl
    ctx.deliver(args.output, render(rows))
    if args.output:
        for pt in points:
            ctx.info(
                f"p={pt.p} mean_gamma={float(pt.mean_gamma):.4f} "
                f"mean_h_frac={float(pt.mean_h_frac):.4f} "
                f"certified={pt.certified_count}/{pt.trials}"
            )
    return 0


def cmd_verify_mesh_span(args, ctx: RunContext) -> int:
    dims = parse_dims(args.dims)
    if args.sample is not None:
        cert = verify_mesh_span_certificate(
            dims, exhaustive=False, samples=args.sample, seed=args.seed
        )
    else:
        cert = verify_mesh_span_certificate(dims, exhaustive=True)
    ctx.deliver(args.output, canonical_json(cert.to_payload()))
    if not cert.ok:
        ctx.info("certificate FAILED, see payload")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="xpand",
        description="fault resilience toolkit: expansion, pruning, span, "
        "percolation",
    )
    top.add_argument(
        "--replay",
        metavar="MANIFEST",
        help="re-run a recorded command and check outputs byte for byte",
    )
    top.add_argument("--version", action="version", version=f"xpand {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output", help="write the result to this file")
    common.add_argument(
        "--manifest",
        help="write the run manifest here (default: OUTPUT.manifest.json)",
    )
    common.add_argument(
        "--threads",
        type=int,
        default=None,
        help=f"worker threads where supported (default: the CPU count, capped at {MAX_THREADS})",
    )

    sub = top.add_subparsers(dest="command")

    p = sub.add_parser("gen", parents=[common], help="generate a graph file")
    p.add_argument(
        "--family",
        required=True,
        choices=[
            "mesh",
            "hypercube",
            "cycle",
            "path",
            "complete",
            "random-regular",
            "subdivide",
        ],
    )
    p.add_argument("--dims", help="mesh side lengths, like 4x4 or 3x3x3")
    p.add_argument("--dim", type=int, help="hypercube dimension")
    p.add_argument("--n", type=int, help="node count")
    p.add_argument("--degree", type=int, help="degree for random-regular")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base", help="input graph to subdivide")
    p.add_argument("--k", type=int, help="nodes inserted per edge")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "expansion", parents=[common], help="node or edge expansion of a graph"
    )
    p.add_argument("graph")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--node", action="store_true", help="node expansion (default)")
    which.add_argument("--edge", action="store_true", help="edge expansion")
    how = p.add_mutually_exclusive_group()
    how.add_argument("--exact", action="store_true", help="exact oracle (default)")
    how.add_argument("--heuristic", action="store_true", help="upper bound search")
    how.add_argument(
        "--chain-dp",
        action="store_true",
        help="exact value for subdivided graphs of any size (needs sidecar)",
    )
    p.add_argument("--trials", type=int, default=16, help="heuristic restarts")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_expansion)

    p = sub.add_parser(
        "span", parents=[common], help="span of a graph over compact sets"
    )
    p.add_argument("graph")
    p.add_argument("--exact", action="store_true", help="exhaustive (default)")
    p.add_argument("--sample", type=int, help="Monte Carlo attempts instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-size", type=int, help="cap on sampled set size")
    p.set_defaults(func=cmd_span)

    for name, blurb, flag in (
        ("prune", "node pruning against a fault pattern", "--alpha"),
        ("prune2", "edge pruning with compactification", "--alpha-e"),
    ):
        p = sub.add_parser(name, parents=[common], help=blurb)
        p.add_argument("graph")
        p.add_argument(flag, help="fault-free expansion as num/den")
        p.add_argument(
            "--oracle",
            action="store_true",
            help="compute the fault-free expansion exactly instead",
        )
        p.add_argument("--eps", required=True, help="cull threshold as num/den")
        p.add_argument(
            "--faults",
            default="empty",
            help="fault pattern JSON file, or the word empty",
        )
        p.add_argument(
            "--heuristic",
            action="store_true",
            help="heuristic cut finder for graphs over the exact limit; "
            "trace comes back uncertified",
        )
        p.set_defaults(func=cmd_prune)

    p = sub.add_parser(
        "shatter", parents=[common], help="fault set leaving only small components"
    )
    p.add_argument("graph")
    p.add_argument(
        "--eps-frac", required=True, help="component size bound as num/den of n"
    )
    p.set_defaults(func=cmd_shatter)

    p = sub.add_parser(
        "attack", parents=[common], help="construct an adversarial fault pattern"
    )
    p.add_argument("graph")
    p.add_argument(
        "--strategy", required=True, choices=["chain-centers", "greedy"]
    )
    p.add_argument("--budget", type=int, help="fault budget for greedy")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser(
        "percolate", parents=[common], help="random fault sweep, CSV output"
    )
    p.add_argument("graph")
    p.add_argument("--model", choices=["node", "edge"], default="node")
    p.add_argument(
        "--p-grid",
        required=True,
        help="P or START:STOP:STEP, rationals; node failure or edge "
        "survival probability",
    )
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--format", choices=["csv", "jsonl"], default="csv", dest="out_format"
    )
    p.add_argument(
        "--prune", action="store_true", help="prune each trial (node model)"
    )
    p.add_argument("--k", type=int, default=2, help="pruning strength parameter")
    p.add_argument(
        "--record-ms",
        action="store_true",
        help="fill the ms column (breaks replay byte identity)",
    )
    p.set_defaults(func=cmd_percolate)

    p = sub.add_parser(
        "verify-mesh-span",
        parents=[common],
        help="check the connector certificate bounding mesh span by 2",
    )
    p.add_argument("--dims", required=True)
    scope = p.add_mutually_exclusive_group()
    scope.add_argument(
        "--exhaustive", action="store_true", help="every compact set (default)"
    )
    scope.add_argument("--sample", type=int, help="random sets instead of all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_mesh_span)

    return top


def _render_param(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_render_param(v) for v in value]
    return value


def _resolve_threads(args) -> int:
    """--threads, else available parallelism."""
    threads = args.threads
    if threads is None:
        threads = min(os.cpu_count() or 1, MAX_THREADS)
    if not 1 <= threads <= MAX_THREADS:
        raise InputError(f"threads must lie in [1, {MAX_THREADS}]")
    return threads


def _execute(argv, *, replaying=False, redirect=None):
    """Parse and run one subcommand; returns (exit code, context)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.replay is not None:
        raise InputError("--replay cannot be nested or combined")
    if args.command is None:
        parser.print_usage(sys.stderr)
        raise InputError("a subcommand is required")
    ctx = RunContext(replaying=replaying, redirect=redirect)
    ctx.threads = _resolve_threads(args)
    t0 = time.monotonic_ns()
    rc = args.func(args, ctx)
    wall_ms = (time.monotonic_ns() - t0) // 10**6
    if not replaying:
        manifest_path = args.manifest
        if manifest_path is None and args.output:
            manifest_path = args.output + MANIFEST_SUFFIX
        if manifest_path:
            params = {
                key: _render_param(val)
                for key, val in vars(args).items()
                if key not in ("func", "command", "replay", "manifest")
                and val is not None
            }
            # the run's directory as seen from the manifest, for replay
            run_dir = os.path.relpath(
                os.getcwd(), os.path.dirname(os.path.abspath(manifest_path))
            )
            doc = build_manifest(
                version=__version__,
                backend=kernels.BACKEND,
                threads=ctx.threads,
                cwd=run_dir,
                argv=list(argv),
                params=params,
                inputs=ctx.inputs,
                outputs=ctx.outputs,
                wall_ms=int(wall_ms),
            )
            _write_text(manifest_path, canonical_json(doc))
    return rc, ctx


def _replay(manifest_path: str) -> int:
    data = load_manifest(manifest_path)
    # recorded paths are relative to the directory the run started in; a
    # manifest without "cwd" replays against the current one
    start = os.getcwd()
    run_dir = start
    if "cwd" in data:
        run_dir = os.path.join(os.path.dirname(manifest_path), data["cwd"])
    try:
        os.chdir(run_dir)
    except (OSError, ValueError) as exc:  # ValueError: an embedded NUL
        raise InputError(f"cannot enter recorded directory {run_dir}: {exc}") from None
    try:
        return _replay_here(data)
    finally:
        os.chdir(start)


def _replay_here(data: dict) -> int:
    for ipath, want in sorted(data["inputs"].items()):
        if not os.path.exists(ipath):
            raise InputError(f"recorded input {ipath} is missing")
        if sha256_file(ipath) != want:
            raise InputError(f"recorded input {ipath} changed; replay refused")
    redirect = {
        key: key + ".replay" for key in data["outputs"] if key != STDOUT_KEY
    }
    rc, ctx = _execute(list(data["argv"]), replaying=True, redirect=redirect)
    all_ok = True
    for key, want in sorted(data["outputs"].items()):
        got = ctx.outputs.get(key)
        ok = got == want
        all_ok = all_ok and ok
        print(f"replay {key}: {'ok' if ok else 'MISMATCH'}")
    if all_ok:
        for real in redirect.values():
            if os.path.exists(real):
                os.remove(real)
        print("replay reproduced every output byte for byte")
        return rc if rc else 0
    print("replay outputs differ; .replay files kept for inspection", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        if "--replay" in argv:
            parser = build_parser()
            args = parser.parse_args(argv)
            if args.command is not None:
                raise InputError("--replay takes no subcommand")
            return _replay(args.replay)
        rc, _ctx = _execute(list(argv))
        return rc
    except LimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"contract violated: {exc}", file=sys.stderr)
        return 1
    except XpandError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
