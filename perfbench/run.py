"""xpand benchmark: three workloads, end-to-end metrics, and a traced
run for per-layer metrics.

    python3 perfbench/run.py --workload {adversary,structure,cli}
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports `xpand` from
`src` and builds nothing. Inputs come from --seed only. Every run checks
each operation's output digest (see digests.py) and, on `cli`, that
every manifest replays. Scratch files go to a directory under
`.perfbench_work/` in the checkout, removed at exit. On `cli`, pass and
invocation times are reported in reference seconds (calib.py); the
lines before the result also give them as measured.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With --trace 0 the metrics are the end-to-end
ones, measured with tracing off; with --trace 1 they are the per-layer
ones of tracing.py plus the tracing overhead. The lines before it say
what ran: environment, seeds, passes and digest checks.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass

import calib
import tracing
from digests import Checker, cli_output, load_expected
from worker import fill, now

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("adversary", "structure", "cli")
SETUP_SAMPLES = 5  # set-ups per run; setup_s is their median
SETUPS_BEFORE = 3  # the rest follow the timed passes, so the samples span the run
RUN_LIMIT_S = 170  # every child is killed when the run gets this old
REPLAY_OK = "replay reproduced every output byte for byte"
REF_EVERY = 4  # CLI invocations between two reference processes

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
    "invoke_p50_ms": "ms",
    "invoke_p75_ms": "ms",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) of values lie at or above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Child:
    rc: int
    seconds: float
    maxrss_mib: float
    stdout: str
    stderr: str


class Context:
    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.deadline = now() + RUN_LIMIT_S
        env = dict(os.environ)
        env.pop("XPAND_THREADS", None)  # the cli session passes --threads 1
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env["TMPDIR"] = work
        self.env = env

    def run(self, argv, *, cwd=None, env=None) -> Child:
        """Run one child to completion; its peak RSS comes from wait4."""
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            expired = threading.Event()
            t0 = now()
            proc = subprocess.Popen(
                argv,
                cwd=cwd or self.root,
                env=env or self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
            )

            def kill():
                expired.set()
                proc.kill()

            timer = threading.Timer(max(0.0, self.deadline - now()), kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            seconds = now() - t0
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
        if expired.is_set():
            raise TimeoutError(f"run limit of {RUN_LIMIT_S} s reached in {argv[1:4]}")
        return Child(proc.returncode, seconds, usage.ru_maxrss / 1024.0, stdout, stderr)

    def ref_process(self) -> float:
        """Seconds the reference process (calib.py) takes now."""
        child = self.run(calib.argv())
        if child.rc != 0:
            raise RuntimeError(f"reference process exited {child.rc}:\n{child.stderr}")
        return child.seconds

    def worker(self, workload: str, seed: int, mode: str, seconds: float):
        out = os.path.join(self.work, f"worker-{mode}.json")
        if os.path.exists(out):
            os.remove(out)
        argv = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--mode", mode,
            "--seconds", str(seconds),
            "--out", out,
            "--spawned-at", repr(now()),
        ]
        child = self.run(argv)
        if child.rc != 0:
            raise RuntimeError(f"worker ({mode}) exited {child.rc}:\n{child.stderr}")
        with open(out, encoding="utf-8") as fh:
            return child, json.load(fh)


# ------------------------------------------------------------- cli workload


def cli_pass(ctx: Context, session: dict, name: str, traced: bool, replay: bool = True):
    """One scripted session in a fresh directory: every command, then
    (with `replay`) a replay of every manifest, with a reference process
    before every REF_EVERY-th invocation and after the last. Returns the
    pass record: wall_s, ops, refs (reference process seconds), rss (peak
    MiB of its processes) and the merged trace of a traced pass. Outputs
    are checked after the timed part."""
    pass_dir = os.path.join(ctx.work, name)
    os.makedirs(pass_dir)
    for fname, text in session["files"].items():
        with open(os.path.join(pass_dir, fname), "w", encoding="utf-8") as fh:
            fh.write(text)
    env = ctx.env
    prefix = [sys.executable, "-m", "xpand"]
    trace_path = os.path.join(ctx.work, name + ".trace.jsonl")
    if traced:
        env = dict(ctx.env, PERFBENCH_TRACE_OUT=trace_path)
        prefix = [sys.executable, os.path.join(HERE, "xpand_shim.py")]
    commands = session["commands"]
    outputs = [argv[argv.index("-o") + 1] for argv in commands]
    calls = [("run", argv) for argv in commands]
    if replay:
        calls += [("replay", ["--replay", out + ".manifest.json"]) for out in outputs]

    done = []
    refs = []
    for i, (kind, argv) in enumerate(calls):
        if i % REF_EVERY == 0:
            refs.append(ctx.ref_process())
        done.append(ctx.run(prefix + argv, cwd=pass_dir, env=env))
    refs.append(ctx.ref_process())
    wall = sum(child.seconds for child in done)

    ops = []
    for (kind, argv), child in zip(calls, done):
        op = {"label": " ".join(argv), "key": None, "digest": None, "error": None}
        op["seconds"] = child.seconds
        if child.rc != 0:
            op["error"] = f"exit {child.rc}: {child.stderr.strip()[-300:]}"
        elif kind == "replay" and REPLAY_OK not in child.stdout:
            op["error"] = "replay did not reproduce the outputs"
        elif kind == "run":
            op["key"], op["digest"], op["error"] = cli_output(pass_dir, argv)
        ops.append(op)
    trace = None
    if traced:
        with open(trace_path, encoding="utf-8") as fh:
            trace = tracing.merge(json.loads(line) for line in fh)
    shutil.rmtree(pass_dir)
    rss = max(child.maxrss_mib for child in done)
    return {
        "wall_s": wall,
        "ops": ops,
        "refs": refs,
        "rss": rss,
        "trace": trace,
    }


def run_cli(ctx: Context, seed: int, seconds: float, trace: bool) -> dict:
    def setup():
        _child, info = ctx.worker("cli", seed, "setup", seconds)
        return info["setup_s"], info

    first, info = setup()
    setups = [first]
    if not trace:
        setups += [setup()[0] for _ in range(SETUPS_BEFORE - 1)]
    session = info["session"]
    # the commands without their replays: the first process fills every
    # bytecode cache, and a replay re-runs its command
    warm = cli_pass(ctx, session, "warmup", False, replay=False)
    names = (f"pass{i}" for i in itertools.count())
    passes = []
    if trace:
        passes.append(dict(cli_pass(ctx, session, next(names), False), kind="untraced"))
        passes += fill(
            seconds, lambda: dict(cli_pass(ctx, session, next(names), True), kind="traced")
        )
    else:
        passes += fill(
            seconds, lambda: dict(cli_pass(ctx, session, next(names), False), kind="timed")
        )
        setups += [setup()[0] for _ in range(SETUP_SAMPLES - SETUPS_BEFORE)]
    return {
        "setups": setups,
        "info": info,
        "warmup": warm,
        "passes": passes,
        "invocation": "process",
        "rss": max((p["rss"] for p in passes if p["kind"] == "timed"), default=0.0),
    }


# ------------------------------------------------------ in-process workloads


def run_inprocess(ctx: Context, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    def setup():
        return ctx.worker(workload, seed, "setup", seconds)[1]["setup_s"]

    setups = [] if trace else [setup() for _ in range(SETUPS_BEFORE - 1)]
    child, info = ctx.worker(workload, seed, "trace" if trace else "run", seconds)
    setups.append(info["setup_s"])
    if not trace:
        setups += [setup() for _ in range(SETUP_SAMPLES - SETUPS_BEFORE)]
    return {
        "setups": setups,
        "info": info,
        "warmup": info["warmup"],
        "passes": info["passes"],
        "invocation": "pass",
        "rss": child.maxrss_mib,
    }


# ------------------------------------------------------------------ report


def summarize(res: dict, seed: int, trace: bool, lines: list):
    checker = Checker(load_expected(), seed)
    attempted = failed = 0
    failures = []
    for ops in [res["warmup"]["ops"]] + [p["ops"] for p in res["passes"]]:
        for op in ops:
            attempted += 1
            error = op["error"]
            if error is None and op["key"] is not None:
                error = checker.error(op["key"], op["digest"])
            if error is not None:
                failed += 1
                failures.append(f"{op['label']}: {error}")
    lines.append(
        f"digests: {checker.against_recorded} checked against expected.json, "
        f"{checker.against_first} against this run's first pass (seed not recorded)"
    )
    if checker.against_first:
        lines.append(
            f"warning: seed {seed} is not in expected.json; {checker.against_first} "
            "outputs were checked only against their invariants and this run's first pass"
        )
    lines.extend("FAILED " + f for f in failures[:20])

    if res["invocation"] == "process":
        # one factor per run, from every reference sample of its passes
        scale = calib.factor([r for p in res["passes"] for r in p["refs"]])
    else:
        scale = 1.0
    if trace:
        untraced = [p["wall_s"] * scale for p in res["passes"] if p["kind"] == "untraced"]
        traced = [p for p in res["passes"] if p["kind"] == "traced"]
        per_pass = [tracing.layer_metrics(p["trace"]) for p in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = statistics.median(
            p["wall_s"] * scale for p in traced
        ) - statistics.median(untraced)
        lines.append(
            f"tracing: untraced pass {statistics.median(untraced):.3f} s, traced passes "
            f"{[round(p['wall_s'] * scale, 3) for p in traced]} s (x{scale:.4f})"
        )
        out = {k: {"value": v, "unit": tracing.unit(k)} for k, v in metrics.items()}
    else:
        timed = [p for p in res["passes"] if p["kind"] == "timed"]
        times = [[op["seconds"] * scale for op in p["ops"]] for p in timed]
        if res["invocation"] == "process":
            latencies = [t * 1e3 for pass_times in times for t in pass_times]
        else:  # all in one process: a user waits for the whole pass
            latencies = [sum(pass_times) * 1e3 for pass_times in times]
        values = {
            # each operation's median over the timed passes, summed over the pass
            "wall_s": sum(statistics.median(op_times) for op_times in zip(*times)),
            "setup_s": statistics.median(res["setups"]),
            "peak_rss_mib": res["rss"],
            "ok_frac": (attempted - failed) / attempted,
            "invoke_p50_ms": percentile(latencies, 0.50),
            "invoke_p75_ms": percentile(latencies, 0.75),
        }
        lines.append(
            f"timed passes: {[round(p['wall_s'], 3) for p in timed]} s as measured, "
            f"{[round(sum(pass_times), 3) for pass_times in times]} s as reported "
            f"(x{scale:.4f}); "
            f"{len(latencies)} invocations; set-ups "
            f"{[round(s, 3) for s in res['setups']]} s as measured"
        )
        out = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }


def environment_lines(res: dict, seed: int) -> list:
    info = res["info"]
    env = info["env"]
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as fh:
            llc = fh.read().strip()
    except OSError:
        llc = "unknown"
    return [
        f"environment: xpand {env['xpand']}, backend {env['backend']}, "
        f"python {env['python']}, numpy {env['numpy']}, "
        f"nproc {len(os.sched_getaffinity(0))}, "
        f"loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}, L3 {llc}",
        f"inputs for seed {seed}: {json.dumps(info['inputs'], sort_keys=True)}",
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "xpand", "__init__.py")):
        print("error: run from the root of an xpand checkout (no src/xpand here)", file=sys.stderr)
        return 2

    base = os.path.join(root, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(dir=base)
    try:
        ctx = Context(root, work)
        trace = bool(args.trace)
        if args.workload == "cli":
            res = run_cli(ctx, args.seed, args.seconds, trace)
        else:
            res = run_inprocess(ctx, args.workload, args.seed, args.seconds, trace)
        lines = environment_lines(res, args.seed)
        lines.append(f"warm-up pass (discarded): {res['warmup']['wall_s']:.3f} s")
        result = summarize(res, args.seed, trace, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
