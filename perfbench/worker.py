"""Child process of the benchmark: sets up one workload from its seed
and, for the in-process workloads, runs its passes.

    python3 perfbench/worker.py --workload W --seed S --mode MODE
        --spawned-at T --out FILE [--seconds N]

MODE is `setup` (make the inputs and stop), `run` (a discarded warm-up
pass, then timed passes) or `trace` (warm-up, one untraced pass, then
traced passes). The warm-up pass runs the first job of each kind. T is
the parent's CLOCK_MONOTONIC reading just before it spawned this
process, so set-up time covers interpreter start, `import xpand` and
input generation. The result goes to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from digests import canonical, sha256


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(jobs, tracer=None):
    """Run every job once; returns (pass seconds, op records). Checks and
    digests are computed after the timed, possibly traced, region."""
    results = []
    t_pass = now()
    if tracer is not None:
        tracer.reset()
        tracer.enabled = True
    try:
        for job in jobs:
            t0 = now()
            try:
                results.append((job.run(), None, now() - t0))
            except Exception as exc:  # a failed operation is counted, not fatal
                results.append((None, f"{type(exc).__name__}: {exc}", now() - t0))
    finally:
        if tracer is not None:
            tracer.enabled = False
    wall = now() - t_pass
    ops = []
    for job, (result, error, seconds) in zip(jobs, results):
        digest = None
        if error is None:
            try:
                digest = sha256(canonical(job.check(result)))
            except Exception as exc:  # includes CheckFailed
                error = f"{type(exc).__name__}: {exc}"
        ops.append(
            {
                "label": job.label,
                "key": job.key,
                "seconds": seconds,
                "digest": digest,
                "error": error,
            }
        )
    return wall, ops


def first_of_each_kind(items, kind):
    """The first item of each kind, in order: a warm-up that runs every
    code path of a pass once, so bytecode caches and the interpreter's
    specializations are warm, without the cost of a whole pass."""
    seen = set()
    return [x for x in items if not (kind(x) in seen or seen.add(kind(x)))]


def fill(seconds: float, run_one) -> list:
    """Call run_one() for passes until the next one would probably end
    more than a tenth past `seconds`; at least one. Returns their records."""
    records = []
    t0 = now()
    while True:
        records.append(run_one())
        elapsed = now() - t0
        if elapsed * (len(records) + 1) / len(records) > 1.1 * seconds:
            return records


def run_passes(jobs, mode: str, seconds: float) -> dict:
    def record(kind, tracer=None):
        wall, ops = run_pass(jobs, tracer)
        rec = {"kind": kind, "wall_s": wall, "ops": ops}
        if tracer is not None:
            rec["trace"] = tracer.snapshot()
        return rec

    warm_s, warm_ops = run_pass(first_of_each_kind(jobs, lambda job: job.label.split()[0]))
    if mode == "trace":
        import tracing

        passes = [record("untraced")]
        tracer = tracing.Tracer()
        tracing.install(tracer)
        passes += fill(seconds, lambda: record("traced", tracer))
    else:
        passes = fill(seconds, lambda: record("timed"))
    return {"warmup": {"wall_s": warm_s, "ops": warm_ops}, "passes": passes}


def environment() -> dict:
    import numpy

    from xpand import __version__, kernels

    return {
        "xpand": __version__,
        "backend": kernels.BACKEND,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["adversary", "structure", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import workloads  # imports xpand

    made, info = workloads.SETUP[args.workload](args.seed)
    setup_s = now() - args.spawned_at
    out = {"setup_s": setup_s, "inputs": info, "env": environment()}
    if args.workload == "cli":
        out["session"] = made  # the parent runs the session
    elif args.mode != "setup":
        out.update(run_passes(made, args.mode, args.seconds))
    tmp = args.out + ".part"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
