"""Record the expected output digests of every workload for a range of
seeds into expected.json, which run.py checks each operation against.

    PYTHONPATH=src python3 perfbench/record.py --seeds 0-99

Run from the root of the checkout whose outputs are the reference.
Digests already in the file are kept; a freshly computed digest that
disagrees with a kept one is reported and the file is left unchanged.
CLI commands run in-process through `xpand.cli.main`, which writes the
same files and manifests as `python -m xpand`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import workloads
from digests import EXPECTED, canonical, cli_output, load_expected, sha256
from xpand import cli


def record_inprocess(name: str, seed: int, table: dict) -> None:
    jobs, _info = workloads.SETUP[name](seed)
    for job in jobs:
        if job.key in table:
            continue
        table[job.key] = sha256(canonical(job.check(job.run())))


def record_cli(seed: int, table: dict, conflicts: list, work: str) -> None:
    session, _info = workloads.cli_setup(seed)
    pass_dir = tempfile.mkdtemp(dir=work)
    cwd = os.getcwd()
    try:
        for fname, text in session["files"].items():
            with open(os.path.join(pass_dir, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(pass_dir)
        for argv in session["commands"]:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(list(argv))
            if rc != 0:
                raise RuntimeError(f"seed {seed}: {' '.join(argv)} exited {rc}")
            key, digest, error = cli_output(pass_dir, argv)
            if error is not None:
                raise RuntimeError(f"seed {seed}: {' '.join(argv)}: {error}")
            if table.setdefault(key, digest) != digest:
                conflicts.append(f"seed {seed}: {' '.join(argv)}")
    finally:
        os.chdir(cwd)
        shutil.rmtree(pass_dir)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", required=True, help="FIRST-LAST, inclusive")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    expected = load_expected()
    table = expected["digests"]
    conflicts: list = []
    base = os.path.join(os.getcwd(), ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(dir=base)
    try:
        for seed in range(first, last + 1):
            for name in ("adversary", "structure"):
                record_inprocess(name, seed, table)
            record_cli(seed, table, conflicts, work)
            print(f"seed {seed}: {len(table)} digests", flush=True)
    finally:
        shutil.rmtree(work)
    if conflicts:
        print("digests changed:\n" + "\n".join(conflicts), file=sys.stderr)
        return 1
    expected["seeds"] = sorted(set(expected["seeds"]) | set(range(first, last + 1)))
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
