"""How an operation's output is identified and checked.

Each operation has a key naming its exact input and a digest of its
canonical payload. Manifests, which carry `wall_ms`, are not digested,
and the CSV `ms` column reads 0 since no command passes --record-ms.
`expected.json` maps keys to the digests recorded with `record.py`; a
key missing there is checked against its first appearance in the same
run instead.
"""

from __future__ import annotations

import hashlib
import json
import os

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_bytes(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_output(pass_dir: str, argv) -> tuple:
    """(key, digest, error) of one finished CLI command, read from the
    manifest it wrote next to its -o file. The key is the command's argv
    with the digests of the files it read, as the manifest recorded them."""
    out = argv[argv.index("-o") + 1]
    with open(os.path.join(pass_dir, out + ".manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    files = {
        path: sha256_bytes(os.path.join(pass_dir, path)) for path in manifest["outputs"]
    }
    error = None
    if files != manifest["outputs"]:
        error = "manifest output digests differ from the files"
    key = sha256(canonical(["cli", list(argv), manifest["inputs"]]))
    return key, sha256(canonical(files)), error


def load_expected() -> dict:
    """{"seeds": [...], "digests": {key: digest}} as record.py wrote it."""
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Compares each digest with the recorded one. For a seed that was
    recorded, an operation without a recorded digest fails too, since
    its input changed; for other seeds it is compared with the first
    digest this run produced for the same key."""

    def __init__(self, expected: dict, seed: int):
        self.digests = expected["digests"]
        self.recorded_seed = seed in expected["seeds"]
        self.first: dict = {}
        self.against_recorded = 0
        self.against_first = 0

    def error(self, key: str, digest: str):
        """None when the digest is right, else what is wrong."""
        want = self.digests.get(key)
        if want is not None:
            self.against_recorded += 1
            return None if digest == want else "digest differs from the recorded one"
        if self.recorded_seed:
            return "no digest recorded for this input, although its seed was recorded"
        self.against_first += 1
        if digest != self.first.setdefault(key, digest):
            return "digest differs from this run's first pass"
        return None
