"""Run manifests: every file-producing run records its working
directory, argv, resolved parameters, input digests and output digests
as canonical JSON, so any result can be replayed and checked byte for
byte."""

from __future__ import annotations

import hashlib
import json

from .errors import InputError

MANIFEST_SUFFIX = ".manifest.json"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_manifest(
    *,
    version: str,
    cwd: str,
    argv: list,
    params: dict,
    inputs: dict,
    outputs: dict,
    wall_ms: int,
) -> dict:
    return {
        "tool": "xpand",
        "version": version,
        "cwd": cwd,
        "argv": list(argv),
        "params": params,
        "inputs": dict(inputs),
        "outputs": dict(outputs),
        "wall_ms": wall_ms,
    }


def load_manifest(path) -> dict:
    """Read a manifest: a JSON object whose argv is a list of strings,
    whose inputs and outputs are objects and whose cwd, when present,
    is a string."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"cannot read manifest {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"manifest {path} is not a JSON object")
    for key in ("tool", "argv", "inputs", "outputs"):
        if key not in data:
            raise InputError(f"manifest {path} lacks key {key!r}")
    if data["tool"] != "xpand":
        raise InputError(f"manifest {path} was not written by this tool")
    argv = data["argv"]
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise InputError(f"manifest {path}: argv must be a list of strings")
    for key in ("inputs", "outputs"):
        if not isinstance(data[key], dict):
            raise InputError(f"manifest {path}: {key} must be an object")
    if not isinstance(data.get("cwd", ""), str):
        raise InputError(f"manifest {path}: cwd must be a string")
    return data
