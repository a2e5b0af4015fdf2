"""The digest gate: the benchmark's recorded outputs, checked by the
test suite.

For two recorded seeds, every `adversary` and `structure` job of
`perfbench/workloads.py` runs in process through its own check, and the
`cli` session runs in process through `xpand.cli.main` in a temporary
directory, as `perfbench/record.py` records it, and then replays each
manifest. Every digest must equal the one in `perfbench/expected.json`,
so a change to any benchmark payload fails here and not only in a
benchmark run. `perfbench/` is only read: its modules are imported
without caching their bytecode there.
"""

import sys
from pathlib import Path

import pytest

from xpand import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (7, 58)

sys.path.insert(0, str(PERFBENCH))
_dont_write = sys.dont_write_bytecode
sys.dont_write_bytecode = True
try:
    import digests
    import workloads
finally:
    sys.dont_write_bytecode = _dont_write


@pytest.fixture(scope="module")
def recorded():
    expected = digests.load_expected()
    assert set(SEEDS) <= set(expected["seeds"])
    return expected["digests"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", ["adversary", "structure"])
def test_in_process_jobs_match_their_recorded_digests(workload, seed, recorded):
    jobs, _info = workloads.SETUP[workload](seed)
    got = {job.label: digests.sha256(digests.canonical(job.check(job.run()))) for job in jobs}
    assert got == {job.label: recorded.get(job.key) for job in jobs}


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_session_matches_its_recorded_digests_and_replays(
    seed, recorded, tmp_path, monkeypatch
):
    session, _info = workloads.cli_setup(seed)
    for fname, text in session["files"].items():
        (tmp_path / fname).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    got, want = {}, {}
    for argv in session["commands"]:
        assert cli.main(list(argv)) == 0, argv
        key, digest, error = digests.cli_output(str(tmp_path), argv)
        assert error is None, argv
        got[" ".join(argv)] = digest
        want[" ".join(argv)] = recorded.get(key)
    assert got == want
    # a replay exits 0 only when it reproduced every output byte for byte
    for argv in session["commands"]:
        manifest = argv[argv.index("-o") + 1] + ".manifest.json"
        assert cli.main(["--replay", manifest]) == 0, manifest
