"""Shared test plumbing: the acceptance-criteria scoreboard printed at
the end of the run, one line per criterion, and the environment for
child Python processes."""

import os

import xpand

_RESULTS: dict = {}


def record_criterion(num: int, desc: str, passed: bool, detail: str = "") -> None:
    _RESULTS[num] = (desc, passed, detail)


class criterion:
    """Context manager for acceptance tests: records PASS on clean exit,
    FAIL with the error on any exception, then lets pytest see it."""

    def __init__(self, num: int, desc: str):
        self.num = num
        self.desc = desc
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            record_criterion(self.num, self.desc, True, self.detail)
        else:
            record_criterion(self.num, self.desc, False, f"{exc_type.__name__}: {exc}")
        return False


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        desc, passed, detail = _RESULTS[num]
        tag = "PASS" if passed else "FAIL"
        line = f"criterion {num:>2}: {tag}  {desc}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


def subprocess_env() -> dict:
    """os.environ with PYTHONPATH leading to the xpand under test, so
    child processes import it whether or not it is installed."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(xpand.__file__)))
    rest = os.environ.get("PYTHONPATH")
    path = root + os.pathsep + rest if rest else root
    return dict(os.environ, PYTHONPATH=path)
