"""Reference process that scales CLI invocation times to one host speed.

    python3 perfbench/calib.py

imports numpy, runs a fixed pure-Python loop and exits. It touches
nothing of xpand.

A CLI invocation is mostly interpreter start and imports, and on the
2-vCPU VM the benchmark was tuned on the host's speed at that work
drifted by a quarter within minutes, with no steal time reported, and
apart from its compute speed: `import numpy` went from 240 ms to 150 ms
while a pure-Python loop kept its speed. So the `cli` workload times
this process before every few invocations and after the last, and
reports each invocation as

    seconds * PROCESS_S / median(the run's reference samples)

that is, in seconds of a host on which the reference process takes
PROCESS_S. A change to xpand moves the invocation and not the
reference, so it shows in full; a change of host speed moves both.
"""

from __future__ import annotations

import statistics
import sys

PROCESS_S = 0.25  # near the reference process's time on the tuning VM


def argv() -> list:
    """argv of the reference process."""
    return [sys.executable, __file__]


def factor(samples) -> float:
    """What measured seconds are multiplied by to give reference seconds."""
    return PROCESS_S / statistics.median(samples)


def loop() -> int:
    """Interpreter-bound integer work like the bitmask kernels' inner loops."""
    acc = 0
    for m in range(1, 120_000):
        acc ^= (m * 2654435761) & 0xFFFF
        acc += (m & -m).bit_length()
    return acc


if __name__ == "__main__":
    import numpy  # noqa: F401  most of a CLI invocation's start

    loop()
