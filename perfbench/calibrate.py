"""Host-speed calibration, run in a process of its own.

The machine the benchmark is recorded on slows all work by up to ~1.8x in
phases lasting seconds to minutes.  To take that out of the figures, the
benchmark times a fixed calibration kernel next to every operation and
divides the operation's time by how much slower than its reference the
kernel ran (``measure.normalised``).

The kernel is interpreter work — dict, list and tuple churn and sorting —
that shares no code with the program.  It runs in this separate process, so
it shares no memory with the program either: neither a change to the
program's code nor to its heap or cache footprint can move it.  Each run
starts from a flushed core cache (a 4 MiB buffer, larger than the 2 MiB
per-core L2 of the recording machine, is read first, untimed).

Of the kernels tried on the recording machine (small-array numpy calls, JSON
round trips, a hot-cache run of this one) this one tracked the solver's
slowdown best: dividing 10 s means of identical d=3 and d=4 solves by it,
over 3 minutes of phases 1.6x apart, cut their spread (interquartile range
over median) from 0.15–0.18 to ~0.08.

Run as ``python calibrate.py``, it answers every line on standard input with
the seconds one calibration took; :class:`Calibrator` is the client.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from typing import Dict, List, Tuple

#: Kernel runs per calibration.
REPEATS = 2
FLUSH_BYTES = 4 << 20


def kernel(items: List[Tuple[int, float]]) -> int:
    """The calibration kernel: group, then sort groups and their contents."""
    groups: Dict[int, list] = {}
    for key, value in items:
        groups.setdefault(key, []).append((value, key))
    return len(sorted((sorted(group) for group in groups.values()), key=len))


def serve() -> int:
    """Answer each input line with the seconds ``REPEATS`` kernel runs took."""
    items = [(int(x * 1000) % 97, x) for x in (random.Random(0).random() for _ in range(3000))]
    flush = bytearray(FLUSH_BYTES)
    for _line in sys.stdin:
        seconds = 0.0
        for _ in range(REPEATS):
            flush.count(1)
            started = time.perf_counter()
            kernel(items)
            seconds += time.perf_counter() - started
        sys.stdout.write(f"{seconds!r}\n")
        sys.stdout.flush()
    return 0


class Calibrator:
    """A calibration process; :meth:`measure` runs one calibration in it.

    The caller waits for the answer, so the calibration never runs at the
    same time as the work it calibrates.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )

    def measure(self) -> float:
        """Seconds one calibration takes now."""
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process exited ({self.proc.wait()})")
        return float(line)

    def close(self) -> None:
        """Stop the process and wait for it."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


if __name__ == "__main__":
    sys.exit(serve())
