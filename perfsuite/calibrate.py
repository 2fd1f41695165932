"""The calibration loop, and a helper process that runs it on request.

``spin_median()`` times a fixed pure-Python loop: the benchmark's
measure of host speed.  Run as ``python3 perfsuite/calibrate.py``, this
file is the helper a 2-worker job calibrates its second core with: for
each line read on standard input it prints one ``spin_median()``, and
it exits at the end of its input.
"""

import sys
import time

#: Iterations of the calibration loop, and loops per calibration.
CAL_ITERATIONS = 100_000
CAL_LOOPS = 5


def spin_median() -> float:
    """Median seconds of ``CAL_LOOPS`` runs of the calibration loop.

    The loop stores into a small dict: interpreter dispatch plus hashing
    and memory traffic, which tracked the workloads' own slowdowns more
    closely than pure arithmetic or small numpy products did.
    """
    times = []
    for _ in range(CAL_LOOPS):
        start = time.perf_counter()
        table = {}
        for i in range(CAL_ITERATIONS):
            table[i * 7 & 8191] = i
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def serve() -> None:
    for _ in sys.stdin:
        print(repr(spin_median()), flush=True)


if __name__ == "__main__":
    serve()
