"""Fixed reference work that measures the host's speed, not postlie's.

    python3 -I perfbench/reference.py

Run by ``run.py`` as a fresh process through each timed run.  It imports
no postlie code and does the same work every time: exact fractions summed
into a dict, then a burst of small allocations, as postlie's own work
does.  It prints the seconds the work took.
"""

import sys
import time
from fractions import Fraction


def work() -> None:
    acc: dict = {}
    for i in range(12000):
        key = (i % 997, i % 13, i)
        acc[key] = acc.get(key, 0) + Fraction(i % 11, 1 + i % 6)
    rows = [[j, str(j), (j, j)] for j in range(60000)]
    del acc, rows


if __name__ == "__main__":
    t = time.perf_counter()
    work()
    sys.stdout.write(f"{time.perf_counter() - t!r}\n")
