"""A fixed reference computation, timed next to every operation.

On a shared 2-core VM (Intel Xeon, 2.1 GHz) the speed drifts by up to
half within a minute, for every process alike (a plain Python loop shows
the same drift as ``bredon``).  Wall times of
runs taken a minute apart are therefore not comparable, but the ratio of
an operation's time to this computation's time, measured around it, is:
over one such drift the ratio stayed within 4% while the raw operation
time moved by 55%.

The computation mirrors the shape of bredon's hot loops (row operations
on Python integer lists, tuple and dict churn) on fixed data, and never
changes with the program, so a slower ``bredon`` shows as a larger ratio.
"""

from __future__ import annotations

import random
import time


def reference_work() -> int:
    """Sparse integer elimination and tuple churn, about 30 ms here."""
    rng = random.Random(7)
    n = 70
    rows = [[rng.choice((0, 0, 0, 0, 1, -1)) for _ in range(n)]
            for _ in range(n)]
    for t in range(n):
        pivot_row = next((i for i in range(t, n) if rows[i][t]), None)
        if pivot_row is None:
            continue
        rows[t], rows[pivot_row] = rows[pivot_row], rows[t]
        pivot = rows[t]
        p = pivot[t]
        for i in range(t + 1, n):
            q = rows[i][t]
            if q:
                rows[i] = [(a * p - q * b) % 10007
                           for a, b in zip(rows[i], pivot)]
    cells = {k: tuple(range(k % 9)) for k in range(8000)}
    return sum(map(sum, rows)) + len(cells)


def reference_seconds(repeats: int) -> float:
    """Mean wall time of one reference computation over ``repeats`` runs."""
    start = time.perf_counter()
    for _ in range(repeats):
        reference_work()
    return (time.perf_counter() - start) / repeats
