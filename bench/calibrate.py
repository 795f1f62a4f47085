"""A fixed pure-Python reference load for machine-speed normalisation.

It exercises what ikernel spends its time on (Fraction arithmetic, integer
row updates, tuple-keyed dicts) but uses nothing from ikernel, so no change
to the package can move it. Timing it next to each operation tells how fast
the shared machine was running at that moment: a time t measured while one
reference load took r seconds is reported as t * REFERENCE_SECONDS / r,
the time the operation would take at the reference speed.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Median time of one reference load on the machine the seed baseline was
# recorded on (2 vCPUs, x86-64, Python 3.11.7). Fixed, so that results from
# different runs and commits are in the same unit.
REFERENCE_SECONDS = 0.0058


def reference_load(repeats: int = 1) -> float:
    """Run the fixed load `repeats` times; return seconds per repeat."""
    start = time.perf_counter()
    for _ in range(repeats):
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(i, i + 3) * Fraction(3, 7)
        row = list(range(1, 200))
        other = list(range(200, 1, -1))
        for k in range(1, 40):
            row = [k * x - 3 * y for x, y in zip(row, other)]
        terms: dict[tuple[int, ...], int] = {}
        for i in range(3000):
            key = (i % 7, i % 11, i % 5)
            terms[key] = terms.get(key, 0) + i
    return (time.perf_counter() - start) / repeats
