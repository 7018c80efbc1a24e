"""Fixed reference kernel used to normalise timings for machine speed.

The kernel does the kind of work laminal's hot path did at the baseline:
it enumerates the set partitions of a small ground set as restricted growth
strings, builds each partition's blocks and sums ``Fraction`` rows block by
block.  It is run before and after every timed item; an item's time is then
reported as ``t_raw * C_REF / c_adj``, where ``c_adj`` is the mean of the two
adjacent kernel times and ``C_REF`` is the kernel's median over the baseline
runs.  Normalised values therefore read as seconds on the baseline machine
at its baseline speed.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: Kernel time (s) taken as baseline speed: the median of calibration runs
#: made just before the baseline runs (baseline.json records their own median).
C_REF = 0.035

_N = 6
_ROWS = tuple(
    tuple(Fraction((5 * j + 3 * t) % 7 + 1, 29 + 3 * t + j % 2) for j in range(_N)) for t in range(10)
)
#: Result of ``reference_kernel``; a different value means the kernel broke.
EXPECTED = 592


def _growth_strings(n: int):
    a = [0] * n

    def rec(i: int, mx: int):
        if i == n:
            yield tuple(a)
            return
        for v in range(mx + 2):
            a[i] = v
            yield from rec(i + 1, mx if v <= mx else v)

    return rec(1, 0)


def reference_kernel() -> int:
    """Count the blocks whose mass under the first row exceeds that under the last."""
    hits = 0
    for s in _growth_strings(_N):
        groups: dict[int, list[int]] = {}
        for i, k in enumerate(s):
            groups.setdefault(k, []).append(i)
        blocks = tuple(groups.values())
        sums = [tuple(sum((row[j] for j in b), Fraction(0)) for b in blocks) for row in _ROWS]
        hits += sum(a > b for a, b in zip(sums[0], sums[-1]))
    return hits


def time_kernel() -> float:
    """Wall time of one kernel run, checking its result."""
    t0 = time.perf_counter()
    result = reference_kernel()
    elapsed = time.perf_counter() - t0
    if result != EXPECTED:
        raise RuntimeError(f"reference kernel returned {result}, expected {EXPECTED}")
    return elapsed


def normalise(t_raw: float, c_before: float, c_after: float, c_ref: float = C_REF) -> float:
    """Item time rescaled to baseline machine speed."""
    return t_raw * c_ref / ((c_before + c_after) / 2)
