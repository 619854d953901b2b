"""Wall time scaled to a reference host speed.

The host's speed drifts: on a 2-core VM that shares its machine, the
same Cartan test took anywhere from 0.21 s to 0.43 s of CPU time within
three minutes, and medians of 20 s windows spread by 16-20%.  The
benchmark therefore runs a fixed calibration kernel (exact Fraction
elimination and dict accumulation, stdlib only, no frameforms code)
right before and right after each piece of timed work, and scales the
piece's wall time by REFERENCE_S / (mean of the two kernel times).  The
kernel and the program slow down together, so the scaled figures stay
put while the raw ones swing; a change to the program moves them as it
moves wall time.  One reference second is the wall time of a second of
work at the speed where the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Median kernel time (two passes) on the 2-core reference VM, CPython 3.11.
REFERENCE_S = 0.0215


def _kernel():
    n = 10
    a = [
        [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(n)]
        + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [v * inv for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [v - f * w for v, w in zip(a[r], a[c])]
    acc = {}
    for i in range(3000):
        k = (i % 37, i % 11)
        acc[k] = acc.get(k, 0) + i
    return a[0][n], len(acc)


def calibrate(passes=2):
    """Wall time of `passes` runs of the kernel."""
    t0 = time.perf_counter()
    for _ in range(passes):
        _kernel()
    return time.perf_counter() - t0


class Meter:
    """Times pieces of work, each between two calibrations."""

    def __init__(self):
        self.resume()

    def resume(self):
        """Calibrate afresh after a pause that is not timed."""
        self.before = calibrate()

    def measure(self, fn):
        """Run fn(); returns (its result, raw seconds, scaled seconds)."""
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        after = calibrate()
        scaled = raw * REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return out, raw, scaled
