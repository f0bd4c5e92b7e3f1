"""Calibration of item and set-up times against a fixed slice of reference work.

On a machine whose cores are shared with other tenants, the speed of the
same pure-Python work drifts, within a run and between runs minutes apart.
On a 2-core shared sandbox, ``reference_work``
took from 1.8 ms to 4.0 ms of CPU time within single runs, and the same
seed's throughput moved by up to 1.8x between runs.  So the benchmark runs
``reference_work`` after every item and every set-up, and scales each time
by REFERENCE_S over the reference time measured next to it.  A calibrated
time is the time the work would take on a machine where ``reference_work``
takes REFERENCE_S.  The reference does not touch the package, so a change
to the package moves calibrated times as much as raw ones.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from itertools import product

REFERENCE_S = 0.002      # about the CPU time of reference_work on an unloaded core
WINDOW = 2               # an item is calibrated by the references of items i-2 .. i+2

_ROWS = [[(3 * i * i + 5 * j + 7) % 11 - 5 for j in range(7)] for i in range(6)]
_FACETS = ((1, -2, 3), (2, 1, -1), (-1, 3, 2))


def reference_work():
    """The kind of work the library does, on fixed data: exact Fraction
    elimination, then integer point tests over a small box."""
    rows = [[Fraction(x) for x in r] for r in _ROWS]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    inside = 0
    for p in product(range(-4, 5), repeat=3):
        if all(sum(a * x for a, x in zip(row, p)) <= 8 for row in _FACETS):
            inside += 1
    return rank, inside


def reference_time(clock):
    """CPU time of one ``reference_work``.  The cyclic garbage collector is
    off meanwhile, so that a collection of the package's objects is not
    charged to the reference."""
    gc.disable()
    try:
        start = clock()
        reference_work()
        return clock() - start
    finally:
        gc.enable()


def calibrate(times, refs):
    """Scale each time by REFERENCE_S over the median of the reference times
    measured around it."""
    return [t * REFERENCE_S / statistics.median(refs[max(0, i - WINDOW): i + WINDOW + 1])
            for i, t in enumerate(times)]
