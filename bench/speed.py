"""Machine-speed calibration for the timings.

The CPUs of a shared machine change speed with other tenants' load: on
the 2-CPU sandbox these numbers were tuned on, all code slowed and sped
up together by about 25% over tens of seconds, so raw wall times of the
same run spread by 20-30%.  A short fixed loop of Fraction and dict
work, like the program's own hot loops, is timed right before and right
after every job.  A job's wall time is divided by the mean of the two
and multiplied by REFERENCE_S, the loop's time on the unloaded machine,
so timings read in seconds at that reference speed.  The loop is the
benchmark's own code, so a change to poisset moves only the job times.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.003


def _loop() -> Fraction:
    table: dict = {}
    total = Fraction(0)
    for i in range(1, 1200):
        total += Fraction(i % 7 - 3, i % 5 + 1)
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return total


def measure() -> float:
    """Seconds the calibration loop takes now."""
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """A wall time taken between two calibrations, at reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
