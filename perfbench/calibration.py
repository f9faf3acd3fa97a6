"""Machine-speed calibration: times are reported at a reference speed.

The shared two-vCPU machine the baseline was recorded on changed speed by up
to 2x, from one second to the next and in spells of minutes, and its two
vCPUs ran at different speeds at the same moment.  Raw times of runs made
minutes apart differed by more than any regression bound could allow.  So
each timed interval is bracketed by two runs of ``calibration_s()``, a fixed
piece of pure-Python work, in the same process, and reported as
``wall * CAL_REF_S / mean(before, after)``.  CAL_REF_S is the calibration's
time on that machine at its fastest, so reported times read as milliseconds
of that speed.  The calibration runs no program code, so a faster program
still reads faster.

This module imports nothing but the standard library, so that a fresh
interpreter can calibrate before it imports the program.
"""

from fractions import Fraction
from time import perf_counter

CAL_REF_S = 0.0025


def calibration_s() -> float:
    """Wall time of a fixed piece of pure-Python work: fractions and a dict."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)
    counts = {}
    for i in range(4000):
        key = i * 7919 % 1009
        counts[key] = counts.get(key, 0) + i * i
    sorted(counts.items())
    return perf_counter() - t0


def scale(before_s: float, after_s: float) -> float:
    """Factor that takes a wall time bracketed by two calibrations to the
    reference speed."""
    return 2 * CAL_REF_S / (before_s + after_s)
