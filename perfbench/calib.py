"""Host-speed calibration: a fixed pure-Python loop timed between rounds.

The host's speed drifts from one slice to the next (frequency scaling,
neighbours on the same cores), and a round of phase detection drifts
with it.  The benchmark times :func:`spin` right before every round
and rescales the round by ``REFERENCE_S / measured``, so a metric keeps
its unit (ms, s, 1/s) but reads as if the host ran at reference speed.
Raw figures are printed beside the normalized ones.

The loop does integer arithmetic only: small ints are not tracked by
the garbage collector, so a collection never lands inside it and the
loop itself never triggers one; and it never calls into ``repro``, so
no change to the program can move it.  Anything that changes the
interpreter's own speed moves it too: a tracing hook, GC thresholds or
thread pools.  That is why the raw figures are kept.
"""

from __future__ import annotations

import time

#: Loop iterations per calibration.
SPIN_ITERATIONS = 20_000
#: Seconds :func:`spin` takes at reference speed: the median, over ten
#: 20-second ``serve-mcf`` runs on a 2-CPU x86-64 host with CPython
#: 3.11, of each run's median calibration.  Only its constancy matters:
#: it sets the scale of every normalized figure.
REFERENCE_S = 0.0033


def spin() -> int:
    """The calibration loop: integer arithmetic in the interpreter."""
    x = 1
    for i in range(SPIN_ITERATIONS):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    return x


def calibrate() -> float:
    """Seconds one :func:`spin` takes right now."""
    start = time.perf_counter()
    spin()
    return time.perf_counter() - start


class Normalizer:
    """Pairs each timed section with the calibration taken just before.

    ``time(fn)`` calibrates, runs *fn*, and records the raw duration and
    the calibration.  The normalized duration of a section is
    ``raw * REFERENCE_S / calibration``.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.cal: list[float] = []

    def time(self, fn, *args):
        cal = calibrate()
        start = time.perf_counter()
        result = fn(*args)
        self.raw.append(time.perf_counter() - start)
        self.cal.append(cal)
        return result

    def normalized(self) -> list[float]:
        return [raw * REFERENCE_S / cal
                for raw, cal in zip(self.raw, self.cal)]
