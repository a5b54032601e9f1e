"""Machine-speed probe, so that timings are comparable across runs.

On a shared host the same computation can run 1.5x slower for tens of
seconds at a time, so runs of a few tens of seconds cannot average the
drift out.  While a round runs, a SIGALRM handler times two fixed slices
of work every 0.1 s, one of each kind the program does:

* ``wide``: products of a 512x10 by a 10x10 matrix, each followed by a
  tanh, the shape of the interval kernels (512-box chunks) and of the
  integrator's vectorized steps;
* ``narrow``: the same on 32 rows, the shape of a training mini-batch,
  where interpreter overhead dominates.

Interpreter-bound work slows down more than array-bound work, so each
command is scaled by the slice of its own kind.  Each stretch of wall
time between two ticks, the handler's own time taken out, counts as
``stretch * REFERENCE_S / m`` with ``m`` the median slice of the ticks
around it: seconds at the speed where the slice takes REFERENCE_S.  The
speed can change within one long command, so the scaling follows it
stretch by stretch.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
MIN_TICKS = 5           # fewer ticks in a command: use the whole round's
SMOOTH = 25             # a stretch's speed: median of the 2 * SMOOTH + 1 ticks around it
REFERENCE_S = {"wide": 2.5e-4, "narrow": 5.0e-5}

_A = np.random.default_rng(0).standard_normal((512, 10))
_B = _A[:32].copy()
_W = np.random.default_rng(1).standard_normal((10, 10))


def _time(rows, reps) -> float:
    t0 = time.perf_counter()
    for _ in range(reps):
        np.tanh(rows @ _W)
    return time.perf_counter() - t0


def time_slices() -> dict:
    return {"wide": _time(_A, 10), "narrow": _time(_B, 10)}


def normalize(wall_s: float, kind: str, slices: list) -> float:
    """Seconds at reference speed, from slices timed while ``wall_s`` ran."""
    return wall_s * REFERENCE_S[kind] / statistics.median(s[kind] for s in slices)


class Probe:
    """Times one pair of slices every PERIOD_S while active.

    ``ticks`` holds (time, slices) pairs; ``window`` picks those of one
    command.
    """

    def __init__(self):
        self.ticks = []

    def _tick(self, signum, frame):
        slices = time_slices()
        self.ticks.append((time.perf_counter(), slices))

    def scaled(self, kind: str, t0: float, t1: float):
        """(wall seconds, seconds at reference speed) of [t0, t1], both
        without the handler's time."""
        inside = [(t, s) for t, s in self.ticks if t0 <= t <= t1]
        wall = t1 - t0 - sum(sum(s.values()) for _, s in inside)
        if len(inside) < MIN_TICKS:
            return wall, normalize(wall, kind, [s for _, s in self.ticks])
        vals = [s[kind] for _, s in inside]
        local = [statistics.median(vals[max(0, i - SMOOTH):i + SMOOTH + 1])
                 for i in range(len(vals))]
        ref, total, prev = REFERENCE_S[kind], 0.0, t0
        # a tick is stamped after its slices, which end the stretch before it
        for (t, s), m in zip(inside, local):
            total += (t - prev - sum(s.values())) * ref / m
            prev = t
        total += (t1 - prev) * ref / local[-1]
        return wall, total

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
