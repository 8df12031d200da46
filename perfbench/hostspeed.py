"""The host's current speed, read from a fixed loop while timed operations run.

The benchmark was built on a VM whose speed drifts between states up to
1.6x apart, several times a second and also for minutes at a time.  A
figure taken straight from the clock then says more about the state a run
fell into than about the program.  So the benchmark reads the host's speed
from a fixed calibration loop (pure-Python arithmetic and many numpy calls
on small arrays, the mix the package runs) at the start and
end of every timed region and, inside long regions, every ``PERIOD_S`` at
the package's boundaries.  Each stretch between two readings is scaled to a
host on which the loop takes ``REF_S``::

    scaled = measured * REF_S / mean(loop time at its start, loop time at its end)

The loop is the benchmark's own code, so a change to the package cannot
move it.  Readings are taken outside the measured stretches; the unscaled
timings and the readings are printed in the detail line.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from mprobust import cli, milp, register_backend
from mprobust.milp import SolverConfig

REF_S = 0.006       # seconds one loop takes on the reference host
REPEATS = 2         # one reading is the fastest of this many loops
PERIOD_S = 0.25     # readings inside a long region are at least this far apart


def _loop() -> float:
    # About half the time in each part.  On the host the benchmark was built
    # on, this mix tracked both the MILP solves and the evaluator calls of
    # picks and verify; either part alone tracked only one of them.
    s = 0
    for i in range(40_000):
        s += i * i
    a = np.arange(12.0)
    for _ in range(1400):
        a = np.minimum(a + 1.0, 5.0)
    return s + float(a[0])


class HostSpeed:
    """Readings of the calibration loop, and the regions they scale."""

    def __init__(self):
        self.readings: list = []
        self.spent_s = 0.0          # wall time spent reading, for timings that span a reading
        self._open: list = []       # [raw_s, scaled_s] of each open region, outermost first
        self._at = 0.0              # when the last reading ended
        self._last = 0.0            # and what it read
        self.last_scale = 1.0       # the factor of the stretch the last reading ended
        _loop()                     # warm up before the first reading

    def _read(self) -> float:
        t_start = time.perf_counter()
        best = float("inf")
        for _ in range(REPEATS):
            t = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - t)
        self.readings.append(best)
        self.spent_s += time.perf_counter() - t_start
        return best

    def _split(self) -> float:
        """End the current stretch with a reading; charge it to every open region.
        Returns the stretch's factor."""
        end = time.perf_counter()
        reading = self._read()
        raw = end - self._at
        self.last_scale = 2.0 * REF_S / (self._last + reading)
        for acc in self._open:
            acc[0] += raw
            acc[1] += raw * self.last_scale
        self._last, self._at = reading, time.perf_counter()
        return self.last_scale

    def tick(self):
        """Take a reading if ``PERIOD_S`` has passed since the last one in an open region;
        returns the factor of the stretch it ended, or None."""
        if self._open and time.perf_counter() - self._at >= PERIOD_S:
            return self._split()
        return None

    @contextmanager
    def region(self):
        """Time the block; yields ``[raw_s, scaled_s]``, complete when the block ends."""
        acc = [0.0, 0.0]
        if self._open:
            self._split()
        else:
            self._last, self._at = self._read(), time.perf_counter()
        self._open.append(acc)
        try:
            yield acc
        finally:
            self._split()
            self._open.pop()

    def _ticking(self, fn):
        def ticked(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)

        return ticked

    @contextmanager
    def hooked(self):
        """Tick before every MILP solve and every evaluator call of ``verify``:
        the calls that long regions (solves, set-up, verify) are made of."""
        backend = SolverConfig().backend
        original_backend = milp._BACKENDS[backend]     # no public getter exists
        original_eval = cli.robustness_value
        try:
            register_backend(backend, self._ticking(original_backend))
            cli.robustness_value = self._ticking(original_eval)
            yield self
        finally:
            register_backend(backend, original_backend)
            cli.robustness_value = original_eval
