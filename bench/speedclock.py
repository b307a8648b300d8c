"""Wall time corrected for the changing speed of a shared machine.

On a shared 2-vCPU host the same Python work can take 1.6 times longer from
one second to the next, as other tenants come and go; process CPU time
drifts the same way, so it is no remedy.  Different kinds of work slow down
by different factors (on that host: one-row NumPy operations 1.8x, 500-row
array operations 1.5x, pure bytecode 1.3x), so ``SpeedClock`` runs a fixed
probe of about 1 ms that mixes all three, as hamflow's jet arithmetic does,
every ``PERIOD`` seconds from a SIGALRM handler, that is in the measured
thread itself.  Each stretch of wall time between two probes is rescaled by
``REF_PROBE_S`` over the mean duration of those two probes: a stretch that
ran while the machine was slow counts as what it would have taken at the
reference speed.  Probe time is left out.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

PERIOD = 0.025
# probe duration at the reference speed, close to the 10th percentile of
# probe times on the 2-vCPU virtual machine the benchmark was defined on;
# being a constant, it only sets the scale of the normalised seconds
REF_PROBE_S = 7e-4

_ROW = np.ones((1, 4))
_SMALL = np.ones((64, 4))
_BATCH = np.ones((500, 4, 4))
_BATCH_ROWS = np.ones((500, 4))


def _probe() -> None:
    a = _ROW
    for _ in range(100):
        a = a * 1.0000001 + 0.5
        _SMALL * 0.999 - 1.0
    for _ in range(4):
        x = _BATCH * _BATCH_ROWS[:, :, None] + _BATCH
        np.swapaxes(x, 1, 2) * 0.5
    s = 0
    for i in range(2000):
        s += i * i


class SpeedClock:
    """Context manager that samples machine speed while it is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _handler(self, signum, frame) -> None:
        t = perf_counter()
        _probe()
        self.starts.append(t)
        self.durations.append(perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalized(self, a: float, b: float) -> float:
        """Reference-speed seconds of the wall interval [a, b], probes excluded."""
        n = len(self.starts)  # the handler may append while this runs
        s = np.array(self.starts[:n])
        c = np.array(self.durations[:n])
        if s.size == 0:
            return b - a
        inside = (s >= a) & (s + c <= b)
        if not inside.any():
            nearest = int(np.argmin(np.abs(s - a)))
            return (b - a) * REF_PROBE_S / c[nearest]
        si, ci = s[inside], c[inside]
        gap_lo = np.concatenate([[a], si + ci])
        gap_hi = np.concatenate([si, [b]])
        before = np.concatenate([[ci[0]], ci])
        after = np.concatenate([ci, [ci[-1]]])
        return float(np.sum((gap_hi - gap_lo) * REF_PROBE_S / (0.5 * (before + after))))
