"""Machine-speed sampling, to take host speed drift out of wall times.

On a shared host the CPU alternates between a fast and a slow state
every second or so, and the share of time spent slow drifts from
minute to minute; the same repetition's wall time moves by 20-40%
between runs a few minutes apart.  While a timed region runs, a
``SIGALRM`` timer interrupts it every few milliseconds to time a fixed
pure-Python probe.  The region's wall time, minus the probe's own
time, is then rescaled by ``reference / median probe time``: what it
would have taken at the machine speed the reference was measured at.

The probe touches nothing of the program, but it runs on the same
core, so a change that moves the core's speed moves the probe too and
is partly taken out of the rescaled time.  ``scaling.py`` measures
this: the rescaled time keeps the full size of a pure-Python slowdown
and of a switch between delivery paths, but shows only about 60-70% of
a slowdown made of sweeps over a large array, after which the core
stays slow for a while.  The traced run's ``wall.raw_s`` reports the
raw wall time next to the rescaled end-to-end figures.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between probes.
INTERVAL_S = 0.005
#: Median probe duration while the benchmark's repetitions ran on the
#: machine it was defined on (a 2-vCPU KVM guest on an Intel Xeon
#: Sapphire Rapids host, Python 3.11).  It sets only the unit: rescaled
#: times read as seconds on that machine.
REFERENCE_S = 68e-6


#: The probe's scratch slots, allocated once: the probe itself creates
#: no container, so it cannot move the cycle collector's trigger points.
_SLOTS = [0] * 64


def _probe() -> int:
    total = 0
    for i in range(400):
        total += i * i % 7
        _SLOTS[i & 63] = total
    return total


class SpeedSampler:
    """Times the probe every :data:`INTERVAL_S` while active."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """A position in the sample list, to scale what runs after it."""
        return len(self.durations)

    def scale(self, since: int, wall: float) -> float:
        """Factor from raw seconds to reference-speed seconds.

        ``wall`` is the raw duration of the region that began at
        :meth:`mark` ``since``; the probe's own time in it is removed.
        """
        samples = self.durations[since:]
        if not samples:
            return 1.0
        net = (wall - sum(samples)) / wall
        return net * REFERENCE_S / statistics.median(samples)
