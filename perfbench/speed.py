"""Machine-speed sampling, so that times can be reported at a nominal speed.

The processor this benchmark was defined on is shared with other tenants.
Its speed drifted by up to 40% over periods of seconds to minutes, and raw
wall times of one battery spread by 25% between runs. No choice of run
length or statistic removed that.

So every repetition runs under a :class:`SpeedSampler`. Every 50 ms a timer
signal interrupts the engine, and the handler times a fixed probe: about
0.45 ms of permutation products, equality tests and set updates, written
like the engine's code but sharing none of it, so an engine change cannot
move the probe. Probe durations rise and fall with the machine's speed at
that moment. :meth:`SpeedSampler.nominal_seconds` then turns a wall interval
into seconds at nominal speed: it subtracts the probe time spent inside the
interval, and multiplies by the mean of ``NOMINAL_PROBE_S / duration`` over
the repetition's probes.

A probe of bare tuple composition tracked the battery less well: under load
the battery slowed by that probe's slowdown to the power 1.1–1.24, against
1.0–1.14 for this one.
"""

from __future__ import annotations

import random
import signal
import time

INTERVAL_S = 0.05

# The probe's duration at nominal speed: about its fastest on an unloaded
# Intel Xeon under Python 3.11.7.  It only sets the unit; comparisons
# between commits do not depend on it.
NOMINAL_PROBE_S = 0.00045


class _Perm:
    """A stand-in for the engine's permutations, so the probe runs the same
    kind of code (method calls, tuple building, hashing) without sharing any."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        self.images = images
        self._hash = hash(images)

    def __mul__(self, other):
        o = other.images
        return _Perm(tuple(o[v] for v in self.images))

    def __eq__(self, other):
        return self.images == other.images

    def __hash__(self):
        return self._hash


class SpeedSampler:
    def __init__(self):
        rng = random.Random(3)
        self._pool = [_Perm(tuple(rng.sample(range(12), 12))) for _ in range(40)]
        self.samples: list = []  # (start, duration)
        self._previous = None

    def _probe(self, _signum, _frame) -> None:
        # A centraliser scan and a closure step over a fixed pool.
        t0 = time.perf_counter()
        gens = self._pool[:3]
        seen = set()
        for g in self._pool:
            all(g * s == s * g for s in gens)
            for s in gens:
                seen.add(g * s)
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean machine speed relative to nominal; 1.0 if nothing was sampled."""
        if not self.samples:
            return 1.0
        return sum(NOMINAL_PROBE_S / d for _t, d in self.samples) / len(self.samples)

    def nominal_seconds(self, t0: float, t1: float) -> float:
        """The wall interval ``[t0, t1]`` without its probes, at nominal speed."""
        probed = sum(d for t, d in self.samples if t0 <= t < t1)
        return (t1 - t0 - probed) * self.speed()
