"""Fixed reference work that gauges how fast the machine runs right now.

The benchmark's host moves between fast and slow phases that last from a
fraction of a second to minutes, and a command's wall time moves with
them. So the benchmark reports times at a reference speed:

    wall time / slowdown,
    slowdown = measured / reference duration of reference(),

summed over a run's rounds as a ratio of sums (``scaled_seconds``).
During a command, a ``Sampler`` runs a short ``reference()`` from a
SIGALRM handler every ``SAMPLE_INTERVAL_S`` seconds, in the program's
own process and thread, so the speed is sampled on the same core all
through the command. The sampler's own time is taken out of the
command's wall time. The set-up, which happens before the sampler
starts, is gauged by one longer ``reference()`` right after it.

The work imitates the program's hot path: small float64 matrix products,
an elementwise mask and a short pure-Python loop per step,
single-threaded. It never calls the program, so a change to the program
cannot change it, it touches no program state, and it draws nothing from
the workload seed.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Seconds per reference step on the machine the README's figures come
# from, in its typical phase. Scaled times are seconds at that speed.
REFERENCE_STEP_S = 4.2e-5
SETUP_STEPS = 3000  # one calibration after the set-up, about 0.13 s
SAMPLE_STEPS = 100  # one sample, about 4 ms
SAMPLE_INTERVAL_S = 0.1

_RNG = np.random.default_rng(2208)
_X = _RNG.standard_normal((64, 32))
_W1 = 0.1 * _RNG.standard_normal((32, 48))
_W2 = 0.1 * _RNG.standard_normal((48, 16))


def reference(steps):
    """Seconds taken by ``steps`` forward, backward and SGD steps of a
    tiny two-layer MLP."""
    start = time.perf_counter()
    w1, w2 = _W1.copy(), _W2.copy()
    for _ in range(steps):
        h = _X @ w1
        a = np.maximum(h, 0.0)
        g = a @ w2 - 1.0
        gw2 = a.T @ g
        ga = g @ w2.T
        ga[h <= 0.0] = 0.0
        gw1 = _X.T @ ga
        w1 -= 1e-4 * gw1
        w2 -= 1e-4 * gw2
        s = 0
        for j in range(30):
            s += j
    return time.perf_counter() - start


def slowdown(steps, seconds):
    """Measured over reference duration of ``steps`` reference steps:
    above 1 in a slow phase."""
    return seconds / (REFERENCE_STEP_S * steps)


def scaled_seconds(pairs):
    """Seconds at the reference speed of one step of the benchmark timed
    in several rounds, from (wall seconds, slowdown) pairs: a ratio of
    sums, that is the mean of wall / slowdown weighted by slowdown."""
    return sum(wall for wall, _ in pairs) / sum(s for _, s in pairs)


class Sampler:
    """Samples the machine's speed from SIGALRM while a command runs.

    Use as a context manager around one command in the main thread. Each
    sample runs ``reference(SAMPLE_STEPS)``. The handler runs between
    bytecodes of the interrupted code and touches none of its state.
    """

    def __init__(self):
        self.samples = []
        self.busy_s = 0.0  # wall time spent in the handler
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference(SAMPLE_STEPS))
        self.busy_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self):
        """Slowdown over all samples, or None if none was taken."""
        if not self.samples:
            return None
        return slowdown(SAMPLE_STEPS * len(self.samples), sum(self.samples))
