"""Machine-speed normalisation for the benchmark's timings.

The benchmark shares a few cores of a busy host, and that host's speed
wanders: a fixed interpreter loop runs up to twice as fast in one second
as in the next, and 30-second runs of the same code have spread by more
than half of their median between runs. No raw wall time repeats within
a useful bound there.

So while a run measures, :class:`SpeedSampler` re-times a fixed
calibration kernel every :data:`INTERVAL_S` seconds, from a ``SIGALRM``
handler in the main thread, that is on the same core and in the same
process as the work it calibrates. Each measured interval is then
converted to *reference seconds*: its wall time, less the sampler's own
time inside it, times :data:`REFERENCE_S` divided by the kernel's mean
time around that interval. A program change that makes an operation
faster lowers its reference seconds as it lowers its wall seconds; a
slower host slows the kernel too, and cancels out.
"""

import signal
import time

import numpy as np

#: Sampling period of the calibration kernel (about 2% of a core).
INTERVAL_S = 0.05

#: What :func:`kernel` takes at reference speed, in seconds.
REFERENCE_S = 0.001

#: Samples this long before and after an interval set its speed.
WINDOW_S = 0.5

_NAMES = tuple("k%d" % i for i in range(16))


def kernel(rounds=200):
    """A fixed mix of interpreter work (arithmetic, dict access, builtin
    calls, string joins): about a millisecond inside a sampler tick on a
    2.1 GHz Xeon. It keeps nothing alive after it returns."""
    table = dict.fromkeys(_NAMES, 0)
    acc = 0
    for r in range(rounds):
        for i, name in enumerate(_NAMES):
            acc = (acc + i * r) % 1_000_003
            table[name] = table[name] + (acc & 7)
        acc += len("-".join(_NAMES[r % 4:r % 4 + 4]))
        acc += max(table.values()) - min(r, acc)
    return acc


def kernel_seconds(repeats=7):
    """Median time of :func:`kernel` over *repeats* calls, for a process
    that cannot host a sampler (a probe that exits at once)."""
    costs = []
    for _ in range(repeats):
        begun = time.perf_counter()
        kernel()
        costs.append(time.perf_counter() - begun)
    return float(np.median(costs))


def reference_seconds(wall, kernel_s):
    """*wall* seconds taken where :func:`kernel` took *kernel_s*."""
    return wall * REFERENCE_S / kernel_s


class SpeedSampler:
    """Times :func:`kernel` periodically while active (a context
    manager); afterwards converts wall intervals to reference seconds.

    *clock* must be the clock the intervals were read from.
    """

    def __init__(self, clock=time.perf_counter, interval=INTERVAL_S):
        self.clock = clock
        self.interval = interval
        self._ends = []
        self._costs = []
        self._previous = None

    def _tick(self, signum, frame):
        begun = self.clock()
        kernel()
        ended = self.clock()
        self._ends.append(ended)
        self._costs.append(ended - begun)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def samples(self):
        return len(self._costs)

    def ticks(self):
        """The kernel timings taken: ``(ends, costs)`` lists."""
        return list(self._ends), list(self._costs)

    def kernel_s(self):
        """Median kernel time over the whole run (metadata)."""
        return float(np.median(self._costs)) if self._costs else 0.0

    def seconds(self, begins, ends, others=()):
        """Reference seconds of the wall intervals ``[begins[i],
        ends[i]]`` (arrays or scalars of the sampler's clock).

        *others* are :meth:`ticks` of samplers in other processes that
        share the work (on the same clock): they count towards the
        speed, but their ticks did not pause this process.
        """
        if not self._costs:
            raise RuntimeError("the speed sampler took no samples")
        begins = np.asarray(begins, dtype=float)
        ends = np.asarray(ends, dtype=float)

        def between(at, values, lo, hi):
            return (values[np.searchsorted(at, hi, side="right")]
                    - values[np.searchsorted(at, lo, side="right")])

        lo, hi = begins - WINDOW_S, ends + WINDOW_S
        own = n = total = 0.0
        for index, (at, costs) in enumerate([self.ticks(), *others]):
            at = np.asarray(at, dtype=float)
            cost = np.concatenate(([0.0], np.cumsum(costs)))
            if index == 0:
                # Ticks run in the main thread, so a tick inside an
                # interval paused the work it measures.
                own = between(at, cost, begins, ends)
            n = n + between(at, np.arange(len(at) + 1), lo, hi)
            total = total + between(at, cost, lo, hi)
        if np.any(n == 0):
            raise RuntimeError("an interval has no speed sample near it")
        return reference_seconds(ends - begins - own, total / n)
