"""A fixed reference loop that measures the host's current speed.

On a shared host the same work takes up to twice as long in one minute
as in another, in CPU time as well as in wall time, because other
tenants share the cores' caches and clock.  The benchmark therefore
times a short fixed loop (a chunk) again and again while the work it
measures runs, and reports that work's time scaled to the chunk's
speed: the time it would take on a host where a chunk takes
``CHUNK_S``.  While a job runs, a ``Sampler`` times one chunk every
``INTERVAL_S`` of process CPU time from a SIGPROF handler, so the
samples follow changes of speed inside a long job.  The chunk is part
of the benchmark, not of hochhom, so a change to hochhom moves the
scaled time by the same factor as its raw time.
"""

from __future__ import annotations

import signal
import statistics
import time

# Nominal wall seconds of a chunk: about what it takes on the 2-vCPU VM
# the baseline was recorded on when that VM is lightly loaded.
CHUNK_S = 0.0005
# Process CPU seconds between two chunks while a Sampler is running.
INTERVAL_S = 0.02

_TABLE = {i: (i * 7919) % 1009 for i in range(1009)}


def chunk() -> float:
    """Wall seconds of one fixed pure-Python loop (dict lookups and int
    arithmetic).  It makes no object the cyclic GC counts, so sampling
    does not change when hochhom's collections run."""
    t0 = time.perf_counter()
    table, acc = _TABLE, 0
    for i in range(3000):
        acc = (acc * 31 + table[(acc ^ i) % 1009]) % 1000003
    return time.perf_counter() - t0


def chunk_time(samples: list[float]) -> float:
    """Mean of the chunk samples, leaving out those over twice the
    median: a chunk the scheduler paused measures the pause, not the
    host's speed."""
    cut = 2 * statistics.median(samples)
    kept = [s for s in samples if s <= cut]
    return sum(kept) / len(kept)


def normalise(seconds: float, samples: list[float]) -> float:
    """``seconds`` of work during which the chunk ``samples`` were
    taken, scaled to a host where a chunk takes CHUNK_S."""
    return seconds * CHUNK_S / chunk_time(samples)


class Sampler:
    """Times a chunk every INTERVAL_S of process CPU time while active
    (``with sampler: ...``), and once more when the block ends, so a
    block always has a sample.  ``samples`` holds the block's chunk
    times; their sum is the time the block spent in chunks."""

    def __init__(self):
        self.samples: list[float] = []
        # installed for good: a tick still pending when the timer stops
        # only adds one more sample
        signal.signal(signal.SIGPROF, self._tick)

    def _tick(self, signum, frame) -> None:
        self.samples.append(chunk())

    def __enter__(self) -> Sampler:
        self.samples = []
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.samples.append(chunk())
