"""Host-speed calibration: a fixed reference loop interleaved with the work.

On a shared host, contention from other tenants changes how fast this
process runs, in bursts and regime shifts lasting from tens of
milliseconds to minutes; raw CPU seconds of identical work drift by
20-30% between runs.  A fixed, program-independent reference loop run
*during* the measured work sees the same slowdown, so dividing the work's
CPU time by the loop's time cancels most of it.

The loop is interleaved at a fine grain: a CPU-time interval timer
(``ITIMER_PROF``) interrupts the work every :data:`SAMPLE_INTERVAL_S` of
CPU time and the signal handler runs one :func:`reference_loop`.  Each
piece of work is thus bracketed by many calibrations; the piece's
calibration is the geometric mean of the (top-trimmed) mean loop time over
its first and second halves.  A piece whose halves disagree by more than
:data:`RETIME_RATIO` saw the host speed change under it and is timed
again.

All CPU times are read with :func:`time.thread_time`: while a process-wide
CPU timer is armed the kernel updates the process CPU clock only at tick
granularity, and the benchmark pins the program to one thread.

This module must never import ``repro``: the loop is the yardstick, so no
program change may move it.  Changing the loop or its constants re-bases
every recorded figure, which makes it a benchmark change.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

#: CPU seconds one :func:`reference_loop` takes on the reference host
#: state.  A calibrated figure is ``raw_s * REFERENCE_SAMPLE_S /
#: measured_sample_s``: "CPU seconds as if the host ran at its reference
#: speed".  Recorded once; changing it re-bases the whole trajectory.
REFERENCE_SAMPLE_S = 0.0008

#: CPU time between two reference-loop samples inside a piece.
SAMPLE_INTERVAL_S = 0.02

#: A piece shorter than this many sample intervals gets its missing
#: samples from loops run right after it.
MIN_SAMPLES = 8

#: Share of the slowest samples dropped before averaging: a sample that
#: lands on a page fault or a garbage collection is slow for reasons
#: the work around it does not share.
TRIM_SLOWEST = 0.2

#: Half-piece calibrations further apart than this ratio mean the host
#: speed moved during the piece: it is timed again, at most
#: :data:`MAX_RETRIES` times.
RETIME_RATIO = 1.25
MAX_RETRIES = 3

_DICT_KEYS = 150
_LANES = 32
_NUMPY_STEPS = 10
_GATHERS = 100
_TABLE_BITS = 20
_TABLE_MASK = (1 << _TABLE_BITS) - 1
#: 8 MiB of random indices, larger than the per-core caches: chained
#: gathers through it make the loop memory-bound as well.
_TABLE = np.random.default_rng(0x5EED).integers(
    0, 1 << _TABLE_BITS, size=1 << _TABLE_BITS, dtype=np.int64
)


def reference_loop() -> int:
    """Fixed work mixing the program's kinds of host load.

    Pure-Python dict and sort churn (the SM event engine and the timing
    lowering are interpreter-bound), 32-lane numpy ops (the executor,
    classifier and interpreter call numpy on warp-wide vectors) and
    dependent 32-lane gathers through an 8 MiB table (the program walks
    a heap of tens of MiB).  Measured against the simulator's pieces,
    the time of a loop without the gathers tracked host slowdowns less
    closely: contention that evicts cached data slows the program more
    than a cache-resident loop.  Returns a checksum so the work cannot
    be skipped.
    """
    table: dict[int, int] = {}
    for i in range(_DICT_KEYS):
        key = (i * 2654435761) & 0x7F
        table[key] = table.get(key, 0) + i
    ordered = sorted(table.items(), key=lambda kv: (kv[1] % 97, kv[0]))
    checksum = ordered[0][0]
    lanes = np.arange(_LANES, dtype=np.uint32)
    for step in range(_NUMPY_STEPS):
        lanes = lanes * np.uint32(1103515245) + np.uint32(12345 + step)
        checksum ^= int(np.unique(lanes >> np.uint32(27)).size)
    index = np.arange(_LANES, dtype=np.int64) * 7919
    for step in range(_GATHERS):
        index = _TABLE[(index * 2654435761 + step) & _TABLE_MASK]
    return checksum ^ int(index[0])


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def trimmed_mean(samples: list[float]) -> float:
    ordered = sorted(samples)
    return statistics.fmean(ordered[: max(1, int(len(ordered) * (1 - TRIM_SLOWEST)))])


class Sampler:
    """Runs :func:`reference_loop` every :data:`SAMPLE_INTERVAL_S` of CPU.

    ``samples`` holds each loop's CPU seconds; ``overhead_s`` the CPU the
    handler spent in total, which :meth:`work_clock` subtracts so that
    time read from it excludes the calibration.  Only one sampler may be
    active in a process (there is one ``ITIMER_PROF``).
    """

    def __init__(self):
        self.samples: list[float] = []
        self.overhead_s = 0.0
        self._busy = False
        self._previous_handler = None

    def _handle(self, signum, frame) -> None:
        if self._busy:  # a signal that lands inside the handler itself
            return
        self._busy = True
        started = time.thread_time()
        reference_loop()
        elapsed = time.thread_time() - started
        self.samples.append(elapsed)
        self.overhead_s += elapsed
        self._busy = False

    def work_clock(self) -> float:
        """Thread CPU seconds minus the time spent calibrating."""
        return time.thread_time() - self.overhead_s

    def __enter__(self) -> "Sampler":
        # Resolve numpy's lazy imports outside the handler: an import
        # started inside it can be interrupted by the next signal.
        reference_loop()
        self._previous_handler = signal.signal(signal.SIGPROF, self._handle)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous_handler)


@dataclass
class Timed:
    """One measured piece: its result and raw / calibrated CPU seconds."""

    result: Any
    raw_s: float
    sample_s: float  # calibration: geomean of the two halves' loop time

    @property
    def factor(self) -> float:
        """Multiplier from raw to calibrated seconds."""
        return REFERENCE_SAMPLE_S / self.sample_s

    @property
    def calibrated_s(self) -> float:
        return self.raw_s * self.factor


def _halves(samples: list[float]) -> tuple[float, float]:
    half = len(samples) // 2
    return trimmed_mean(samples[:half]), trimmed_mean(samples[half:])


@dataclass
class Meter:
    """Times pieces of work with interleaved calibration.

    ``sample_s`` keeps every accepted piece's calibration and
    ``retries`` counts pieces timed again because the host speed moved
    under them.
    """

    max_retries: int = MAX_RETRIES
    sample_s: list[float] = field(default_factory=list)
    retries: int = 0

    def time(
        self,
        work: Callable[[], Any],
        prepare: Callable[[], None] | None = None,
        tracer=None,
    ) -> Timed:
        """Run ``work`` (after an untimed ``prepare``) under the sampler.

        ``work`` must start from the state ``prepare`` leaves, so a
        retimed piece repeats exactly.  A ``tracer`` gets one root span
        per attempt, on the sampler's work clock, and the calibration
        factor of the attempt that is kept.
        """
        for attempt in range(self.max_retries + 1):
            # A discarded attempt's result must not stay alive while the
            # next attempt runs: it would double the piece's peak memory.
            timed = result = None
            if prepare is not None:
                prepare()
            gc.collect()
            with Sampler() as sampler:
                if tracer is not None:
                    tracer.begin_piece(sampler)
                try:
                    started = sampler.work_clock()
                    result = work()
                    raw = sampler.work_clock() - started
                finally:
                    if tracer is not None:
                        tracer.end_piece()
            samples = sampler.samples
            while len(samples) < MIN_SAMPLES:
                begun = time.thread_time()
                reference_loop()
                samples.append(time.thread_time() - begun)
            first, second = _halves(samples)
            timed = Timed(result, raw, geomean((first, second)))
            if max(first, second) <= RETIME_RATIO * min(first, second):
                break
            if attempt < self.max_retries:
                self.retries += 1
        if tracer is not None:
            tracer.accept_piece(timed.factor)
        self.sample_s.append(timed.sample_s)
        return timed
