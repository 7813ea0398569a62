"""Order statistics and host-speed calibration for the benchmark.

Latencies are summarized per pass: the median, and a tail at the highest
integer percentile that still has at least ten samples beyond it (the
nearest-rank rule), so the tail is never a single outlier.  Passes are then
combined by their median, which a short burst of host noise cannot move.
The ``Calibrator`` samples the host's speed while a pass runs, so times can
be reported at a reference speed.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time

# A tail percentile must leave at least this many samples beyond its rank.
TAIL_BEYOND = 10


def tail_percentile(count: int) -> int:
    """The highest integer percentile with ``TAIL_BEYOND`` samples beyond it.

    For 87 samples that is p88 (rank 77, ten samples above it).  Below
    20 samples no percentile at or above the median qualifies, and the
    tail falls back to p50.
    """
    if count <= 0:
        raise ValueError("no samples")
    return max(50, (100 * (count - TAIL_BEYOND)) // count)


def nearest_rank(values, percentile: int) -> float:
    """The nearest-rank ``percentile`` of ``values`` (1 <= rank <= n)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(percentile * len(ordered) / 100))
    return ordered[rank - 1]


def latency_summary(latencies) -> tuple[float, float, int]:
    """``(median, tail, tail percentile)`` of one pass's item latencies."""
    percentile = tail_percentile(len(latencies))
    return (statistics.median(latencies),
            nearest_rank(latencies, percentile), percentile)


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------

# The calibration chunk's time at the reference speed.  Calibrated times
# are seconds at that speed: raw seconds x REFERENCE_S / measured chunk.
REFERENCE_S = 0.002
_CALIBRATION: tuple[dict, list] | None = None


def _calibration_inputs() -> tuple[dict, list]:
    global _CALIBRATION
    if _CALIBRATION is None:
        table = {(index, index * 7): frozenset((index, index + 1))
                 for index in range(5_000)}
        order = random.Random(0).choices(range(5_000), k=2_500)
        _CALIBRATION = table, [(index, index * 7) for index in order]
    return _CALIBRATION


def calibration_chunk(clock=time.perf_counter) -> float:
    """Time of one fixed pure-Python chunk of work on this host, now.

    The chunk does what the program does most — tuple keys, dict probes,
    frozenset unions and hashing — and shares none of its code.  It runs
    with the cyclic garbage collector off: a collection costs time in
    proportion to the program's live heap, and one landing in the chunk
    would make the divisor depend on the program.  Its table adds about
    2 MB to the measuring process.
    """
    table, keys = _calibration_inputs()
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = clock()
        seen: dict = {}
        digest = 0
        for key in keys:
            members = table[key]
            seen[key[0] & 4095] = (members, key)
            digest ^= hash(members | {key[0] & 15})
        elapsed = clock() - started
        del seen  # freed before collection resumes: no debt left for the program
    finally:
        if collecting:
            gc.enable()
    return elapsed


class Calibrator:
    """Samples the host's speed in the measuring process, between items.

    On a shared machine the same code runs tens of percent slower for
    seconds to minutes while neighbours are busy.  A chunk is timed
    whenever ``EVERY_S`` seconds have passed since the last one, so the
    samples follow the pass through time.  The ``clock`` is wall time, or
    the thread's CPU time where the measuring process shares the CPUs with
    its own pool workers and would otherwise count waiting for one.  A
    speed is a mean chunk time over the reference (the mean, because slow
    stretches lengthen a pass as much as fast ones shorten it); dividing a
    time measured alongside by it removes the host's slowness from it.
    """

    EVERY_S = 0.1
    NEAR_S = 0.5

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: list[tuple[float, float]] = []   # (when, chunk seconds)
        self.spent_s = 0.0
        self._due = 0.0
        _calibration_inputs()

    def between_items(self, force: int = 0) -> None:
        """Take a sample if one is due, or ``force`` samples now."""
        started = time.perf_counter()
        if not force and started < self._due:
            return
        for _ in range(max(1, force)):
            chunk = calibration_chunk(self.clock)
            self.samples.append((time.perf_counter(), chunk))
        ended = time.perf_counter()
        self.spent_s += ended - started
        self._due = ended + self.EVERY_S

    def speed(self, start: float | None = None, end: float | None = None) -> float:
        """Mean slowness over all samples, or around ``[start, end]``.

        Around an interval means the samples within ``NEAR_S`` of it, or
        the nearest sample when none is that close: one sample is too
        noisy to calibrate a short item by.
        """
        chunks = [chunk for _when, chunk in self.samples]
        if start is not None:
            near = [chunk for when, chunk in self.samples
                    if start - self.NEAR_S <= when <= end + self.NEAR_S]
            chunks = near or [min(self.samples,
                                  key=lambda sample: abs(sample[0] - start))[1]]
        return statistics.fmean(chunks) / REFERENCE_S
