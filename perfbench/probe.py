"""A fixed reference computation that measures how fast the host is right now.

On a shared host the same pass over the same index runs at different speeds
from one minute, or one machine, to the next.  The probe is a small, fixed
mix of the kinds of work the library does — interpreter-level dict, list and
tuple handling with many small calls, random reads scattered over a heap of
objects much larger than the caches, small-array numpy filters and
``searchsorted``, and one streaming mask over a few megabytes — built only
from the standard library and numpy, so no change to the program under test
moves it.  The scattered reads matter: on a shared host the library's
batches slow down with the memory system, which a cache-resident loop does
not notice.  The timed phase runs it every ``EVERY_S`` seconds between
requests; ``ProbeLog.factor`` turns the probes of a stretch of the run into
the ratio of their median time to ``REFERENCE_S``.  A rate times that factor,
or a latency divided by it, is the figure the program would have shown on a
host where the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: Seconds between probes during a timed phase.
EVERY_S = 0.25
#: Probe time of the reference host (a two-core x86-64 VM, Python 3.11,
#: numpy 2.4); host-normalised figures are scaled to it.
REFERENCE_S = 0.004

_rng = np.random.default_rng(20_200_331)
_SORTED = np.sort(_rng.integers(0, 1 << 30, 20_000))
_KEYS = _rng.integers(0, 1 << 30, 256)
_SMALL = _rng.integers(0, 1_000_000, 16_384).astype(np.int32)
_LARGE = _rng.integers(0, 1_000_000, 500_000).astype(np.int32)
_WORDS = [f"w{i}" for i in range(512)]


@dataclass(frozen=True)
class _Box:
    low: int
    high: int

    def width(self) -> int:
        return self.high - self.low


_HEAP = [_Box(i, 2 * i) for i in range(150_000)]
_WALK = _rng.permutation(len(_HEAP))[:1_500].tolist()


def _interpreter() -> int:
    table: dict[str, list[int]] = {}
    total = 0
    for i in range(600):
        word = _WORDS[i % 512]
        bucket = table.setdefault(word, [])
        bucket.append(i)
        box = _Box(i, i + len(bucket))
        total += box.width() + (hash((word, i & 7)) & 1)
    ordered = sorted(table.items(), key=lambda item: (len(item[1]), item[0]))
    return total + len(ordered)


def _heap_walk() -> int:
    heap = _HEAP
    return sum(heap[i].low for i in _WALK)


def _small_arrays() -> int:
    total = 0
    positions = np.searchsorted(_SORTED, _KEYS)
    for k in range(24):
        low = 20_000 * k
        mask = (_SMALL >= low) & (_SMALL < low + 400_000)
        total += int(np.count_nonzero(mask)) + int(positions[k])
    return total


def _streaming() -> int:
    return int(np.count_nonzero((_LARGE > 250_000) & (_LARGE < 500_000)))


def probe() -> float:
    """Run the reference computation once; returns its seconds.

    The garbage collector is off meanwhile: a collection would scan the
    program's heap, and the probe would time that instead of the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _interpreter()
        _heap_walk()
        _small_arrays()
        _streaming()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class ProbeLog:
    """Probe times of one pass, keyed by when each probe started."""

    starts: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    _next: float = 0.0

    def due(self, now: float) -> bool:
        return now >= self._next

    def run(self) -> float:
        """Probe now; returns the time the probe ended."""
        began = time.perf_counter()
        self.starts.append(began)
        self.seconds.append(probe())
        ended = time.perf_counter()
        self._next = ended + EVERY_S
        return ended

    def seconds_within(self, begin: float, end: float) -> float:
        """Seconds of probing inside ``[begin, end)``."""
        return sum(
            max(min(start + seconds, end) - max(start, begin), 0.0)
            for start, seconds in zip(self.starts, self.seconds)
            if start < end and start + seconds > begin
        )

    def factor(self, begin: float | None = None, end: float | None = None) -> float:
        """Median probe time in ``[begin, end)`` ÷ ``REFERENCE_S``.

        A stretch without probes of its own uses the nearest probe on
        either side of it.
        """
        if not self.seconds:
            raise ValueError("no probes were run")
        low = 0 if begin is None else bisect.bisect_left(self.starts, begin)
        high = len(self.starts) if end is None else bisect.bisect_left(self.starts, end)
        if high <= low:
            low, high = max(low - 1, 0), min(low + 1, len(self.starts))
        return statistics.median(self.seconds[low:high]) / REFERENCE_S
