"""Adaptive micro-batching admission queue.

The PR 2 batched pipeline (``run_batch`` → template dedup → one grid-tree
traversal per batch → shared scans) is ~4x faster per query than per-query
execution, but it only helps if someone *forms* batches.  A server receives
queries one at a time from many client threads; :class:`MicroBatcher` turns
those arrivals into batches by coalescing them inside a small window:

* **Flush on size.**  As soon as ``max_batch_size`` requests are pending, the
  dispatcher takes them — under heavy load the window never waits and the
  pipeline runs at full batch efficiency.
* **Flush on arrival pause.**  When ``idle_gap_seconds`` is set and no new
  request lands within that gap, the window flushes whatever is pending —
  the arrival stream paused, so waiting longer buys no batch growth, only
  latency.  This is what makes the window *adaptive*: while the dispatcher
  is busy, arrivals pile up and the next batch is taken whole (batches grow
  until service keeps up with arrivals); the moment arrivals pause, pending
  requests go out after one gap instead of the full window.
* **Flush on deadline.**  Regardless, the dispatcher waits at most
  ``max_delay_seconds`` past the *oldest* pending arrival — a hard bound on
  the latency any query pays for batching.

Whichever trigger fires first wins, so the effective window adapts to the
offered load.  Admission is bounded: once ``max_queue_depth`` requests are
queued, :meth:`put` rejects with a typed
:class:`~repro.common.errors.ServerOverloadedError` instead of queueing
unboundedly (backpressure keeps tail latency bounded under overload — the
alternative is every request slowly timing out).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

from repro.common.errors import ServerClosedError, ServerOverloadedError, ServingError


@dataclass
class BatcherStats:
    """Flush accounting for one :class:`MicroBatcher`."""

    items_admitted: int = 0
    items_rejected: int = 0
    flushes_on_size: int = 0
    flushes_on_idle: int = 0
    flushes_on_deadline: int = 0
    flushes_on_close: int = 0
    largest_batch: int = 0

    @property
    def batches(self) -> int:
        """Total batches handed to the dispatcher."""
        return (
            self.flushes_on_size
            + self.flushes_on_idle
            + self.flushes_on_deadline
            + self.flushes_on_close
        )

    @property
    def mean_batch_size(self) -> float:
        """Average items per flushed batch."""
        return self.items_admitted / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        """JSON-serializable summary for benchmark reports."""
        return {
            "items_admitted": self.items_admitted,
            "items_rejected": self.items_rejected,
            "batches": self.batches,
            "flushes_on_size": self.flushes_on_size,
            "flushes_on_idle": self.flushes_on_idle,
            "flushes_on_deadline": self.flushes_on_deadline,
            "flushes_on_close": self.flushes_on_close,
            "largest_batch": self.largest_batch,
            "mean_batch_size": round(self.mean_batch_size, 2),
        }


class MicroBatcher:
    """Coalesces concurrent arrivals into bounded, deadline-flushed batches.

    Producers call :meth:`put` from any number of threads; one (or more)
    dispatcher threads call :meth:`take`, which blocks until a batch is ready
    and returns ``None`` only after :meth:`close` once the queue has drained.

    Parameters
    ----------
    max_batch_size:
        Flush as soon as this many items are pending.
    max_delay_seconds:
        Flush no later than this long after the oldest pending item arrived.
    max_queue_depth:
        Reject admissions (``ServerOverloadedError``) beyond this many queued
        items; items already taken by a dispatcher no longer count.
    idle_gap_seconds:
        When set, flush early if no new arrival lands within this gap — the
        stream paused, so the pending batch cannot grow and holding it only
        adds latency.  ``None`` disables the trigger (wait the full window).
    """

    def __init__(
        self,
        max_batch_size: int = 256,
        max_delay_seconds: float = 0.002,
        max_queue_depth: int = 2048,
        idle_gap_seconds: float | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ServingError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_delay_seconds < 0:
            raise ServingError(
                f"max_delay_seconds must be >= 0, got {max_delay_seconds}"
            )
        if max_queue_depth < 1:
            raise ServingError(f"max_queue_depth must be >= 1, got {max_queue_depth}")
        if idle_gap_seconds is not None and idle_gap_seconds <= 0:
            raise ServingError(
                f"idle_gap_seconds must be > 0 or None, got {idle_gap_seconds}"
            )
        self.max_batch_size = max_batch_size
        self.max_delay_seconds = max_delay_seconds
        self.max_queue_depth = max_queue_depth
        self.idle_gap_seconds = idle_gap_seconds
        self.stats = BatcherStats()
        self._cond = threading.Condition()
        self._queue: deque[tuple[float, object]] = deque()
        self._closed = False

    @property
    def depth(self) -> int:
        """Items currently queued (admitted but not yet taken)."""
        with self._cond:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._cond:
            return self._closed

    def put(self, item: object) -> None:
        """Admit ``item``, waking any dispatcher waiting on the window.

        Raises :class:`ServerClosedError` after :meth:`close` and
        :class:`ServerOverloadedError` when the queue is at capacity.
        """
        with self._cond:
            if self._closed:
                raise ServerClosedError("micro-batcher is closed")
            if len(self._queue) >= self.max_queue_depth:
                self.stats.items_rejected += 1
                raise ServerOverloadedError(
                    f"admission queue is full ({self.max_queue_depth} pending); "
                    "back off and retry"
                )
            self._queue.append((time.monotonic(), item))
            self.stats.items_admitted += 1
            # Wake dispatchers only when it changes what they would do: the
            # first arrival unblocks an empty-queue wait, and a full window
            # triggers flush-on-size.  Intermediate arrivals are picked up by
            # the bounded gap/deadline waits in take() — skipping the wakeup
            # per admission keeps the hot path cheap under load.
            depth = len(self._queue)
            if depth == 1 or depth >= self.max_batch_size:
                self._cond.notify_all()

    def take(self) -> list[object] | None:
        """Block until a batch is ready; ``None`` once closed and drained.

        A batch is ready when ``max_batch_size`` items are pending, when no
        new item arrived within ``idle_gap_seconds`` (if set), when the
        oldest pending item has waited ``max_delay_seconds``, or when the
        batcher is closed (remaining items are flushed in batch-size chunks).
        """
        with self._cond:
            while not self._queue and not self._closed:
                self._cond.wait()
            if not self._queue:
                return None  # closed and drained
            idle_flush = False
            started = time.monotonic()
            deadline = self._queue[0][0] + self.max_delay_seconds
            if self.idle_gap_seconds is not None:
                # Give every batch at least one gap of collection time, even
                # when items queued up during the previous execution and the
                # oldest is already past its window: clients released by that
                # execution resubmit within a gap, and folding them in is what
                # lets the batch grow to the full client count instead of
                # locking into alternating half-sized cohorts.  Worst-case
                # added latency is one gap on top of max_delay_seconds.
                deadline = max(deadline, started + self.idle_gap_seconds)
            while len(self._queue) < self.max_batch_size and not self._closed:
                now = time.monotonic()
                remaining = deadline - now
                if remaining <= 0:
                    break
                if self.idle_gap_seconds is None:
                    self._cond.wait(timeout=remaining)
                    continue
                # Idle once a gap has passed since the newest arrival (or
                # since this take started, for items queued before it),
                # measured from arrival stamps rather than in whole gaps.
                newest = self._queue[-1][0] if self._queue else now
                idle_at = max(newest, started) + self.idle_gap_seconds
                if idle_at <= now:
                    idle_flush = True  # arrival stream paused: stop waiting
                    break
                self._cond.wait(timeout=min(remaining, idle_at - now))
            count = min(len(self._queue), self.max_batch_size)
            batch = [self._queue.popleft()[1] for _ in range(count)]
            if self._closed:
                self.stats.flushes_on_close += 1
            elif count >= self.max_batch_size:
                self.stats.flushes_on_size += 1
            elif idle_flush:
                self.stats.flushes_on_idle += 1
            else:
                self.stats.flushes_on_deadline += 1
            self.stats.largest_batch = max(self.stats.largest_batch, count)
            return batch

    def drain(self) -> list[object]:
        """Remove and return every queued item without flush accounting.

        This is crash cleanup, not a batch: when a dispatcher exits
        abnormally, the front-end drains the queue so every admitted request
        can be completed exceptionally instead of blocking forever.
        """
        with self._cond:
            items = [item for _, item in self._queue]
            self._queue.clear()
            return items

    def close(self) -> None:
        """Stop admissions; queued items keep draining through :meth:`take`."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
