"""Outside-in span tracer for the benchmark's traced runs.

The library has no tracing of its own, so the traced run wraps the public
entry points of each layer (class methods and module-level functions) with
timing shims, runs the workload, and restores every original in a
``finally``.  Each span records its name, start, end, parent span and the
request it belongs to; spans stay in memory until the run ends.  A layer's
self time is its spans' time minus the time their child spans cover.

Layer spans nest per thread.  Work that a request causes on another thread
(the serving front-end's dispatcher) is recorded as root spans of that
thread; the serving workload links it back to its clients by query identity.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    """One timed call into a layer."""

    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    thread: int


class Tracer:
    """Records spans around entry points patched with :meth:`wrap`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Per-thread state: the open span stack, and scratch space for hooks.
        self.local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- span stack ------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def stack_names(self) -> list[str]:
        """Names of the open spans on the calling thread, outermost first."""
        return [self.spans[i].name for i in self._stack()]

    def open(self, name: str, request: int | None = None) -> int:
        """Open a span on the calling thread and return its index."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        span = Span(name, 0.0, 0.0, parent, request, threading.get_ident())
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        return index

    def close(self, index: int) -> float:
        """Close the span ``index`` (the innermost open one); returns its end."""
        end = time.perf_counter()
        self.spans[index].end = end
        self._stack().pop()
        return end

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name`` (safe from any thread)."""
        with self._lock:
            self.counters[name] += amount

    def record(self, name: str, start: float, end: float, request: int | None) -> None:
        """Add an already-measured span as a root of the calling thread."""
        with self._lock:
            self.spans.append(Span(name, start, end, None, request, threading.get_ident()))

    # -- patching ----------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str | None, after=None) -> None:
        """Replace ``owner.attr`` with a shim; ``name=None`` records no span.

        ``after(tracer, span, args, result)`` runs once the call returned,
        outside the span (``span`` is its index, or ``None``), to record
        counters measured at this boundary.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def shim(*args, **kwargs):
            index = None
            if name is None:
                result = original(*args, **kwargs)
            else:
                index = tracer.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(index)
            if after is not None:
                after(tracer, index, args, result)
            return result

        shim.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, shim)

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------------

    def span_self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        return [
            span.end - span.start - child
            for span, child in zip(self.spans, child_time)
        ]

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        totals: dict[str, float] = defaultdict(float)
        for span, seconds in zip(self.spans, self.span_self_times()):
            totals[span.name] += seconds
        return dict(totals)

    def calls(self) -> dict[str, int]:
        """Number of spans per name."""
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span.name] += 1
        return dict(counts)
