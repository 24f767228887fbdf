"""Span-style tracing layered on the engine's bounded :class:`Tracer`.

A *span* is a named interval of simulated time: ``begin()`` stamps the
clock, ``end()`` stamps it again and produces the duration.  Spans give
two outputs at once:

* **ring records** — when the underlying tracer is enabled, every span
  emits an ``<kind>:enter`` record at ``begin`` and an ``<kind>:exit``
  record (whose detail carries the duration) at ``end``, into the same
  bounded ring as ad-hoc ``Tracer.emit`` events, so spans and point
  events interleave chronologically in one place;
* **latency histograms** — when a metrics scope is attached, every
  ``end()`` feeds the duration into the fixed-bucket histogram
  ``<scope>.<kind>_ns`` *regardless* of whether the ring is enabled.
  Histograms are cheap (one bisect) and always-on, which is what lets a
  full harness run export DMA/receive-wait latency distributions without
  anyone remembering to flip tracing on.

Spans nest freely (the handle carries its own start time; there is no
global stack) and are safe to use from interleaved simulation processes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, NamedTuple, Optional

from ..engine.trace import Tracer
from .metrics import Histogram, MetricsScope


class SpanHandle(NamedTuple):
    """An open span: everything ``end()`` needs to close it."""

    source: str
    kind: str
    start_ns: float


class SpanTracer:
    """Produces spans against a simulation clock.

    ``clock`` is a zero-argument callable returning the current simulated
    time in nanoseconds (``lambda: sim.now``); injecting it keeps this
    module free of any dependency on the simulator itself.
    """

    def __init__(
        self,
        tracer: Tracer,
        clock: Callable[[], float],
        metrics: Optional[MetricsScope] = None,
    ):
        self.tracer = tracer
        self.clock = clock
        self.metrics = metrics
        self.spans_closed = 0
        #: kind -> its histogram, looked up at the kind's first ``end()``.
        self._histograms: Dict[str, Histogram] = {}

    @property
    def ring_enabled(self) -> bool:
        """Whether enter/exit records currently reach the trace ring."""
        return self.tracer.enabled

    def begin(self, source: str, kind: str, detail: Any = None) -> SpanHandle:
        """Open a span; returns the handle ``end()`` consumes."""
        start = self.clock()
        if self.tracer.enabled:
            self.tracer.emit(start, source, f"{kind}:enter", detail)
        return SpanHandle(source, kind, start)

    def end(self, handle: SpanHandle, detail: Any = None) -> float:
        """Close a span; returns its duration in nanoseconds."""
        now = self.clock()
        duration = now - handle.start_ns
        if self.tracer.enabled:
            self.tracer.emit(
                now, handle.source, f"{handle.kind}:exit",
                {"duration_ns": duration, "detail": detail},
            )
        if self.metrics is not None:
            hist = self._histograms.get(handle.kind)
            if hist is None:
                hist = self._histograms[handle.kind] = \
                    self.metrics.histogram(f"{handle.kind}_ns")
            hist.observe(duration)
        self.spans_closed += 1
        return duration

    @contextmanager
    def span(self, source: str, kind: str, detail: Any = None) -> Iterator[SpanHandle]:
        """Context-manager form for non-generator code paths.

        Simulation coroutines should prefer explicit ``begin``/``end``
        around their ``yield``s; ``with`` blocks only measure a nonzero
        duration when simulated time advances inside them.
        """
        handle = self.begin(source, kind, detail)
        try:
            yield handle
        finally:
            self.end(handle)
