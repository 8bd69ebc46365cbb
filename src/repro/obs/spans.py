"""Hierarchical wall-clock spans for the real execution path.

The paper's methodology is *hotspot-guided*: measure where the time goes
(S1 `YᵀY + λI`, S2 `Yᵀ·r_u`, S3 the solve — §V, Fig. 8), then pick a
code variant from that breakdown.  The cost model gives that visibility
for *simulated* device time; this module gives it for *measured* host
time, with the same span granularity, so the two can sit side by side in
one trace (:mod:`repro.obs.export`).

Design constraints:

* **Zero-cost when disabled.**  A module-level flag gates everything;
  ``span(...)`` returns a shared no-op context manager and the metric
  helpers early-return, so instrumented hot paths pay one attribute
  lookup and one branch.
* **Deterministic in tests.**  The clock is injectable
  (:func:`set_clock`), so nesting and aggregation tests run against a
  fake clock instead of ``perf_counter`` jitter.
* **Zero dependencies.**  stdlib only; exporters live elsewhere.

Usage::

    from repro.obs import capture, span, traced

    with capture() as tracer:                 # enable + collect
        with span("als.iteration", iteration=1):
            with span("als.s3.solve", stage="S3"):
                ...
    tracer.records                            # finished SpanRecords
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "SpanRecord",
    "Tracer",
    "span",
    "traced",
    "enable",
    "disable",
    "is_enabled",
    "capture",
    "current_span",
    "get_tracer",
    "set_clock",
    "set_span_observer",
    "clear",
    "StageFold",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: a named interval on one thread's span stack."""

    span_id: int
    name: str
    cat: str
    start: float  # clock() at entry (seconds; clock-relative, not epoch)
    duration: float  # wall-clock seconds, children included
    self_duration: float  # seconds minus direct children
    tid: int
    depth: int  # 0 = root of its thread's stack
    parent_id: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: object) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _ActiveSpan:
    """A span that is currently open; becomes a SpanRecord on exit."""

    __slots__ = ("_tracer", "name", "cat", "attrs", "span_id", "start", "_child")

    def __init__(self, tracer: "Tracer", name: str, cat: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.span_id = 0
        self.start = 0.0
        self._child = 0.0

    def set(self, **attrs: object) -> "_ActiveSpan":
        """Attach attributes after entry (e.g. results known at exit)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        self.span_id = tracer._next_id()
        tracer._stack().append(self)
        self.start = tracer.clock()
        return self

    def __exit__(self, *exc: object) -> bool:
        tracer = self._tracer
        duration = tracer.clock() - self.start
        stack = tracer._stack()
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent._child += duration
        record = SpanRecord(
            span_id=self.span_id,
            name=self.name,
            cat=self.cat,
            start=self.start,
            duration=duration,
            self_duration=max(0.0, duration - self._child),
            tid=threading.get_ident(),
            depth=len(stack),
            parent_id=parent.span_id if parent is not None else None,
            attrs=self.attrs,
        )
        tracer._record(record)
        observer = tracer.observer
        if observer is not None:
            observer(record)
        return False


class Tracer:
    """Collects finished spans from all threads; clock is injectable."""

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock: Callable[[], float] = clock or time.perf_counter
        self.records: list[SpanRecord] = []
        #: Optional callback invoked with every finished SpanRecord.  The
        #: metrics registry installs one on the global tracer to fold
        #: stage-tagged span durations into latency histograms.
        self.observer: Callable[[SpanRecord], None] | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._id = 0

    def current(self) -> "_ActiveSpan | None":
        """The innermost open span on this thread's stack, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def span(self, name: str, cat: str = "host", **attrs: object) -> _ActiveSpan:
        return _ActiveSpan(self, name, cat, attrs)

    def clear(self) -> None:
        with self._lock:
            self.records.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._id += 1
            return self._id

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self.records.append(record)


class StageFold:
    """Folds finished spans into per-stage *self* time.

    A span's ``self_duration`` is charged to the ``stage`` attribute of
    its nearest stage-tagged ancestor-or-self, so a stage span nested in
    another stage's span (the fused S2 matvec inside S1's tile loop) is
    counted once, under its own stage, while untagged helper spans (S1's
    per-bin spans) stay inside the stage that encloses them.  Feed
    records children first — the order a :class:`Tracer` records them.
    """

    def __init__(self) -> None:
        self._carry: dict[int, float] = {}

    def add(self, record: SpanRecord) -> tuple[str, float] | None:
        """``(stage, seconds)`` when ``record`` is stage-tagged, else ``None``."""
        own = record.self_duration + self._carry.pop(record.span_id, 0.0)
        stage = record.attrs.get("stage")
        if stage is not None:
            return stage, own
        parent = record.parent_id
        if parent is not None:
            self._carry[parent] = self._carry.get(parent, 0.0) + own
        return None


_ENABLED = False
_TRACER = Tracer()


def is_enabled() -> bool:
    """Whether spans (and the gated metric helpers) are recording."""
    return _ENABLED


def enable() -> None:
    """Turn instrumentation on (spans record into the global tracer)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn instrumentation off (``span`` hands out a shared no-op)."""
    global _ENABLED
    _ENABLED = False


def get_tracer() -> Tracer:
    """The process-global tracer the module-level ``span`` records into."""
    return _TRACER


def clear() -> None:
    """Drop all collected spans."""
    _TRACER.clear()


def set_clock(clock: Callable[[], float] | None) -> None:
    """Swap the global tracer's clock (``None`` restores perf_counter)."""
    _TRACER.clock = clock or time.perf_counter


def set_span_observer(observer: "Callable[[SpanRecord], None] | None") -> None:
    """Install (or clear) the global tracer's span-end callback."""
    _TRACER.observer = observer


def current_span():
    """The innermost open span on this thread (``None`` when idle/disabled).

    Event logs use this to attach span context (``name``/``span_id``) to
    structured events emitted from inside instrumented code.
    """
    return _TRACER.current()


def span(name: str, cat: str = "host", **attrs: object):
    """Open a wall-clock span (context manager); no-op while disabled."""
    if not _ENABLED:
        return _NOOP
    return _TRACER.span(name, cat, **attrs)


def traced(name: str | None = None, cat: str = "host", **attrs: object):
    """Decorator form of :func:`span`, named after the function by default."""

    def decorate(fn: Callable) -> Callable:
        span_name = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args: object, **kwargs: object):
            if not _ENABLED:
                return fn(*args, **kwargs)
            with _TRACER.span(span_name, cat, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


@contextmanager
def capture(clear_first: bool = True):
    """Enable tracing for a block and yield the global tracer.

    Restores the previous enabled state on exit; by default starts from
    an empty record list so the block's spans are exactly what is
    collected (the profiler's and the tests' idiom).
    """
    global _ENABLED
    previous = _ENABLED
    if clear_first:
        _TRACER.clear()
    _ENABLED = True
    try:
        yield _TRACER
    finally:
        _ENABLED = previous
