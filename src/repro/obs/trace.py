"""Request-scoped tracing: span trees for every read/write in the stack.

The paper's evaluation *is* a latency decomposition (Table II: network vs
server compute; Figs. 16-19: per-stage percentiles).  :class:`Tracer`
records that decomposition per request as a span tree::

    client.multi_get_topk                  <- cluster client
      rpc.call {node=local-node-2}         <- one hop per shard
        node.multi_get {kind=topk, hits=5} <- node read path
          cache.get_many                   <- GCache probe
            storage.load {profile=17}      <- on miss only
          engine.execute {keys=3}          <- result-cache misses only

Spans carry two time measures:

* ``start_ms`` / ``end_ms`` — timestamps from the **active**
  :class:`~repro.clock.Clock`, so a simulated run shows modelled time
  (``clock_ms``) and a live run shows wall time;
* ``duration_ms`` — real compute cost from the clock's high-resolution
  perf source (``SystemClock.perf_ms``; simulated clocks fall back to the
  process-wide :func:`repro.clock.perf_ms`).  Nested spans always sum
  consistently within their parent on this measure.

Tracing is **off-by-default-cheap**: components default to
:data:`NULL_TRACER`, a no-op object whose ``span()`` returns a shared
do-nothing context manager — no allocation, no branching at call sites.
An enabled tracer additionally keeps a bounded ring of finished root
spans, feeds root durations into a :class:`~repro.obs.registry
.MetricsRegistry` when given one, and renders roots slower than
``slow_threshold_ms`` into an indented slow-query log.

Every root span gets a deterministic **trace id** (``t-<counter>``).
When a registry is attached, the root-duration histograms carry the
trace id as an exemplar, and an optional :class:`~repro.obs.tail
.TailSampler` retains the full span tree of interesting requests (slow,
errored, hedged, chaos-afflicted) — so a slow exposition bucket resolves
to a concrete retained trace.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque

from ..clock import Clock, SystemClock, perf_ms
from .registry import MetricsRegistry


class Span:
    """One timed operation; a node in a per-request span tree."""

    __slots__ = (
        "name",
        "tags",
        "children",
        "status",
        "start_ms",
        "end_ms",
        "duration_ms",
        "trace_id",
        "_tracer",
        "_start_perf",
    )

    def __init__(self, tracer: "Tracer", name: str, tags: dict) -> None:
        self.name = name
        self.tags = tags
        self.children: list[Span] = []
        self.status = "ok"
        self.start_ms = 0
        self.end_ms = 0
        self.duration_ms = 0.0
        #: Deterministic request id; assigned on root spans only.
        self.trace_id: str | None = None
        self._tracer = tracer
        self._start_perf = 0.0

    # -- context manager protocol --------------------------------------

    def __enter__(self) -> "Span":
        tracer = self._tracer
        tracer._push(self)
        self.start_ms = tracer._now()
        self._start_perf = tracer._perf()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        self.duration_ms = tracer._perf() - self._start_perf
        self.end_ms = tracer._now()
        if exc_type is not None:
            self.status = f"error:{exc_type.__name__}"
        tracer._pop(self)
        return False

    # ------------------------------------------------------------------

    def tag(self, **tags) -> "Span":
        """Attach tags after entry (e.g. hit counts known only at exit)."""
        self.tags.update(tags)
        return self

    @property
    def clock_ms(self) -> int:
        """Elapsed time on the active clock (modelled time under a
        :class:`~repro.clock.SimulatedClock` driven by the RPC layer)."""
        return self.end_ms - self.start_ms

    def iter_spans(self):
        """Depth-first iteration over this span and all descendants."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> list["Span"]:
        """Every span in this tree with the given name."""
        return [span for span in self.iter_spans() if span.name == name]

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, duration_ms={self.duration_ms:.3f}, "
            f"children={len(self.children)})"
        )


def render_span_tree(span: Span, indent: int = 0) -> str:
    """Indented one-line-per-span rendering (the slow-query log format)."""
    tags = "".join(
        f" {key}={value}" for key, value in sorted(span.tags.items())
    )
    status = "" if span.status == "ok" else f" [{span.status}]"
    trace_id = getattr(span, "trace_id", None)
    trace = f" trace={trace_id}" if trace_id is not None else ""
    lines = [
        f"{'  ' * indent}{span.name} {span.duration_ms:.3f}ms"
        f"{f' (clock {span.clock_ms}ms)' if span.clock_ms else ''}"
        f"{tags}{trace}{status}"
    ]
    for child in span.children:
        lines.append(render_span_tree(child, indent + 1))
    return "\n".join(lines)


class _NullSpan:
    """Shared do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()
    name = "noop"
    tags: dict = {}
    children: list = []
    status = "ok"
    start_ms = 0
    end_ms = 0
    duration_ms = 0.0
    clock_ms = 0
    trace_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def tag(self, **tags) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op returning constants."""

    enabled = False

    def span(self, name: str, **tags) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    @property
    def roots(self) -> tuple:
        return ()

    @property
    def slow_log(self) -> tuple:
        return ()

    def take_roots(self) -> list:
        return []


#: Process-wide disabled tracer; the default for every component.
NULL_TRACER = NullTracer()


class Tracer:
    """Records per-request span trees against the active clock.

    One tracer is shared by every layer of a deployment; because the
    transport is synchronous and in-process, a thread-local span stack is
    enough to parent spans correctly across client -> proxy -> node ->
    cache -> storage without passing span objects through call signatures.
    """

    enabled = True

    def __init__(
        self,
        clock: Clock | None = None,
        registry: MetricsRegistry | None = None,
        slow_threshold_ms: float | None = None,
        max_roots: int = 256,
        max_slow_log: int = 64,
        tail_sampler: "object | None" = None,
    ) -> None:
        self._clock = clock if clock is not None else SystemClock()
        #: Bound methods cached once: both run on every span enter/exit.
        self._now = self._clock.now_ms
        # Durations come from the active clock's perf source when it has
        # one; otherwise the process-wide monotonic wall source.
        self._perf = getattr(self._clock, "perf_ms", perf_ms)
        self._registry = registry
        #: name -> trace_root_ms histogram, so finishing a root skips the
        #: registry's lock after the first request of each span name.
        self._root_hists: dict[str, object] = {}
        self.slow_threshold_ms = slow_threshold_ms
        self.tail_sampler = tail_sampler
        self._roots: deque[Span] = deque(maxlen=max_roots)
        #: Slow roots are kept as spans and rendered lazily on access:
        #: string-building an entire tree per slow request is pure
        #: overhead on the serving path (render_span_tree is referentially
        #: transparent over a finished tree, so the output is identical).
        self._slow_log: deque[Span] = deque(maxlen=max_slow_log)
        self._local = threading.local()
        # Monotonic counter, never wall time or random: trace ids must
        # replay byte-identically across same-seed runs.
        self._trace_ids = itertools.count(1)
        self._id_lock = threading.Lock()

    # ------------------------------------------------------------------

    def span(self, name: str, **tags) -> Span:
        """A context manager recording one span under the current one."""
        return Span(self, name, tags)

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # -- stack discipline (called by Span) -----------------------------

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if not stack:
            with self._id_lock:
                span.trace_id = f"t-{next(self._trace_ids):08d}"
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            self._finish_root(span)

    def _finish_root(self, span: Span) -> None:
        self._roots.append(span)
        if self._registry is not None:
            hist = self._root_hists.get(span.name)
            if hist is None:
                hist = self._registry.histogram("trace_root_ms", span=span.name)
                self._root_hists[span.name] = hist
            hist.observe(span.duration_ms, trace_id=span.trace_id)
        threshold = self.slow_threshold_ms
        is_slow = threshold is not None and (
            span.duration_ms >= threshold or span.clock_ms >= threshold
        )
        if is_slow:
            self._slow_log.append(span)
        sampler = self.tail_sampler
        if sampler is not None:
            sampler.offer(span, slow=is_slow)

    # -- inspection ----------------------------------------------------

    @property
    def roots(self) -> tuple[Span, ...]:
        """Finished root spans, oldest first (bounded ring)."""
        return tuple(self._roots)

    @property
    def slow_log(self) -> tuple[str, ...]:
        """Rendered span trees of requests over the slow threshold."""
        return tuple(render_span_tree(span) for span in self._slow_log)

    def take_roots(self) -> list[Span]:
        """Drain and return the finished root spans."""
        roots = list(self._roots)
        self._roots.clear()
        return roots
