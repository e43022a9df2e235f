"""The benchmark's own spans, recorded around calls into each layer.

A span is ``(name, start, end, parent, request id)``.  Spans stay in
memory and are written to ``trace.jsonl`` when the run ends.  A layer's
*self time* is its span's duration minus the part of that interval its
child spans cover.  Nothing under ``src/`` knows about these spans:
:func:`wrap` substitutes a timing wrapper for a public function where
its caller looks it up, in the benchmark process only.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator


_MISSING = object()


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def duration_ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Collects spans; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            span = Span(
                len(self.spans), name, 0.0, 0.0,
                parent.span_id if parent else None, request,
            )
            self.spans.append(span)
        stack.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()

    def wrap(self, owner: object, attribute: str, name: str) -> Callable[[], None]:
        """Time every call of ``owner.attribute`` as span ``name``.

        ``owner`` is whatever the caller looks the function up on: an
        instance, a class or a module.  Returns the function that puts
        the original back exactly as it was.
        """
        original = getattr(owner, attribute)
        raw = vars(owner).get(attribute, _MISSING)

        def timed(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(
            owner, attribute,
            staticmethod(timed) if isinstance(raw, staticmethod) else timed,
        )

        def restore() -> None:
            if raw is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, raw)

        return restore

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.__dict__) + "\n")


def self_times_ms(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus what its children cover.

    Overlapping children (a parent that fans out to threads) are merged
    first, so covered time is never counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.span_id] = (span.end - span.start - covered) * 1000.0
    return out
