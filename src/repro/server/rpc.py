"""Simulated RPC transport (the Thrift substitute).

The paper decomposes end-to-end latency into network transmission plus
server-side compute (Table II): the network contributes roughly 3 ms and
grows proportionally with the response size.  :class:`LatencyModel`
reproduces that decomposition so client-side latency measurements in our
experiments carry the same structure; :class:`RPCServer` wraps a node's
handlers with the model and per-call accounting.

The transport is in-process and synchronous: "sending" a request charges
simulated milliseconds on a :class:`~repro.clock.SimulatedClock` (when one
is used) and records client/server latencies into bounded log-bucket
histograms (:class:`RPCStats`), so a node can take billions of calls
without the stats growing.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from ..clock import Clock, SimulatedClock, perf_ms
from ..errors import NodeUnavailableError
from ..obs.registry import Histogram
from .batch import BatchKeyResult


@dataclass(frozen=True)
class RPCFault:
    """One transport-level fault decision for a single call.

    Produced by a fault hook (see :attr:`RPCServer.fault_hook`) — normally
    the chaos engine — and applied by :meth:`RPCServer.call`:
    ``extra_latency_ms`` is added to the modelled client latency (and the
    simulated clock when the server advances it); a non-``None`` ``error``
    is raised instead of dispatching the handler.
    """

    extra_latency_ms: float = 0.0
    error: Exception | None = None


@dataclass
class LatencyModel:
    """Latency decomposition of one hop.

    ``network_base_ms`` is the fixed round-trip overhead (~3 ms in the
    paper); ``per_kb_ms`` grows the cost proportionally to the payload;
    ``jitter_ms`` adds uniform noise so percentile curves are non-trivial.
    """

    network_base_ms: float = 3.0
    per_kb_ms: float = 0.05
    jitter_ms: float = 0.5
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def network_ms(self, payload_bytes: int) -> float:
        jitter = self._rng.uniform(0.0, self.jitter_ms) if self.jitter_ms else 0.0
        return self.network_base_ms + self.per_kb_ms * (payload_bytes / 1024.0) + jitter


class RPCStats:
    """Bounded per-server call accounting.

    Latency samples go into fixed-size log-bucket histograms instead of
    unbounded lists; ``last_client_ms`` / ``last_server_ms`` keep the most
    recent sample for call-level assertions and per-call exports.
    """

    __slots__ = (
        "calls",
        "failures",
        "client_hist",
        "server_hist",
        "last_client_ms",
        "last_server_ms",
    )

    def __init__(self) -> None:
        self.calls = 0
        self.failures = 0
        self.client_hist = Histogram()
        self.server_hist = Histogram()
        self.last_client_ms = 0.0
        self.last_server_ms = 0.0

    def observe(self, client_ms: float, server_ms: float) -> None:
        self.client_hist.record(client_ms)
        self.server_hist.record(server_ms)
        self.last_client_ms = client_ms
        self.last_server_ms = server_ms

    def percentile(self, q: float, kind: str = "client") -> float:
        """Latency percentile (``q`` in [0, 100]) for ``client`` or
        ``server`` samples — the accessor existing callers keep using."""
        if kind == "client":
            return self.client_hist.percentile(q)
        if kind == "server":
            return self.server_hist.percentile(q)
        raise ValueError(f"kind must be 'client' or 'server', got {kind!r}")


class RPCServer:
    """Dispatches named methods on a target object through the latency model.

    ``server_time_ms`` lets callers supply the simulated server-side
    compute time for a call (e.g. from measured service-time
    distributions); ``measure_server_time=True`` instead measures the real
    handler wall time through the clock's perf source — the mode the node
    proxy uses so proxied traffic yields a real-code Table II.  When the
    shared clock is a :class:`SimulatedClock` the total latency advances
    it, so driver loops see consistent timelines.
    """

    def __init__(
        self,
        target: Any,
        clock: Clock,
        latency_model: LatencyModel | None = None,
        advance_clock: bool = False,
    ) -> None:
        self._target = target
        self._clock = clock
        self._model = latency_model if latency_model is not None else LatencyModel()
        self._advance_clock = advance_clock
        self._lock = threading.Lock()
        self.stats = RPCStats()
        self.available = True
        #: Optional per-call fault source ``(node_id, method) -> RPCFault |
        #: None`` consulted before dispatch — the chaos engine's injection
        #: point for dropped/erroring RPCs and added latency.
        self.fault_hook: Callable[[str, str], RPCFault | None] | None = None

    def set_available(self, available: bool) -> None:
        """Simulate the node going down / coming back (fault injection)."""
        self.available = available

    def call(
        self,
        method: str,
        *args: Any,
        request_bytes: int = 256,
        server_time_ms: float = 0.0,
        measure_server_time: bool = False,
        **kwargs: Any,
    ) -> Any:
        """Invoke ``method`` on the target, charging simulated latency.

        Raises :class:`NodeUnavailableError` when the server is marked
        down; other handler exceptions propagate unchanged after being
        counted as failures.
        """
        node_id = getattr(self._target, "node_id", "unknown")
        if not self.available:
            with self._lock:
                self.stats.calls += 1
                self.stats.failures += 1
            raise NodeUnavailableError(node_id)
        fault = (
            self.fault_hook(node_id, method) if self.fault_hook is not None else None
        )
        extra_latency_ms = 0.0
        if fault is not None:
            extra_latency_ms = fault.extra_latency_ms
            if fault.error is not None:
                with self._lock:
                    self.stats.calls += 1
                    self.stats.failures += 1
                if self._advance_clock and isinstance(self._clock, SimulatedClock):
                    # A dropped/erroring call still burns wire time before
                    # the client sees the failure.
                    self._clock.advance(
                        max(1, round(self._model.network_base_ms + extra_latency_ms))
                    )
                raise fault.error
        handler: Callable[..., Any] = getattr(self._target, method)
        start = perf_ms() if measure_server_time else 0.0
        try:
            result = handler(*args, **kwargs)
        except Exception:
            with self._lock:
                self.stats.calls += 1
                self.stats.failures += 1
            raise
        if measure_server_time:
            server_time_ms = perf_ms() - start
        response_bytes = self._estimate_size(result)
        network_ms = self._model.network_ms(request_bytes + response_bytes)
        client_ms = network_ms + server_time_ms + extra_latency_ms
        with self._lock:
            self.stats.calls += 1
            self.stats.observe(client_ms, server_time_ms)
        if self._advance_clock and isinstance(self._clock, SimulatedClock):
            self._clock.advance(max(1, round(client_ms)))
        return result

    @staticmethod
    def _estimate_size(result: Any) -> int:
        """Rough response payload size for the proportional network cost."""
        if result is None:
            return 16
        if isinstance(result, (bytes, bytearray)):
            return len(result)
        if isinstance(result, BatchKeyResult):
            # A per-key result envelope wrapping its rows (a list, or packed).
            value = result.value
            return 64 if value is None else 16 + 48 * len(value)
        if isinstance(result, (list, tuple)):
            return 16 + 48 * len(result)
        if isinstance(result, dict):
            # Batched responses: one envelope per key plus its payload.
            return 16 + sum(
                32 + RPCServer._estimate_size(value) for value in result.values()
            )
        return 64
