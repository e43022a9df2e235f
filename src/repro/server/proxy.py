"""RPC-fronted node proxy: the Thrift substitute in the serving path.

:class:`RPCNodeProxy` wraps an :class:`~repro.server.node.IPSNode` behind
the :class:`~repro.server.rpc.RPCServer` transport so every call pays the
modelled network cost and both server-side and client-side latency are
recorded per request — the decomposition Table II reports.  Server-side
time is the *measured* wall-clock time of the real handler (the RPC layer
times it), so proxied traffic yields a real-code Table II.

Each hop can be observed two ways:

* a :class:`~repro.obs.trace.Tracer` records an ``rpc.call`` span per
  proxied call (child of whatever client span is open on the thread);
* a :class:`~repro.obs.registry.MetricsRegistry` accumulates
  ``rpc_client_ms`` / ``rpc_server_ms`` histograms labelled by node.

The proxy forwards the node's RPC surface
(:data:`~repro.server.batch.NODE_RPC_METHODS`: ``multi_get``,
``add_profile``, ``add_profiles``) and, like the node, has the paper's
read names over its ``multi_get`` (:class:`~repro.server.batch.PaperReads`),
which makes it drop-in for the cluster client (duck-typed via
``getattr`` dispatch).
"""

from __future__ import annotations

from typing import Any

from ..clock import Clock
from ..obs.registry import MetricsRegistry
from ..obs.trace import NULL_TRACER
from .batch import NODE_RPC_METHODS, PaperReads
from .node import IPSNode
from .rpc import LatencyModel, RPCServer


class RPCNodeProxy(PaperReads):
    """Routes node calls through the simulated RPC transport."""

    def __init__(
        self,
        node: IPSNode,
        clock: Clock,
        latency_model: LatencyModel | None = None,
        tracer=NULL_TRACER,
        registry: MetricsRegistry | None = None,
        advance_clock: bool = False,
    ) -> None:
        self.node = node
        self.rpc = RPCServer(node, clock, latency_model, advance_clock=advance_clock)
        self.tracer = tracer
        self._client_hist = (
            registry.histogram("rpc_client_ms", node=node.node_id)
            if registry is not None
            else None
        )
        self._server_hist = (
            registry.histogram("rpc_server_ms", node=node.node_id)
            if registry is not None
            else None
        )

    @property
    def node_id(self) -> str:
        return self.node.node_id

    def set_available(self, available: bool) -> None:
        self.rpc.set_available(available)

    def __getattr__(self, name: str) -> Any:
        if name in NODE_RPC_METHODS:
            def call(*args: Any, **kwargs: Any) -> Any:
                with self.tracer.span(
                    "rpc.call", node=self.node.node_id, method=name
                ) as span:
                    result = self.rpc.call(
                        name, *args, measure_server_time=True, **kwargs
                    )
                    stats = self.rpc.stats
                    span.tag(
                        client_ms=round(stats.last_client_ms, 3),
                        server_ms=round(stats.last_server_ms, 3),
                    )
                if self._client_hist is not None:
                    self._client_hist.observe(stats.last_client_ms)
                    self._server_hist.observe(stats.last_server_ms)
                return result

            return call
        # Non-RPC attributes (stats, cache, engine, ...) pass through so
        # operational tooling keeps working against the proxy.
        return getattr(self.node, name)

    def crash(self) -> None:
        """Chaos seam: take the transport down *and* lose volatile state."""
        self.rpc.set_available(False)
        self.node.crash()

    def restart(self):
        """Chaos seam: bring the transport back up and recover durable state.

        With a durability layer attached, the restart replays checkpoint +
        WAL before accepting traffic and returns the
        :class:`~repro.server.recovery.RecoveryReport`; without one the
        node simply comes up cold and ``None`` is returned.
        """
        report = self.node.recover()
        self.rpc.set_available(True)
        return report

    def latency_summary(self) -> dict[str, float]:
        """Client/server latency summary over proxied calls (milliseconds)."""
        stats = self.rpc.stats
        if not stats.client_hist.count:
            return {}
        return {
            "calls": float(stats.calls),
            "client_p50_ms": stats.percentile(50, "client"),
            "client_p99_ms": stats.percentile(99, "client"),
            "server_p50_ms": stats.percentile(50, "server"),
            "server_p99_ms": stats.percentile(99, "server"),
        }


def wrap_region_with_proxies(
    deployment,
    latency_model: LatencyModel | None = None,
    tracer=NULL_TRACER,
    registry: MetricsRegistry | None = None,
    advance_clock: bool = False,
) -> list[RPCNodeProxy]:
    """Put every node of a cluster/deployment behind an :class:`RPCNodeProxy`.

    The standard way to build a "real" mini-cluster whose traffic pays the
    Table II network model — and the seam the chaos engine injects RPC
    faults into.  Idempotent: already-proxied nodes are left alone.
    Returns the proxies (one per node).
    """
    proxies: list[RPCNodeProxy] = []
    clock = deployment.clock
    for region in deployment.regions.values():
        for node_id in list(region.nodes):
            node = region.nodes[node_id]
            if not isinstance(node, RPCNodeProxy):
                node = RPCNodeProxy(
                    node,
                    clock,
                    latency_model=latency_model,
                    tracer=tracer,
                    registry=registry,
                    advance_clock=advance_clock,
                )
                region.nodes[node_id] = node
            proxies.append(node)
    return proxies
