"""The socket transport behind the :class:`Transport` interface.

:class:`Transport` is the client-side channel contract;
:class:`SocketTransport`, its implementation, is a real blocking TCP
client with a small connection pool, speaking the :mod:`repro.net.wire`
frame protocol to a :mod:`repro.net.worker` process.

It records per-call accounting into the same
:class:`~repro.server.rpc.RPCStats` as the simulated RPC path (client
wall latency + server-side handler time), so the cluster client's
hedging policy — which reads ``rpc.stats.last_client_ms -
last_server_ms`` as the network estimate — works unchanged over real
sockets.

:class:`RemoteNode` is the duck-typed node facade the cluster client
routes to: it exposes ``node_id`` plus ``getattr`` method dispatch
exactly like :class:`~repro.server.proxy.RPCNodeProxy`, translating the
client's ``deadline`` kwarg into a per-call socket timeout.
"""

from __future__ import annotations

import itertools
import socket
import threading
from abc import ABC, abstractmethod
from types import SimpleNamespace
from typing import Any

from ..clock import perf_ms
from ..errors import NodeUnavailableError, RPCTimeoutError
from ..server.rpc import RPCStats
from . import wire

#: Methods a remote node serves over the wire: the proxy's RPC surface
#: plus the admin/ops endpoints the cluster manager uses.
RPC_METHODS = frozenset(
    {
        "add_profile",
        "add_profiles",
        "get_profile_topk",
        "get_profile_filter",
        "get_profile_decay",
        "multi_get_topk",
        "multi_get_filter",
        "multi_get_decay",
    }
)

ADMIN_METHODS = frozenset(
    {
        "ping",
        "node_stats",
        "checkpoint_now",
        "prepare_shutdown",
    }
)

#: Worker-to-worker replication surface: delta apply, anti-entropy digest
#: exchange, and the stats the failover bench and fleet reports poll.
REPLICATION_METHODS = frozenset(
    {
        "replicate_apply",
        "repair_digests",
        "repair_install",
        "repair_now",
        "replication_stats",
    }
)


class Transport(ABC):
    """One client-side channel to one node, whatever the medium."""

    #: Per-transport call accounting (client/server latency, failures).
    stats: RPCStats

    @property
    @abstractmethod
    def node_id(self) -> str:
        """Identifier of the node this transport reaches."""

    @abstractmethod
    def call(self, method: str, *args: Any, timeout_ms: float | None = None,
             **kwargs: Any) -> Any:
        """Invoke ``method`` remotely; raises the reconstructed error."""

    def close(self) -> None:  # pragma: no cover - default no-op
        """Release any underlying connections."""


class SocketTransport(Transport):
    """Blocking TCP client speaking the framed wire protocol.

    Maintains a small pool of persistent connections (one per concurrent
    caller up to ``pool_size``); connections are dialled lazily, reused
    across calls, and discarded on any error so a half-written frame can
    never poison a later request.  Timeouts surface as
    :class:`~repro.errors.RPCTimeoutError`; connection failures as
    :class:`~repro.errors.NodeUnavailableError` — both retryable, so the
    resilience layer reroutes exactly as it does for simulated faults.
    """

    def __init__(
        self,
        node_id: str,
        host: str,
        port: int,
        *,
        connect_timeout_ms: float = 1_000.0,
        call_timeout_ms: float = 5_000.0,
        pool_size: int = 4,
    ) -> None:
        self._node_id = node_id
        self.host = host
        self.port = port
        self.connect_timeout_ms = connect_timeout_ms
        self.call_timeout_ms = call_timeout_ms
        self._pool: list[socket.socket] = []
        self._pool_size = pool_size
        self._lock = threading.Lock()
        self._request_ids = itertools.count(1)
        self._closed = False
        self.stats = RPCStats()
        #: Connections actually dialled; stays at pool_size under reuse.
        self.dials = 0

    @property
    def node_id(self) -> str:
        return self._node_id

    # -- connection pool ------------------------------------------------

    def _checkout(self) -> socket.socket:
        with self._lock:
            if self._closed:
                raise NodeUnavailableError(self._node_id)
            if self._pool:
                return self._pool.pop()
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_ms / 1000.0
            )
        except OSError as exc:
            raise NodeUnavailableError(self._node_id) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            self.dials += 1
        return sock

    def _checkin(self, sock: socket.socket) -> None:
        with self._lock:
            if not self._closed and len(self._pool) < self._pool_size:
                self._pool.append(sock)
                return
        sock.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for sock in pool:
            sock.close()

    # -- wire I/O -------------------------------------------------------

    def _roundtrip(self, sock: socket.socket, frame: bytes) -> wire.Response:
        sock.sendall(frame)
        payload = wire.read_frame(sock)
        if payload is None:
            raise ConnectionError("peer closed the connection")
        message = wire.decode_message(payload)
        if not isinstance(message, wire.Response):
            raise wire.WireCodecError("expected a response frame")
        return message

    def call(self, method: str, *args: Any, timeout_ms: float | None = None,
             **kwargs: Any) -> Any:
        request = wire.Request(
            next(self._request_ids), method, tuple(args), dict(kwargs)
        )
        frame = wire.encode_request(request)
        budget_ms = timeout_ms if timeout_ms is not None else self.call_timeout_ms
        start = perf_ms()
        sock = self._checkout()
        try:
            sock.settimeout(max(budget_ms, 1.0) / 1000.0)
            response = self._roundtrip(sock, frame)
            if response.request_id != request.request_id:
                raise wire.WireCodecError(
                    f"response id {response.request_id} does not match "
                    f"request id {request.request_id}"
                )
        except Exception as exc:
            sock.close()  # broken or out of step: never back into the pool
            with self._lock:
                self.stats.calls += 1
                self.stats.failures += 1
            if isinstance(exc, socket.timeout):
                raise RPCTimeoutError(
                    f"call {method} to {self._node_id} timed out after "
                    f"{budget_ms:g} ms"
                ) from exc
            if isinstance(exc, OSError):
                raise NodeUnavailableError(self._node_id) from exc
            raise
        self._checkin(sock)
        client_ms = perf_ms() - start
        with self._lock:
            self.stats.calls += 1
            if response.ok:
                self.stats.observe(client_ms, response.server_ms)
            else:
                self.stats.failures += 1
        if not response.ok:
            raise wire.error_from_wire(
                response.error_type, response.error_message, response.error_args
            )
        return response.value


class RemoteNode:
    """Duck-typed node facade over a :class:`Transport`.

    Drop-in for :class:`~repro.server.proxy.RPCNodeProxy` wherever the
    cluster client routes: exposes ``node_id``, dispatches the RPC surface
    via ``getattr``, and publishes ``.rpc.stats`` so hedging keeps its
    network-latency estimate.  The client's ``deadline`` kwarg — consumed
    by the in-process path before it reaches the node — becomes the
    per-call socket timeout here.
    """

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        # The hedge policy reads `node.rpc.stats`; mirror the proxy shape.
        self.rpc = SimpleNamespace(stats=transport.stats)

    @property
    def node_id(self) -> str:
        return self.transport.node_id

    def __getattr__(self, name: str) -> Any:
        if (
            name in RPC_METHODS
            or name in ADMIN_METHODS
            or name in REPLICATION_METHODS
        ):
            transport = self.transport

            def call(*args: Any, **kwargs: Any) -> Any:
                deadline = kwargs.pop("deadline", None)
                timeout_ms = None
                if deadline is not None:
                    remaining = deadline.remaining_ms()
                    deadline.check(name)
                    timeout_ms = max(remaining, 1.0)
                return transport.call(name, *args, timeout_ms=timeout_ms, **kwargs)

            return call
        raise AttributeError(name)

    def close(self) -> None:
        self.transport.close()
