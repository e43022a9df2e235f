"""Both ends of the framed socket protocol: client transport and frame server.

:class:`Transport` is the client-side channel contract;
:class:`SocketTransport`, its implementation, is a real blocking TCP
client with a small connection pool, speaking the :mod:`repro.net.wire`
frame protocol to a :mod:`repro.net.worker` process or the registry.

:class:`FrameServer` is the other end, shared by the worker and the
registry: one accept thread, one daemon thread per connection that reads
a frame, runs the handler and writes the response itself (Thrift's
threaded server), at most :data:`MAX_CONNECTIONS` of them.
:func:`respond` is the one decode → invoke → encode-the-outcome step
both servers hand it.

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
import time
from abc import ABC, abstractmethod
from types import SimpleNamespace
from typing import Any, Callable

from ..clock import perf_ms
from ..errors import NodeUnavailableError, RPCTimeoutError
from ..server.batch import NODE_RPC_METHODS, PaperReads
from ..server.rpc import RPCStats
from . import wire

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

#: Open connections (= serving threads) per server; one more is closed and counted.
MAX_CONNECTIONS = 256
#: Call budget of a worker's links to its replication peers and to the registry.
PEER_CALL_TIMEOUT_MS = 2_000.0


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


class RemoteNode(PaperReads):
    """Duck-typed node facade over a :class:`Transport`.

    Drop-in for :class:`~repro.server.proxy.RPCNodeProxy` wherever the
    cluster client routes: exposes ``node_id``, dispatches the node's RPC
    surface (:data:`~repro.server.batch.NODE_RPC_METHODS`) and the admin
    and replication endpoints via ``getattr``, has the paper's read names
    over ``multi_get`` as the node does, and publishes ``.rpc.stats`` so
    hedging keeps its network-latency estimate.  A ``deadline`` kwarg
    becomes the per-call socket timeout here.
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
            name in NODE_RPC_METHODS
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


def respond(
    payload: bytes, invoke: Callable[[str, tuple, dict], Any]
) -> wire.Response:
    """Decode one request, run ``invoke(method, args, kwargs)``, wrap the outcome."""
    start = perf_ms()
    request_id = 0
    try:
        message = wire.decode_message(payload)
        if not isinstance(message, wire.Request):
            raise wire.WireCodecError("expected a request frame")
        request_id = message.request_id
        value = invoke(message.method, message.args, message.kwargs)
    except Exception as exc:  # noqa: BLE001 - every error goes on the wire
        error_type, text, error_args = wire.error_to_wire(exc)
        return wire.Response(
            request_id=request_id,
            ok=False,
            error_type=error_type,
            error_message=text,
            error_args=error_args,
            server_ms=perf_ms() - start,
        )
    return wire.Response(
        request_id=request_id,
        ok=True,
        value=value,
        server_ms=perf_ms() - start,
    )


class FrameServer:
    """Thread-per-connection server for the framed wire protocol.

    ``handler`` turns one request payload into its response; ``name``
    labels the threads (``ips-accept-<name>``, ``ips-conn-<name>-<fd>``).
    A request is in flight from before the handler runs — counted under
    the lock that tests ``_closing`` — until after ``sendall`` returns,
    so :meth:`drain` misses none and cuts no response.  Stopping is three
    steps an owner may put its own between: :meth:`stop_accepting`,
    :meth:`drain`, :meth:`close_connections`.
    """

    def __init__(
        self, name: str, handler: Callable[[bytes], wire.Response]
    ) -> None:
        self.name = name
        self._handler = handler
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        #: Guards the fields below; the drain tests and counts in one hold.
        self._lock = threading.Lock()
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._inflight = 0
        self._closing = False
        self.connections_accepted = 0
        self.connections_refused = 0

    @property
    def connections(self) -> int:
        """Connections open now (= connection threads alive)."""
        return len(self._conns)

    def listen(self, host: str, port: int) -> int:
        """Bind, start the accept thread, return the bound port."""
        listener = self._listener = socket.create_server((host, port))
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            args=(listener,),
            name=f"ips-accept-{self.name}",
            daemon=True,
        )
        self._accept_thread.start()
        return listener.getsockname()[1]

    def stop_accepting(self) -> None:
        """Close the listener; every request read from here on is dropped."""
        with self._lock:
            self._closing = True
        listener, self._listener = self._listener, None
        if listener is None:
            return
        listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        listener.close()
        self._accept_thread.join()

    def drain(self, timeout_ms: float) -> None:
        """Wait until no request is in flight, for at most ``timeout_ms``."""
        deadline = perf_ms() + timeout_ms
        while self._inflight > 0 and perf_ms() < deadline:
            time.sleep(0.01)

    def close_connections(self) -> None:
        """Wake every thread idle in ``recv`` and wait for it to leave."""
        with self._lock:
            conns = dict(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer closed it first
        for thread in conns.values():
            thread.join(timeout=1.0)

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                if self._closing:
                    return  # listener shut down: the owner is stopping
                continue  # e.g. ECONNABORTED: that client left, the rest have not
            with self._lock:
                if self._closing or len(self._conns) >= MAX_CONNECTIONS:
                    self.connections_refused += 1
                    conn.close()  # the client sees NodeUnavailableError: retryable
                    continue
                self.connections_accepted += 1
                thread = self._conns[conn] = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name=f"ips-conn-{self.name}-{conn.fileno()}",
                    daemon=True,
                )
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """Read a frame, run it, send the answer — all on this thread."""
        try:
            while True:
                payload = wire.read_frame(conn)
                if payload is None:
                    break
                with self._lock:
                    if self._closing:
                        break  # unanswered, so unacked: the client retries
                    self._inflight += 1
                try:
                    conn.sendall(wire.encode_response(self._handler(payload)))
                finally:
                    with self._lock:
                        self._inflight -= 1
        except (wire.WireCodecError, OSError):
            pass  # torn frame or peer gone: drop this connection only
        finally:
            with self._lock:
                self._conns.pop(conn, None)
            conn.close()
