"""Worker process: one durable IPSNode behind a thread-per-connection TCP server.

``python -m repro.net.worker --node-id w0 --data-dir /tmp/w0 ...`` hosts a
single :class:`~repro.server.node.IPSNode` with full file-backed
durability — CRC-framed KV store, group-commit WAL, checkpoint barrier —
recovers it on start, and serves the framed wire protocol on a TCP port.
One thread carries a request from ``recv`` to ``send``: each accepted
connection (at most :data:`MAX_CONNECTIONS`; one more is closed and
counted) gets a daemon thread that reads a frame, runs the handler and
writes the response itself, as Thrift's threaded server does — the node
stack is thread-safe and the real work releases the GIL in I/O and numpy.

Off the request path an asyncio loop keeps the registry connection and
four duties (blocking bodies on its default executor):

* **maintenance** — drain the isolation write table and run one cache
  cycle (which also drives periodic checkpoints) every
  ``maintenance_ms``;
* **heartbeat** — register with the node registry and refresh liveness
  every ``heartbeat_ms`` over one persistent registry connection,
  piggybacking the replication lag report and adopting the fresh
  membership roster; a rejected heartbeat (stale
  generation after an eviction) falls back to re-registration;
* **replication shipping** — drain the per-peer delta queues (see
  :mod:`repro.net.replication`) every ``replication_ms``;
* **anti-entropy repair** — one digest-exchange round against the next
  live peer every ``repair_ms``.

Graceful shutdown — SIGTERM or the ``prepare_shutdown`` admin RPC — is
strictly ordered so no acked write can be lost: stop accepting, drain
in-flight requests, deregister, close idle connections, then
``node.shutdown()`` (merge + flush + final checkpoint) and close the WAL
**before** the event loop exits.  A request is in flight from before
dispatch (counted under the lock that tests ``_closing``) until after
``sendall`` returns: the drain misses none and cuts no response.
Repeated SIGTERMs are harmless from the first to the last instruction:
the handler stays installed through the sequence and is swapped for
"ignore" — which interpreter finalization leaves alone — before
``main`` returns.  SIGKILL skips all of that by definition; the WAL
replay on the next start is the safety net (the crash-recovery contract
of `make crashcheck`).
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import socket
import sys
import threading
from pathlib import Path

from ..clock import perf_ms
from ..config import TableConfig
from ..server.node import IPSNode
from ..server.recovery import NodeDurability
from ..storage.filestore import FileKVStore
from ..storage.wal import FileLogFile, WriteAheadLog
from . import wire
from .replication import WorkerReplication
from .transport import (
    ADMIN_METHODS,
    REPLICATION_METHODS,
    RPC_METHODS,
    SocketTransport,
)

#: Open connections (= serving threads) per worker; one more is closed and counted.
MAX_CONNECTIONS = 256


def build_durable_node(
    node_id: str,
    data_dir: str | Path,
    *,
    table: str = "user_profile",
    attributes: tuple[str, ...] = ("like", "comment", "share"),
    checkpoint_interval: int = 256,
    wal_sync: str = "group",
    cache_capacity_bytes: int = 256 * 1024 * 1024,
) -> IPSNode:
    """Build a fully file-backed node and recover it.

    Everything lives under ``data_dir``: ``kv.log`` holds the flushed
    profiles, each stamped with the WAL sequence it contains (opened with
    ``durability="batch"`` — a checkpoint syncs it before it lets the WAL
    forget anything); ``wal.log`` holds the acked tail past the last
    barrier; ``checkpoint.log`` holds that barrier and nothing else.
    Recovery replays onto each tail-touched profile's stored value the
    records past its stamp; untouched profiles load from the store on
    their first miss.
    """
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    store = FileKVStore(data_dir / "kv.log", durability="batch")
    durability = NodeDurability(
        WriteAheadLog(FileLogFile(data_dir / "wal.log"), sync=wal_sync),
        FileLogFile(data_dir / "checkpoint.log"),
        checkpoint_interval_records=checkpoint_interval,
        node_id=node_id,
    )
    node = IPSNode(
        node_id,
        TableConfig(name=table, attributes=tuple(attributes)),
        store,
        cache_capacity_bytes=cache_capacity_bytes,
        durability=durability,
    )
    node.recover()
    return node


class WorkerServer:
    """Serves one node over TCP; embeddable in-thread or as a process."""

    def __init__(
        self,
        node: IPSNode,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        registry_host: str | None = None,
        registry_port: int | None = None,
        heartbeat_ms: float = 500.0,
        maintenance_ms: float = 200.0,
        drain_timeout_ms: float = 5_000.0,
        replication_factor: int = 0,
        replication_ms: float = 50.0,
        repair_ms: float = 2_000.0,
        data_dir: str | Path | None = None,
    ) -> None:
        self.node = node
        self.host = host
        self.port = port
        self.registry_host = registry_host
        self.registry_port = registry_port
        self.heartbeat_ms = heartbeat_ms
        self.maintenance_ms = maintenance_ms
        self.drain_timeout_ms = drain_timeout_ms
        self.replication_ms = replication_ms
        self.repair_ms = repair_ms
        self.replication = WorkerReplication(
            node,
            factor=replication_factor,
            data_dir=data_dir,
            transport_factory=lambda node_id, host_, port_: SocketTransport(
                node_id, host_, port_, call_timeout_ms=2_000.0, pool_size=1
            ),
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._listener: socket.socket | None = None
        self._shutdown_event: asyncio.Event | None = None
        #: Guards the four fields below; the drain tests and counts in one hold.
        self._conn_lock = threading.Lock()
        self._conns: dict[socket.socket, threading.Thread] = {}
        self._inflight = 0
        self._closing = False
        self.connections_refused = 0
        #: The one registry connection: (reader, writer), or None until
        #: the first call and after any failed exchange.
        self._registry_conn: (
            tuple[asyncio.StreamReader, asyncio.StreamWriter] | None
        ) = None
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._startup_error: BaseException | None = None
        #: Exposed for tests: set once the graceful sequence finished.
        self.shut_down_cleanly = False

    # ------------------------------------------------------------------
    # Embedded (thread) lifecycle — used by the transport tests
    # ------------------------------------------------------------------

    def start(self) -> "WorkerServer":
        self._thread = threading.Thread(
            target=self.run, name=f"ips-worker-{self.node.node_id}", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=15.0):
            raise RuntimeError("worker server did not start in time")
        if self._startup_error is not None:
            raise RuntimeError("worker server failed to start") from (
                self._startup_error
            )
        return self

    def stop(self) -> None:
        """Trigger the graceful sequence from another thread and wait."""
        self.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=15.0)

    def request_shutdown(self) -> None:
        loop, event = self._loop, self._shutdown_event
        if loop is not None and event is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:
                pass  # loop already closed: shutdown finished

    # ------------------------------------------------------------------
    # Main body
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Run the server until shutdown (blocks the calling thread)."""
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._serve())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
        finally:
            loop.close()

    async def _serve(self) -> None:
        loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        try:
            self._listener = socket.create_server((self.host, self.port))
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.port = self._listener.getsockname()[1]
        accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"ips-accept-{self.node.node_id}",
            daemon=True,
        )
        accept_thread.start()
        registered = None not in (self.registry_host, self.registry_port)
        duties = [self._duty_loop(self.maintenance_ms, self._maintenance_once)]
        if registered:
            ship, repair = self.replication.ship_once, self.replication.repair_round
            duties += [
                self._heartbeat_loop(),
                self._duty_loop(self.replication_ms, ship, replicated=True),
                self._duty_loop(self.repair_ms, repair, replicated=True),
            ]
        tasks = [loop.create_task(duty) for duty in duties]
        self._ready.set()
        print(f"READY {self.host} {self.port}", flush=True)
        await self._shutdown_event.wait()
        # ---- graceful ordering (satellite: SIGTERM must not lose acks) --
        with self._conn_lock:
            self._closing = True  # every request read from here on is dropped
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self._listener.close()
        accept_thread.join()
        deadline = loop.time() + self.drain_timeout_ms / 1000.0
        while self._inflight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.01)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        # A graceful leaver hands its last deltas to the surviving owners
        # before it drops out of the roster — otherwise the final window
        # of writes would exist nowhere but its own (departing) disk.
        if self.replication.enabled:
            await loop.run_in_executor(None, self._final_replication_drain)
        if registered:
            try:
                await self._registry_call("deregister", self.node.node_id)
            except Exception:  # noqa: BLE001 - registry may already be gone
                pass
            self._drop_registry_connection()
        self._close_connections()  # nothing else is left on the loop
        # The node flush + final checkpoint runs *before* the loop exits;
        # only then is the WAL closed.  This is the ordering under test.
        await loop.run_in_executor(None, self._close_node)
        self.shut_down_cleanly = True

    def _final_replication_drain(self, budget_s: float = 3.0) -> None:
        deadline = perf_ms() + budget_s * 1_000.0
        while perf_ms() < deadline:
            try:
                shipped = self.replication.ship_once()
            except Exception:  # noqa: BLE001 - peers may be gone too
                return
            if shipped == 0:
                # Either drained, or every remaining peer is unreachable;
                # both end the handoff — repair owes the rest.
                return

    def _close_node(self) -> None:
        self.replication.close()
        self.node.shutdown()  # merge + flush_all + final checkpoint
        if self.node.durability is not None:
            self.node.durability.close()
        store = getattr(self.node.persistence, "_store", None)
        if store is not None and hasattr(store, "close"):
            store.close()

    # ------------------------------------------------------------------
    # Request serving
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                if self._closing:
                    return  # listener shut down: the graceful sequence began
                continue  # e.g. ECONNABORTED: that client left, the rest have not
            with self._conn_lock:
                if self._closing or len(self._conns) >= MAX_CONNECTIONS:
                    self.connections_refused += 1
                    conn.close()  # the client sees NodeUnavailableError: retryable
                    continue
                thread = self._conns[conn] = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name=f"ips-conn-{self.node.node_id}-{conn.fileno()}",
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
                with self._conn_lock:
                    if self._closing:
                        break  # unanswered, so unacked: the client retries
                    self._inflight += 1
                try:
                    conn.sendall(wire.encode_response(self._dispatch(payload)))
                finally:
                    with self._conn_lock:
                        self._inflight -= 1
        except (wire.WireCodecError, OSError):
            pass  # torn frame or peer gone: drop this connection only
        finally:
            with self._conn_lock:
                self._conns.pop(conn, None)
            conn.close()

    def _close_connections(self) -> None:
        """Wake every thread idle in ``recv`` and wait for it to leave."""
        with self._conn_lock:
            conns = dict(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer closed it first
        for thread in conns.values():
            thread.join(timeout=1.0)

    def _dispatch(self, payload: bytes) -> wire.Response:
        start = perf_ms()
        request_id = 0
        try:
            message = wire.decode_message(payload)
            if not isinstance(message, wire.Request):
                raise wire.WireCodecError("expected a request frame")
            request_id = message.request_id
            value = self._invoke(message.method, message.args, message.kwargs)
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

    def _invoke(self, method: str, args: tuple, kwargs: dict):
        if method in RPC_METHODS:
            result = getattr(self.node, method)(*args, **kwargs)
            if (
                self.replication.enabled
                and method in ("add_profile", "add_profiles")
                and kwargs.get("caller") != "replication"
            ):
                # The write was acked (WAL-committed) — now fan the delta
                # out to the key's other owners, asynchronously.
                self._replicate_write(method, args)
            return result
        if method in REPLICATION_METHODS:
            return getattr(self, f"_repl_{method}")(*args, **kwargs)
        if method in ADMIN_METHODS:
            return getattr(self, f"_admin_{method}")(*args, **kwargs)
        raise wire.WireCodecError(f"unknown method {method!r}")

    def _replicate_write(self, method: str, args: tuple) -> None:
        if method == "add_profile":
            profile_id, timestamp_ms, slot, type_id, fid, counts = args[:6]
            self.replication.on_client_write(
                profile_id, timestamp_ms, slot, type_id, fid, counts
            )
        else:  # add_profiles: one delta per (fid, counts) pair
            profile_id, timestamp_ms, slot, type_id, fids, counts_list = args[:6]
            for fid, counts in zip(fids, counts_list):
                self.replication.on_client_write(
                    profile_id, timestamp_ms, slot, type_id, fid, counts
                )

    # ------------------------------------------------------------------
    # Admin surface
    # ------------------------------------------------------------------

    def _admin_ping(self) -> dict:
        return {"node_id": self.node.node_id, "pid": os.getpid()}

    def _admin_node_stats(self) -> dict:
        stats = self.node.node_stats()
        stats["pid"] = os.getpid()
        stats["connections"] = len(self._conns)
        stats["connections_refused"] = self.connections_refused
        if self.replication.enabled:
            stats["replication"] = self.replication.stats()
        return stats

    def _admin_checkpoint_now(self) -> dict:
        report = self.node.checkpoint()
        return {
            "checkpointed": report is not None,
            "wal_last_sequence": (
                self.node.durability.wal.last_sequence
                if self.node.durability is not None
                else 0
            ),
        }

    # ------------------------------------------------------------------
    # Replication surface (worker-to-worker + bench/ops introspection)
    # ------------------------------------------------------------------

    def _repl_replicate_apply(self, origin: str, deltas: list) -> dict:
        return self.replication.apply_remote(origin, deltas)

    def _repl_repair_digests(self, profile_ids: list) -> dict:
        return self.replication.repair_digests(list(profile_ids))

    def _repl_repair_install(self, profile_id: int, blobs: list) -> dict:
        return self.replication.repair_install(profile_id, list(blobs))

    def _repl_repair_now(self, rounds: int = 1) -> dict:
        """Run repair rounds synchronously (bench/test convergence helper)."""
        total = {"keys": 0, "shipped": 0, "bytes": 0}
        for _ in range(max(1, int(rounds))):
            result = self.replication.repair_round()
            for key in total:
                total[key] += result.get(key) or 0
        return total

    def _repl_replication_stats(self) -> dict:
        return self.replication.stats()

    def _admin_prepare_shutdown(self) -> dict:
        """Ack first, then run the same graceful sequence as SIGTERM."""
        loop = self._loop
        assert loop is not None
        loop.call_soon_threadsafe(
            loop.call_later, 0.05, self._shutdown_event.set
        )
        return {"shutting_down": True}

    # ------------------------------------------------------------------
    # Registry heartbeat
    # ------------------------------------------------------------------

    async def _registry_call(self, method: str, *args, **kwargs):
        """One exchange on the worker's persistent registry connection.

        Dialled on first use and again after any failed exchange — a
        dial per beat left ~1100 sockets in TIME_WAIT at steady state.
        """
        try:
            if self._registry_conn is None:
                self._registry_conn = await asyncio.open_connection(
                    self.registry_host, self.registry_port
                )
            reader, writer = self._registry_conn
            writer.write(
                wire.encode_request(wire.Request(1, method, args, kwargs))
            )
            await writer.drain()
            payload = await wire.read_frame_async(reader)
            if payload is None:
                raise ConnectionError("registry closed the connection")
            response = wire.decode_message(payload)
            if not isinstance(response, wire.Response):
                raise wire.WireCodecError("expected a response frame")
        except BaseException:
            # Whatever broke the exchange — a cancellation included — may
            # have left half of it on the wire: never reuse the socket.
            self._drop_registry_connection()
            raise
        if not response.ok:
            raise wire.error_from_wire(
                response.error_type,
                response.error_message,
                response.error_args,
            )
        return response.value

    def _drop_registry_connection(self) -> None:
        if self._registry_conn is not None:
            self._registry_conn[1].close()
            self._registry_conn = None

    async def _heartbeat_loop(self) -> None:
        generation: int | None = None
        while True:
            try:
                if generation is None:
                    reply = await self._registry_call(
                        "register", self.node.node_id, self.host, self.port
                    )
                    generation = reply["generation"]
                else:
                    alive = await self._registry_call(
                        "heartbeat",
                        self.node.node_id,
                        generation,
                        report=self.replication.heartbeat_report(),
                    )
                    if not alive:
                        # Evicted (e.g. a long GC pause): re-register with
                        # a fresh generation instead of going zombie.
                        generation = None
                        continue
                # Every beat also refreshes the replication roster — the
                # placement ring over live members + tombstones.  Done on
                # the register path too, so a worker knows its owner sets
                # before the first client write can land.
                snapshot = await self._registry_call("members")
                self.replication.update_membership(snapshot)
            except (OSError, ConnectionError, wire.WireCodecError):
                pass  # registry temporarily unreachable: retry next tick
            await asyncio.sleep(self.heartbeat_ms / 1000.0)

    async def _duty_loop(
        self, interval_ms: float, body, *, replicated: bool = False
    ) -> None:
        """Run a blocking duty every ``interval_ms``, off the loop thread."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval_ms / 1000.0)
            if replicated and not self.replication.enabled:
                continue
            try:
                await loop.run_in_executor(None, body)
            except Exception:  # noqa: BLE001 - keep the loop alive
                pass

    def _maintenance_once(self) -> None:
        self.node.merge_write_table()
        self.node.run_cache_cycle()  # also drives maybe_checkpoint


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Host one durable IPSNode over a TCP wire server."
    )
    parser.add_argument("--node-id", required=True)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--registry-host", default=None)
    parser.add_argument("--registry-port", type=int, default=None)
    parser.add_argument("--table", default="user_profile")
    parser.add_argument(
        "--attributes", default="like,comment,share",
        help="comma-separated counter schema",
    )
    parser.add_argument("--checkpoint-interval", type=int, default=256)
    parser.add_argument("--wal-sync", default="group",
                        choices=("always", "group", "manual"))
    parser.add_argument("--heartbeat-ms", type=float, default=500.0)
    parser.add_argument("--maintenance-ms", type=float, default=200.0)
    parser.add_argument(
        "--replication-factor", type=int, default=0,
        help="copies per key range; 0 adopts the registry's factor",
    )
    parser.add_argument("--replication-ms", type=float, default=50.0)
    parser.add_argument("--repair-ms", type=float, default=2_000.0)
    args = parser.parse_args(argv)

    node = build_durable_node(
        args.node_id,
        args.data_dir,
        table=args.table,
        attributes=tuple(a for a in args.attributes.split(",") if a),
        checkpoint_interval=args.checkpoint_interval,
        wal_sync=args.wal_sync,
    )
    server = WorkerServer(
        node,
        host=args.host,
        port=args.port,
        registry_host=args.registry_host,
        registry_port=args.registry_port,
        heartbeat_ms=args.heartbeat_ms,
        maintenance_ms=args.maintenance_ms,
        replication_factor=args.replication_factor,
        replication_ms=args.replication_ms,
        repair_ms=args.repair_ms,
        data_dir=args.data_dir,
    )

    def _on_sigterm(signum, frame) -> None:  # noqa: ARG001
        server.request_shutdown()

    signal.signal(signal.SIGTERM, _on_sigterm)
    signal.signal(signal.SIGINT, _on_sigterm)
    server.run()  # blocks until the graceful sequence completes
    # A repeated SIGTERM must not turn this exit into -15: finalization
    # resets Python-level handlers to the default action, but not these.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    return 0 if server.shut_down_cleanly else 1


if __name__ == "__main__":
    sys.exit(main())
