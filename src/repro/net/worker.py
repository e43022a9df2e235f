"""Worker process: one durable IPSNode behind a thread-per-connection TCP server.

``python -m repro.net.worker --node-id w0 --data-dir /tmp/w0 ...`` hosts a
single :class:`~repro.server.node.IPSNode` with full file-backed
durability — CRC-framed KV store, group-commit WAL, checkpoint barrier —
recovers it on start, and serves the framed wire protocol on a TCP port
through a :class:`~repro.net.transport.FrameServer`: one thread carries a
request from ``recv`` to ``send``, as Thrift's threaded server does — the
node stack is thread-safe and the real work releases the GIL in I/O and
numpy.

Off the request path four duties run, each a synchronous body on its own
daemon thread (``ips-duty-<node>-<duty>``) that sleeps on a stop event
between ticks:

* **maintenance** (``_maintenance_once``) — drain the isolation write
  table and run one cache cycle (which also drives periodic checkpoints)
  every ``maintenance_ms``;
* **heartbeat** (``_heartbeat_once``) — register with the node registry
  or refresh liveness every ``heartbeat_ms`` over one persistent
  :class:`~repro.net.registry.RegistryClient` connection, piggybacking
  the replication lag report and adopting the fresh membership roster; a
  rejected heartbeat (stale generation after an eviction) falls back to
  re-registration, an unreachable or silent registry to the next tick;
* **replication shipping** (``replication.ship_once``) — drain the
  per-peer delta queues (see :mod:`repro.net.replication`) every
  ``replication_ms``;
* **anti-entropy repair** (``replication.repair_round``) — one
  digest-exchange round against the next live peer every ``repair_ms``.

Graceful shutdown — SIGTERM or the ``prepare_shutdown`` admin RPC — is
strictly ordered so no acked write can be lost: stop accepting, drain
in-flight requests, stop and join the duty threads, hand the last
deltas to the peers, deregister, close idle connections, then
``node.shutdown()`` (merge + flush + final checkpoint) and close the
WAL.  A request is in flight from before dispatch until after
``sendall`` returns: the drain misses none and cuts no response.  The
duties are joined, not abandoned, so no cycle or repair round is still
running when the node closes its WAL and store.  A shutdown request is
one ``os.write`` to a self-pipe ``run`` reads: the SIGTERM handler may
interrupt the main thread anywhere, so it must take no lock that thread
could hold.  Repeated SIGTERMs are harmless from the first to the last
instruction: the handler stays installed through the sequence and is
swapped for "ignore" — which interpreter finalization leaves alone —
before ``main`` returns.  SIGKILL skips all of that by definition; the
WAL replay on the next start is the safety net (the crash-recovery
contract of `make crashcheck`).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import weakref
from pathlib import Path

from ..clock import perf_ms
from ..config import TableConfig
from ..errors import NodeUnavailableError, RPCTimeoutError
from ..server.batch import NODE_RPC_METHODS
from ..server.node import IPSNode
from ..server.recovery import NodeDurability
from ..storage.filestore import FileKVStore
from ..storage.wal import FileLogFile, WriteAheadLog
from . import wire
from .registry import RegistryClient
from .replication import WorkerReplication
from .transport import (
    ADMIN_METHODS,
    PEER_CALL_TIMEOUT_MS,
    REPLICATION_METHODS,
    FrameServer,
    SocketTransport,
    respond,
)


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
                node_id, host_, port_,
                call_timeout_ms=PEER_CALL_TIMEOUT_MS, pool_size=1,
            ),
        )
        self._frames = FrameServer(node.node_id, self._dispatch)
        self._registry = (
            None
            if None in (registry_host, registry_port)
            else RegistryClient(registry_host, registry_port)
        )
        self._generation: int | None = None
        self._duties: list[threading.Thread] = []
        self._stop_duties = threading.Event()
        #: The shutdown request: a byte written here wakes :meth:`run`.
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        for fd in (self._wake_r, self._wake_w):
            weakref.finalize(self, os.close, fd)
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
        """Ask :meth:`run` for the graceful sequence; safe in a signal handler.

        One ``os.write`` on a non-blocking pipe and nothing else — no lock
        the interrupted thread could hold (``threading.Event.set`` takes
        one).
        """
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # pipe full: a request is already pending

    # ------------------------------------------------------------------
    # Main body
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Serve until shutdown is requested, then shut down (blocks)."""
        try:
            self.port = self._frames.listen(self.host, self.port)
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            return
        duties = [("maintenance", self.maintenance_ms, self._maintenance_once)]
        if self._registry is not None:
            duties += [
                ("heartbeat", self.heartbeat_ms, self._heartbeat_once),
                ("ship", self.replication_ms, self.replication.ship_once),
                ("repair", self.repair_ms, self.replication.repair_round),
            ]
        for name, interval_ms, body in duties:
            # The heartbeat ticks at once: registering is how clients
            # find this worker.
            first_ms = 0.0 if name == "heartbeat" else interval_ms
            duty = threading.Thread(
                target=self._duty_loop,
                args=(first_ms, interval_ms, body),
                name=f"ips-duty-{self.node.node_id}-{name}",
                daemon=True,
            )
            self._duties.append(duty)
            duty.start()
        self._ready.set()
        print(f"READY {self.host} {self.port}", flush=True)
        os.read(self._wake_r, 1)  # until request_shutdown writes the pipe
        # ---- graceful ordering (satellite: SIGTERM must not lose acks) --
        self._frames.stop_accepting()  # every request read from here on is dropped
        self._frames.drain(self.drain_timeout_ms)
        self._stop_duties.set()
        for duty in self._duties:
            duty.join()  # a tick already running ends before the stores close
        # A graceful leaver hands its last deltas to the surviving owners
        # before it drops out of the roster — otherwise the final window
        # of writes would exist nowhere but its own (departing) disk.
        if self.replication.enabled:
            self._final_replication_drain()
        if self._registry is not None:
            try:
                self._registry.deregister(self.node.node_id)
            except Exception:  # noqa: BLE001 - registry may already be gone
                pass
            self._registry.close()
        self._frames.close_connections()
        # The node flush + final checkpoint runs last; only then is the
        # WAL closed.  This is the ordering under test.
        self._close_node()
        self.shut_down_cleanly = True

    def _duty_loop(self, first_ms: float, interval_ms: float, body) -> None:
        """Call ``body`` after ``first_ms``, then every ``interval_ms``."""
        wait_ms = first_ms
        while not self._stop_duties.wait(wait_ms / 1000.0):
            try:
                body()
            except Exception:  # noqa: BLE001 - a failed tick retries on the next
                pass
            wait_ms = interval_ms

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

    def _dispatch(self, payload: bytes) -> wire.Response:
        return respond(payload, self._invoke)

    def _invoke(self, method: str, args: tuple, kwargs: dict):
        if method in NODE_RPC_METHODS:
            # A multi_get answers with the node's cached packed rows,
            # which the wire sends as they are.
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
        stats["connections"] = self._frames.connections
        stats["connections_refused"] = self._frames.connections_refused
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
        """Ack, then run the same graceful sequence as SIGTERM.

        The ack is not cut: this request stays in flight until its
        ``sendall`` returns, and the sequence drains before anything else.
        """
        self.request_shutdown()
        return {"shutting_down": True}

    # ------------------------------------------------------------------
    # Duty bodies
    # ------------------------------------------------------------------

    def _heartbeat_once(self) -> None:
        """Register or beat, then adopt the roster; a dead registry waits a tick."""
        registry, node_id = self._registry, self.node.node_id
        try:
            if self._generation is not None and not registry.heartbeat(
                node_id, self._generation,
                report=self.replication.heartbeat_report(),
            ):
                # Evicted (e.g. a long GC pause): re-register with a
                # fresh generation instead of going zombie.
                self._generation = None
            if self._generation is None:
                reply = registry.register(node_id, self.host, self.port)
                self._generation = reply["generation"]
            # Every beat also refreshes the replication roster — the
            # placement ring over live members + tombstones.  Done on the
            # register path too, so a worker knows its owner sets before
            # the first client write can land.
            self.replication.update_membership(registry.members())
        except (NodeUnavailableError, RPCTimeoutError):
            pass  # registry unreachable or silent: retry on the next tick

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
