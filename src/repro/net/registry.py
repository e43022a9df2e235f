"""Node registry: heartbeat liveness and deterministic master election.

The DCSServerBot-style cluster shape named in the roadmap: every worker
registers ``(node_id, host, port)`` with one registry, heartbeats on a
fixed cadence, and is evicted when its heartbeat goes stale.  Membership
changes bump an **epoch** counter; clients watch the epoch and rebuild
their hash ring (and transports) only when it moves, so the steady state
costs one integer compare per refresh.

Master election is deterministic and needs no extra protocol round:
**the live member with the lowest ``node_id`` is the master**.  Every
observer of the same membership set names the same master, and a master
kill converges as soon as eviction fires — the next-lowest survivor wins.
Generations guard against zombies: a worker that is evicted and later
re-registers gets a new generation, and heartbeats carrying a stale
generation are rejected so the zombie knows to re-register rather than
silently shadowing its replacement.

:class:`NodeRegistry` is the pure, clock-injected core (unit-testable on
a :class:`~repro.clock.SimulatedClock`); :class:`RegistryServer` serves
it over the same wire protocol the workers speak, from an asyncio loop on
a background thread.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, replace
from typing import Any

from ..clock import Clock, SystemClock, perf_ms
from . import wire

#: Registry methods reachable over the wire.
REGISTRY_METHODS = frozenset({"register", "heartbeat", "deregister", "members"})


@dataclass(frozen=True)
class MemberRecord:
    """One registered worker as the registry sees it."""

    node_id: str
    host: str
    port: int
    generation: int
    registered_ms: float
    last_heartbeat_ms: float


class NodeRegistry:
    """In-memory membership table with TTL liveness and epoch versioning.

    With ``replication_factor > 1`` the registry also runs the promotion
    protocol, which — because placement is a roster-ring walk and routing
    is the same walk skipping dead nodes — amounts to bookkeeping:

    * evicted members become **tombstones** (the dead part of the roster)
      so the replica placement every worker computes stays stable across
      a crash; a tombstone clears when the worker re-registers, when it
      deregisters gracefully, or after ``tombstone_ttl_ms``;
    * every eviction with survivors present is counted as a **promotion**
      (the next live owner of each affected range starts serving it) and
      logged with its epoch;
    * heartbeats may piggyback a replication **report** (per-peer delta
      lag, handoff depth, repair bytes) which :meth:`members` republishes
      — bounded staleness, observable in one place.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        ttl_ms: float = 3_000.0,
        *,
        replication_factor: int = 1,
        tombstone_ttl_ms: float = 600_000.0,
    ) -> None:
        if replication_factor < 1:
            raise ValueError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        self._clock = clock if clock is not None else SystemClock()
        self.ttl_ms = ttl_ms
        self.replication_factor = replication_factor
        self.tombstone_ttl_ms = tombstone_ttl_ms
        self._members: dict[str, MemberRecord] = {}
        #: node_id -> (record, evicted_at_ms): dead-but-remembered roster.
        self._tombstones: dict[str, tuple[MemberRecord, float]] = {}
        self._reports: dict[str, dict] = {}
        self._lock = threading.Lock()
        self._epoch = 0
        self._generations = 0
        self.evictions = 0
        self.promotions = 0
        #: Most recent promotions as ``(dead_node_id, epoch)`` pairs.
        self.promotion_log: list[tuple[str, int]] = []

    # -- wire-facing methods -------------------------------------------

    def register(self, node_id: str, host: str, port: int) -> dict[str, Any]:
        """Add (or re-add) a worker; returns its generation and the epoch."""
        now = self._clock.now_ms()
        with self._lock:
            self._sweep_locked(now)
            self._generations += 1
            self._members[node_id] = MemberRecord(
                node_id=node_id,
                host=host,
                port=port,
                generation=self._generations,
                registered_ms=now,
                last_heartbeat_ms=now,
            )
            self._tombstones.pop(node_id, None)
            self._epoch += 1
            return {
                "generation": self._generations,
                "epoch": self._epoch,
                "replication_factor": self.replication_factor,
            }

    def heartbeat(
        self, node_id: str, generation: int, report: dict | None = None
    ) -> bool:
        """Refresh liveness; ``False`` tells the worker to re-register.

        ``report`` is the optional replication payload (lag, handoff
        depth, repair bytes) workers piggyback on the beat.
        """
        now = self._clock.now_ms()
        with self._lock:
            self._sweep_locked(now)
            record = self._members.get(node_id)
            if record is None or record.generation != generation:
                return False
            self._members[node_id] = replace(record, last_heartbeat_ms=now)
            if report is not None:
                self._reports[node_id] = report
            return True

    def deregister(self, node_id: str) -> bool:
        """Graceful leave; returns whether the member was known."""
        with self._lock:
            removed = self._members.pop(node_id, None) is not None
            # Graceful or not, a deregistered node leaves the roster: its
            # ranges move permanently to the surviving owners.
            self._tombstones.pop(node_id, None)
            self._reports.pop(node_id, None)
            if removed:
                self._epoch += 1
                if self.replication_factor > 1 and self._members:
                    self.promotions += 1
                    self._log_promotion_locked(node_id)
            return removed

    def members(self) -> dict[str, Any]:
        """Membership snapshot: epoch, master, live members, and roster.

        ``roster`` is live members plus tombstones (``live`` flag telling
        them apart) — the stable universe replica placement is computed
        over.  ``reports`` is the latest replication report per live
        member.
        """
        now = self._clock.now_ms()
        with self._lock:
            self._sweep_locked(now)
            live = sorted(self._members.values(), key=lambda r: r.node_id)
            dead = sorted(
                (rec for rec, _ in self._tombstones.values()),
                key=lambda r: r.node_id,
            )
            return {
                "epoch": self._epoch,
                "master": live[0].node_id if live else None,
                "members": [
                    {"node_id": r.node_id, "host": r.host, "port": r.port}
                    for r in live
                ],
                "roster": [
                    {
                        "node_id": r.node_id,
                        "host": r.host,
                        "port": r.port,
                        "live": True,
                    }
                    for r in live
                ]
                + [
                    {
                        "node_id": r.node_id,
                        "host": r.host,
                        "port": r.port,
                        "live": False,
                    }
                    for r in dead
                ],
                "replication_factor": self.replication_factor,
                "promotions": self.promotions,
                "reports": dict(self._reports),
            }

    # -- local accessors ------------------------------------------------

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    def sweep(self) -> list[str]:
        """Evict stale members; returns the evicted node ids."""
        now = self._clock.now_ms()
        with self._lock:
            return self._sweep_locked(now)

    def live_members(self) -> list[MemberRecord]:
        now = self._clock.now_ms()
        with self._lock:
            self._sweep_locked(now)
            return sorted(self._members.values(), key=lambda r: r.node_id)

    def master(self) -> str | None:
        """Deterministic election: the lowest live ``node_id`` is master."""
        live = self.live_members()
        return live[0].node_id if live else None

    def replica_lag(self) -> dict[str, dict[str, int]]:
        """Per-node per-peer delta lag from the latest heartbeat reports."""
        with self._lock:
            return {
                node_id: dict(report.get("lag", {}))
                for node_id, report in self._reports.items()
            }

    def publish_metrics(self, metrics) -> None:
        """Export the heartbeat reports as gauges on a MetricsRegistry.

        Uses the same ``replication_lag_ops`` family the sim-layer
        :class:`~repro.storage.replication.ReplicatedKVCluster` publishes,
        with ``layer="net"`` — one dashboard query covers both layers.
        """
        with self._lock:
            reports = {k: dict(v) for k, v in self._reports.items()}
            promotions = self.promotions
        for node_id, report in reports.items():
            for peer, depth in report.get("lag", {}).items():
                metrics.gauge(
                    "replication_lag_ops", layer="net", node=node_id, peer=peer
                ).set(depth)
            metrics.gauge(
                "replication_handoff_depth", node=node_id
            ).set(report.get("handoff_depth", 0))
            metrics.gauge(
                "replication_repair_bytes", node=node_id
            ).set(report.get("repair_bytes", 0))
        metrics.gauge("replication_promotions").set(promotions)

    def _sweep_locked(self, now_ms: float) -> list[str]:
        stale = [
            node_id
            for node_id, record in self._members.items()
            if now_ms - record.last_heartbeat_ms > self.ttl_ms
        ]
        for node_id in stale:
            record = self._members.pop(node_id)
            self._reports.pop(node_id, None)
            self._tombstones[node_id] = (record, now_ms)
        if stale:
            self.evictions += len(stale)
            self._epoch += 1
            if self.replication_factor > 1 and self._members:
                self.promotions += len(stale)
                for node_id in stale:
                    self._log_promotion_locked(node_id)
        expired = [
            node_id
            for node_id, (_, evicted_ms) in self._tombstones.items()
            if now_ms - evicted_ms > self.tombstone_ttl_ms
        ]
        for node_id in expired:
            del self._tombstones[node_id]
        if expired:
            # Placement finally forgets the node; workers rebuild rings.
            self._epoch += 1
        return stale

    def _log_promotion_locked(self, node_id: str) -> None:
        self.promotion_log.append((node_id, self._epoch))
        del self.promotion_log[:-100]


class RegistryServer:
    """Serves a :class:`NodeRegistry` over the framed wire protocol.

    Runs its own asyncio loop on a daemon thread so it can sit beside
    blocking test code and the worker subprocesses alike.  Bind to port 0
    and read :attr:`port` after :meth:`start` to get the real port.
    """

    def __init__(
        self,
        registry: NodeRegistry | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry if registry is not None else NodeRegistry()
        self.host = host
        self.port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        #: Connections accepted so far (a worker should hold exactly one).
        self.connections_accepted = 0

    def start(self) -> "RegistryServer":
        self._thread = threading.Thread(
            target=self._run, name="ips-registry", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("registry server did not start in time")
        if self._startup_error is not None:
            raise RuntimeError("registry server failed to bind") from (
                self._startup_error
            )
        return self

    def stop(self) -> None:
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._loop = None

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(self._handle, self.host, self.port)
            )
        except OSError as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._server = server
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections_accepted += 1
        try:
            while True:
                try:
                    payload = await wire.read_frame_async(reader)
                except wire.WireCodecError:
                    break  # torn frame: drop the connection
                if payload is None:
                    break
                response = self._dispatch(payload)
                writer.write(wire.encode_response(response))
                await writer.drain()
        except (asyncio.CancelledError, ConnectionError):
            pass  # server stopping or peer gone mid-exchange
        finally:
            writer.close()

    def _dispatch(self, payload: bytes) -> wire.Response:
        start = perf_ms()
        request_id = 0
        try:
            message = wire.decode_message(payload)
            if not isinstance(message, wire.Request):
                raise wire.WireCodecError("expected a request frame")
            request_id = message.request_id
            if message.method not in REGISTRY_METHODS:
                raise wire.WireCodecError(
                    f"unknown registry method {message.method!r}"
                )
            handler = getattr(self.registry, message.method)
            value = handler(*message.args, **message.kwargs)
        except Exception as exc:  # noqa: BLE001 - every error goes on the wire
            error_type, message_text, error_args = wire.error_to_wire(exc)
            return wire.Response(
                request_id=request_id,
                ok=False,
                error_type=error_type,
                error_message=message_text,
                error_args=error_args,
                server_ms=perf_ms() - start,
            )
        return wire.Response(
            request_id=request_id,
            ok=True,
            value=value,
            server_ms=perf_ms() - start,
        )
