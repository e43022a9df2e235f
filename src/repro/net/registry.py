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
it over the same wire protocol — and the same thread-per-connection
:class:`~repro.net.transport.FrameServer` — the workers use, and
:class:`RegistryClient` is the blocking client workers and routing
regions reach it through.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any

from ..clock import Clock, SystemClock
from . import wire
from .transport import PEER_CALL_TIMEOUT_MS, FrameServer, SocketTransport, respond

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

    The same :class:`~repro.net.transport.FrameServer` the workers run,
    over the registry's four methods, so it sits beside blocking test
    code and the worker subprocesses alike.  Bind to port 0 and read
    :attr:`port` after :meth:`start` to get the real port.
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
        self._frames = FrameServer(
            "registry", lambda payload: respond(payload, self._invoke)
        )

    @property
    def connections_accepted(self) -> int:
        """Connections accepted so far (a worker should hold exactly one)."""
        return self._frames.connections_accepted

    def start(self) -> "RegistryServer":
        """Bind and serve; a bind failure raises its ``OSError`` here."""
        self.port = self._frames.listen(self.host, self.port)
        return self

    def stop(self) -> None:
        self._frames.stop_accepting()
        self._frames.close_connections()

    def _invoke(self, method: str, args: tuple, kwargs: dict):
        if method not in REGISTRY_METHODS:
            raise wire.WireCodecError(f"unknown registry method {method!r}")
        return getattr(self.registry, method)(*args, **kwargs)


class RegistryClient:
    """Blocking client for a :class:`RegistryServer` (same wire protocol).

    One :class:`~repro.net.transport.SocketTransport`: a persistent
    connection, dropped on any error, and a fixed
    :data:`~repro.net.transport.PEER_CALL_TIMEOUT_MS` per call, so an
    unresponsive registry costs a caller that long and raises the
    retryable :class:`~repro.errors.RPCTimeoutError`.
    """

    def __init__(self, host: str, port: int) -> None:
        self._transport = SocketTransport(
            "registry", host, port, call_timeout_ms=PEER_CALL_TIMEOUT_MS
        )

    def members(self) -> dict[str, Any]:
        return self._transport.call("members")

    def register(self, node_id: str, host: str, port: int) -> dict[str, Any]:
        return self._transport.call("register", node_id, host, port)

    def heartbeat(
        self, node_id: str, generation: int, report: dict | None = None
    ) -> bool:
        if report is None:
            return self._transport.call("heartbeat", node_id, generation)
        return self._transport.call(
            "heartbeat", node_id, generation, report=report
        )

    def deregister(self, node_id: str) -> bool:
        return self._transport.call("deregister", node_id)

    def close(self) -> None:
        self._transport.close()
