"""Process-per-node cluster: spawn, discover, route, kill, restart.

:class:`ProcessCluster` spawns one :mod:`repro.net.worker` OS process per
node plus a :class:`~repro.net.registry.RegistryServer`, then builds the
client stack on top: :class:`NetRegion` duck-types
:class:`~repro.cluster.region.Region` (``name`` / ``nodes`` /
``node_for`` over the same :class:`~repro.cluster.hashring.ConsistentHashRing`)
but routes to :class:`~repro.net.transport.RemoteNode` facades over real
sockets, refreshing membership from the registry only when its epoch
moves.  :class:`ProcessDeployment` is the thin deployment shim that lets
the unmodified :class:`~repro.cluster.client.IPSClient` — retries,
breakers, deadlines, hedged reads and all — drive the fleet.

Worker ports are discovered through the registry (workers bind port 0
and register their real port), never by parsing stdout; stdout/stderr go
to log files under each worker's data dir.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from ..clock import SystemClock, perf_ms
from ..cluster.hashring import ConsistentHashRing
from ..errors import NoHealthyNodeError, RegionUnavailableError
from ..obs.trace import NULL_TRACER
from .registry import NodeRegistry, RegistryClient, RegistryServer
from .transport import RemoteNode, SocketTransport


class NetRegion:
    """Registry-driven region of remote nodes (duck-types ``Region``).

    ``registry`` is anything with a ``members()`` snapshot — a
    :class:`~repro.net.registry.RegistryClient` over sockets, or a local
    :class:`~repro.net.registry.NodeRegistry` in tests.  The hash ring is
    rebuilt only when the registry epoch changes; between epochs a
    membership poll is rate-limited to ``refresh_interval_ms`` of real
    time, so the hot routing path is one dict lookup.
    """

    def __init__(
        self,
        registry,
        name: str = "net",
        *,
        refresh_interval_ms: float = 250.0,
        virtual_nodes: int = 64,
        transport_factory=None,
    ) -> None:
        self.name = name
        self.registry = registry
        self.refresh_interval_ms = refresh_interval_ms
        self.ring = ConsistentHashRing(virtual_nodes)
        self.nodes: dict[str, RemoteNode] = {}
        self.available = True
        self.master: str | None = None
        self.epoch = -1
        self.refreshes = 0
        self._endpoints: dict[str, tuple[str, int]] = {}
        self._last_poll_ms = float("-inf")
        self._transport_factory = transport_factory or (
            lambda node_id, host, port: SocketTransport(node_id, host, port)
        )
        self.refresh(force=True)

    def refresh(self, force: bool = False) -> bool:
        """Poll the registry; rebuild routing state if the epoch moved."""
        now = perf_ms()
        if not force and now - self._last_poll_ms < self.refresh_interval_ms:
            return False
        self._last_poll_ms = now
        snapshot = self.registry.members()
        if snapshot["epoch"] == self.epoch:
            return False
        self.epoch = snapshot["epoch"]
        self.master = snapshot["master"]
        self.refreshes += 1
        fresh = {
            member["node_id"]: (member["host"], member["port"])
            for member in snapshot["members"]
        }
        for node_id in list(self.nodes):
            if fresh.get(node_id) == self._endpoints.get(node_id):
                continue  # unchanged member keeps its pooled connections
            self.ring.remove_node(node_id)
            self.nodes.pop(node_id).close()
            self._endpoints.pop(node_id, None)
        for node_id, (host, port) in fresh.items():
            if node_id in self.nodes:
                continue
            self.nodes[node_id] = RemoteNode(
                self._transport_factory(node_id, host, port)
            )
            self._endpoints[node_id] = (host, port)
            self.ring.add_node(node_id)
        return True

    def node_for(
        self, profile_id: int, exclude: set[str] | None = None
    ) -> RemoteNode:
        """Owning remote node for a profile id (hash-ring routing)."""
        if not self.available:
            raise RegionUnavailableError(self.name)
        self.refresh()
        try:
            node_id = self.ring.node_for(profile_id, exclude=exclude or None)
        except NoHealthyNodeError:
            # Membership may have changed under us (all known nodes
            # excluded after failures): force one refresh and re-route.
            if not self.refresh(force=True):
                raise
            node_id = self.ring.node_for(profile_id, exclude=exclude or None)
        return self.nodes[node_id]

    def close(self) -> None:
        for node in self.nodes.values():
            node.close()
        self.nodes.clear()
        self._endpoints.clear()


class ProcessDeployment:
    """Deployment shim: one :class:`NetRegion` behind the ``IPSClient`` API."""

    def __init__(self, region: NetRegion, clock=None) -> None:
        self.regions = {region.name: region}
        self.clock = clock if clock is not None else SystemClock()
        self.tracer = NULL_TRACER
        #: Metrics registry slot the client looks up; chaos/process fleet
        #: runs export through worker ``node_stats`` instead.
        self.registry = None


class ProcessCluster:
    """Spawns and manages N worker processes plus the registry server."""

    def __init__(
        self,
        num_workers: int,
        data_root: str | Path,
        *,
        host: str = "127.0.0.1",
        table: str = "user_profile",
        attributes: tuple[str, ...] = ("like", "comment", "share"),
        checkpoint_interval: int = 256,
        heartbeat_ms: float = 200.0,
        ttl_ms: float = 1_500.0,
        maintenance_ms: float = 100.0,
        replication_factor: int = 1,
        replication_ms: float = 50.0,
        repair_ms: float = 2_000.0,
        worker_env: dict[str, str] | None = None,
        spawn: bool = True,
    ) -> None:
        self.data_root = Path(data_root)
        self.data_root.mkdir(parents=True, exist_ok=True)
        self.host = host
        self.table = table
        self.attributes = attributes
        self.checkpoint_interval = checkpoint_interval
        self.heartbeat_ms = heartbeat_ms
        self.maintenance_ms = maintenance_ms
        self.replication_factor = replication_factor
        self.replication_ms = replication_ms
        self.repair_ms = repair_ms
        self.worker_env = dict(worker_env) if worker_env else {}
        self.registry_server = RegistryServer(
            NodeRegistry(ttl_ms=ttl_ms, replication_factor=replication_factor),
            host=host,
        ).start()
        self._procs: dict[str, subprocess.Popen] = {}
        self._logs: dict[str, Any] = {}
        if spawn:
            for index in range(num_workers):
                self.spawn_worker(f"w{index:02d}")

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def spawn_worker(self, node_id: str) -> subprocess.Popen:
        """Start (or restart) one worker over its persistent data dir.

        The data dir is keyed by the **stable node id**, never by spawn
        order: a worker restarted after a crash reopens the same WAL,
        checkpoint, KV log, and replication state it owned before.
        """
        if node_id in self._procs and self._procs[node_id].poll() is None:
            raise RuntimeError(f"worker {node_id} is already running")
        data_dir = self.data_root / node_id
        data_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            src_root if not existing else f"{src_root}{os.pathsep}{existing}"
        )
        env.update(self.worker_env)
        log = open(data_dir / "worker.log", "ab")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.net.worker",
                "--node-id", node_id,
                "--data-dir", str(data_dir),
                "--host", self.host,
                "--port", "0",
                "--registry-host", self.registry_server.host,
                "--registry-port", str(self.registry_server.port),
                "--table", self.table,
                "--attributes", ",".join(self.attributes),
                "--checkpoint-interval", str(self.checkpoint_interval),
                "--heartbeat-ms", str(self.heartbeat_ms),
                "--maintenance-ms", str(self.maintenance_ms),
                "--replication-factor", str(self.replication_factor),
                "--replication-ms", str(self.replication_ms),
                "--repair-ms", str(self.repair_ms),
            ],
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        old_log = self._logs.pop(node_id, None)
        if old_log is not None:
            old_log.close()
        self._logs[node_id] = log
        self._procs[node_id] = proc
        return proc

    def wait_for_members(self, count: int, timeout_s: float = 20.0) -> list[str]:
        """Block until the registry sees ``count`` live members."""
        deadline = time.monotonic() + timeout_s
        while True:
            members = self.registry_server.registry.members()["members"]
            if len(members) >= count:
                return [member["node_id"] for member in members]
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"only {len(members)}/{count} workers registered within "
                    f"{timeout_s:g}s"
                )
            time.sleep(0.02)

    def kill_worker(self, node_id: str) -> None:
        """SIGKILL — the real ``node_crash``: no flush, no checkpoint."""
        proc = self._procs[node_id]
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)

    def terminate_worker(self, node_id: str, timeout_s: float = 15.0) -> int:
        """SIGTERM — graceful: returns the exit code (0 = clean shutdown)."""
        proc = self._procs[node_id]
        if proc.poll() is None:
            proc.terminate()
        return proc.wait(timeout=timeout_s)

    def restart_worker(self, node_id: str) -> subprocess.Popen:
        """Bring a dead worker back over the same data dir (recovery)."""
        return self.spawn_worker(node_id)

    def add_worker(self) -> str:
        """Spawn a worker under a fresh stable id (never reuses an id).

        Ids are allocated past the highest ever seen, so a joiner can
        never collide with — or silently adopt the data dir of — a dead
        worker that might still rejoin.
        """
        highest = -1
        for node_id in self._procs:
            if node_id.startswith("w") and node_id[1:].isdigit():
                highest = max(highest, int(node_id[1:]))
        node_id = f"w{highest + 1:02d}"
        self.spawn_worker(node_id)
        return node_id

    def worker_ids(self) -> list[str]:
        return sorted(self._procs)

    def processes(self) -> dict[str, subprocess.Popen]:
        """Live view for the orphan-tracking test fixture."""
        return dict(self._procs)

    # ------------------------------------------------------------------
    # Client stack
    # ------------------------------------------------------------------

    def registry_client(self) -> RegistryClient:
        return RegistryClient(self.registry_server.host, self.registry_server.port)

    def region(self, **kwargs) -> NetRegion:
        """A fresh routing view over the current membership."""
        return NetRegion(self.registry_client(), **kwargs)

    def deployment(self, **kwargs) -> ProcessDeployment:
        return ProcessDeployment(self.region(**kwargs))

    def client(self, deployment: ProcessDeployment | None = None, **kwargs):
        """An :class:`~repro.cluster.client.IPSClient` over real sockets."""
        from ..cluster.client import IPSClient

        if deployment is None:
            deployment = self.deployment()
        region_name = next(iter(deployment.regions))
        return IPSClient(deployment, region_name, **kwargs)

    def fleet_stats(self) -> dict[str, dict]:
        """``node_stats`` from every live member, keyed by node id."""
        return self._poll_members("node_stats")

    def replication_stats(self) -> dict[str, dict]:
        """``replication_stats`` from every live member, keyed by node id."""
        return self._poll_members("replication_stats")

    def repair_now(self, rounds: int = 1) -> dict[str, dict]:
        """Force synchronous repair rounds fleet-wide (bench convergence)."""
        return self._poll_members("repair_now", rounds)

    def _poll_members(self, method: str, *args) -> dict[str, dict]:
        stats: dict[str, dict] = {}
        snapshot = self.registry_server.registry.members()
        for member in snapshot["members"]:
            transport = SocketTransport(
                member["node_id"], member["host"], member["port"]
            )
            try:
                stats[member["node_id"]] = transport.call(method, *args)
            except Exception:  # noqa: BLE001 - a dying member just drops out
                continue
            finally:
                transport.close()
        return stats

    def wait_for_replication_drain(self, timeout_s: float = 20.0) -> None:
        """Block until no live worker has queued deltas for a live peer.

        Hinted-handoff queues for *dead* peers do not block the drain —
        they cannot empty until the peer rejoins.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            stats = self.replication_stats()
            live = set(stats)
            pending = sum(
                depth
                for node_stats in stats.values()
                for peer, depth in node_stats.get("pending", {}).items()
                if peer in live
            )
            if pending == 0:
                return
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"replication queues still hold {pending} deltas after "
                    f"{timeout_s:g}s"
                )
            time.sleep(0.05)

    def primary_for(self, profile_id: int) -> str:
        """The roster-ring primary owner of a key (placement, not routing)."""
        registry = self.registry_server.registry
        ring = ConsistentHashRing(64)
        for entry in registry.members()["roster"]:
            ring.add_node(entry["node_id"])
        return ring.nodes_for(profile_id, 1)[0]

    # ------------------------------------------------------------------

    def shutdown(self, graceful: bool = True) -> dict[str, int]:
        """Stop every worker and the registry.

        Graceful: SIGTERM, then wait for the flush + final checkpoint
        (stragglers are SIGKILLed).  Not graceful: SIGKILL at once.
        Returns exit codes by node id.
        """
        codes: dict[str, int] = {}
        for proc in self._procs.values():
            if proc.poll() is None:
                if graceful:
                    proc.terminate()
                else:
                    proc.kill()
        for node_id, proc in self._procs.items():
            try:
                codes[node_id] = proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                codes[node_id] = proc.wait(timeout=10.0)
        for log in self._logs.values():
            log.close()
        self._logs.clear()
        self.registry_server.stop()
        return codes

    def __enter__(self) -> "ProcessCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
