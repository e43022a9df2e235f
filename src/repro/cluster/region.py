"""A region: one data center's worth of IPS instances.

Each region holds a full replica of the profile data (clients write to all
regions), so any region can serve the entire query traffic after a
failover (§III-G).  Within a region, exactly one deployment persists to
the master KV cluster; the others read their local slave.
"""

from __future__ import annotations

from ..clock import Clock
from ..config import TableConfig
from ..errors import RegionUnavailableError
from ..obs.trace import NULL_TRACER
from ..server.node import IPSNode
from ..storage.kvstore import KVStore
from .hashring import ConsistentHashRing


class Region:
    """IPS instances of one region plus their hash ring.

    Membership here is explicit (:meth:`fail_node` / :meth:`recover_node`);
    the Consul flow of §III — register, heartbeat, TTL ageing — lives in
    :mod:`repro.net.registry` on the socket cluster.
    """

    def __init__(
        self,
        name: str,
        config: TableConfig,
        store: KVStore,
        clock: Clock,
        num_nodes: int,
        cache_capacity_bytes: int = 256 * 1024 * 1024,
        isolation_enabled: bool = True,
        virtual_nodes: int = 64,
        tracer=NULL_TRACER,
        node_kwargs: dict | None = None,
    ) -> None:
        if num_nodes <= 0:
            raise ValueError(f"region needs at least one node, got {num_nodes}")
        self.name = name
        self.store = store
        self.tracer = tracer
        #: Extra :class:`IPSNode` constructor kwargs applied to every node
        #: in the region (current and autoscaled).
        self.node_kwargs = dict(node_kwargs) if node_kwargs else {}
        self.ring = ConsistentHashRing(virtual_nodes)
        self.nodes: dict[str, IPSNode] = {}
        self._failed_nodes: set[str] = set()
        self.available = True
        for index in range(num_nodes):
            node_id = f"{name}-node-{index}"
            node = IPSNode(
                node_id,
                config,
                store,
                clock=clock,
                cache_capacity_bytes=cache_capacity_bytes,
                isolation_enabled=isolation_enabled,
                tracer=tracer,
                **self.node_kwargs,
            )
            self.nodes[node_id] = node
            self.ring.add_node(node_id)

    # ------------------------------------------------------------------

    def node_for(
        self, profile_id: int, exclude: set[str] | None = None
    ) -> IPSNode:
        """Owning healthy node for a profile id in this region.

        ``exclude`` adds caller-observed bad nodes (e.g. ones that just
        failed an RPC) on top of the region's known-failed set.
        """
        if not self.available:
            raise RegionUnavailableError(self.name)
        excluded = set(self._failed_nodes)
        if exclude:
            excluded |= exclude
        node_id = self.ring.node_for(profile_id, exclude=excluded or None)
        return self.nodes[node_id]

    def fail_node(self, node_id: str) -> None:
        """Mark a node crashed: the ring routes around it."""
        if node_id in self.nodes:
            self._failed_nodes.add(node_id)

    def recover_node(self, node_id: str) -> None:
        self._failed_nodes.discard(node_id)

    def fail_region(self) -> None:
        """Take the whole region down (data-center outage)."""
        self.available = False

    def recover_region(self) -> None:
        self.available = True

    @property
    def healthy_node_count(self) -> int:
        return len(self.nodes) - len(self._failed_nodes)

    def merge_all_write_tables(self) -> int:
        """Run the isolation merge on every node (the periodic job)."""
        return sum(node.merge_write_table() for node in self.nodes.values())

    def run_cache_cycles(self) -> None:
        for node in self.nodes.values():
            node.run_cache_cycle()

    def shutdown(self) -> None:
        for node in self.nodes.values():
            node.shutdown()

    def memory_bytes(self) -> int:
        return sum(node.memory_bytes() for node in self.nodes.values())

    def __repr__(self) -> str:
        return (
            f"Region(name={self.name!r}, nodes={len(self.nodes)}, "
            f"healthy={self.healthy_node_count}, available={self.available})"
        )
