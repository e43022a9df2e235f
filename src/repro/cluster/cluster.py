"""Single-region cluster and multi-region deployment composition.

:class:`IPSCluster` builds one region's fleet;
:class:`MultiRegionDeployment` wires several regions over a replicated KV
cluster per Fig. 15: every region's nodes serve from their local KV view,
the designated master region's store is the write-through master, and
clients write everywhere / read locally.
"""

from __future__ import annotations

from ..clock import Clock, SystemClock
from ..config import TableConfig
from ..obs.registry import MetricsRegistry
from ..obs.trace import NULL_TRACER
from ..storage.kvstore import InMemoryKVStore
from ..storage.replication import ReplicatedKVCluster
from .client import IPSClient
from .region import Region


class IPSCluster:
    """One standalone (single-region) IPS cluster."""

    def __init__(
        self,
        config: TableConfig,
        num_nodes: int = 4,
        clock: Clock | None = None,
        cache_capacity_bytes: int = 256 * 1024 * 1024,
        isolation_enabled: bool = True,
        region_name: str = "local",
        tracer=NULL_TRACER,
        registry: MetricsRegistry | None = None,
        node_kwargs: dict | None = None,
    ) -> None:
        self.clock = clock if clock is not None else SystemClock()
        self.config = config
        self.tracer = tracer
        self.registry = registry
        self.store = InMemoryKVStore()
        self.region = Region(
            region_name,
            config,
            self.store,
            self.clock,
            num_nodes,
            cache_capacity_bytes=cache_capacity_bytes,
            isolation_enabled=isolation_enabled,
            tracer=tracer,
            node_kwargs=node_kwargs,
        )
        #: Expose a deployment-compatible view so IPSClient works unchanged.
        self.regions = {region_name: self.region}

    def client(self, caller: str = "default", **kwargs) -> IPSClient:
        return IPSClient(self, self.region.name, caller=caller, **kwargs)

    def run_background_cycle(self) -> None:
        """One deterministic tick of merge + cache duties."""
        self.region.merge_all_write_tables()
        self.region.run_cache_cycles()

    def shutdown(self) -> None:
        self.region.shutdown()


class MultiRegionDeployment:
    """Geo-replicated deployment over a master/slave KV cluster (Fig. 15)."""

    def __init__(
        self,
        config: TableConfig,
        region_names: list[str],
        nodes_per_region: int = 2,
        master_region: str | None = None,
        clock: Clock | None = None,
        cache_capacity_bytes: int = 256 * 1024 * 1024,
        isolation_enabled: bool = True,
        tracer=NULL_TRACER,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if not region_names:
            raise ValueError("need at least one region")
        self.clock = clock if clock is not None else SystemClock()
        self.config = config
        self.tracer = tracer
        self.registry = registry
        self.master_region = master_region or region_names[0]
        self.kv_cluster = ReplicatedKVCluster(
            region_names, self.master_region, metrics=registry
        )
        self.regions: dict[str, Region] = {}
        for name in region_names:
            # Only the master region persists through the replicating
            # writer; other regions serve from their local slave replica.
            store = (
                self.kv_cluster.write_store()
                if name == self.master_region
                else self.kv_cluster.read_store(name)
            )
            region = Region(
                name,
                config,
                store,
                self.clock,
                nodes_per_region,
                cache_capacity_bytes=cache_capacity_bytes,
                isolation_enabled=isolation_enabled,
                tracer=tracer,
            )
            self.regions[name] = region

    def client(
        self, local_region: str, caller: str = "default", **kwargs
    ) -> IPSClient:
        return IPSClient(self, local_region, caller=caller, **kwargs)

    def replicate(self, max_ops: int | None = None) -> int:
        """Pump KV replication from master to the regional slaves."""
        return self.kv_cluster.pump(max_ops=max_ops)

    def run_background_cycle(self) -> None:
        for region in self.regions.values():
            region.merge_all_write_tables()
            region.run_cache_cycles()
        self.replicate()

    def fail_region(self, name: str) -> None:
        self.regions[name].fail_region()

    def recover_region(self, name: str) -> None:
        self.regions[name].recover_region()

    def shutdown(self) -> None:
        for region in self.regions.values():
            region.shutdown()
