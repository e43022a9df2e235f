"""Cluster layer: load balancing, client and multi-region.

IPS scales horizontally by sharding profile ids over instances with an
ID-based consistent hash (§III); the Consul-like registration, heartbeat
and TTL flow is :mod:`repro.net.registry`, on the socket cluster.  For
fault tolerance, deployments span multiple regions: clients write to every
region but query only the local one, and only one region's instances
persist to the master KV cluster (§III-G, Fig. 15).
"""

from .autoscaler import AutoScaler, ScalingEvent, ScalingPolicy
from .client import ClientStats, IPSClient
from .cluster import IPSCluster, MultiRegionDeployment
from .hashring import ConsistentHashRing
from .region import Region
from .resilience import (
    BackoffPolicy,
    CircuitBreaker,
    Deadline,
    HedgePolicy,
    ResilienceConfig,
    ResilienceStats,
    ResilientExecutor,
)

__all__ = [
    "AutoScaler",
    "BackoffPolicy",
    "CircuitBreaker",
    "ClientStats",
    "ConsistentHashRing",
    "Deadline",
    "HedgePolicy",
    "IPSCluster",
    "IPSClient",
    "MultiRegionDeployment",
    "Region",
    "ResilienceConfig",
    "ResilienceStats",
    "ResilientExecutor",
    "ScalingEvent",
    "ScalingPolicy",
]
