"""IPS server-side components.

An :class:`~repro.server.node.IPSNode` is one IPS instance: the profile
engine fronted by GCache, persisted through a persistence manager, guarded
by per-caller QPS quotas (§V-b), with read-write isolation via a separate
write table (§III-F) and a simulated Thrift-style RPC surface used by the
cluster client and the latency experiments.
"""

from .batch import BatchKeyResult, BatchReadOutcome
from .isolation import WriteTable
from .maintenance import MaintenancePool, MaintenancePoolStats
from .node import IPSNode, NodeStats
from .proxy import RPCNodeProxy
from .quota import QuotaManager, TokenBucket
from .recovery import (
    CheckpointReport,
    NodeDurability,
    RecoveryReport,
    attach_memory_durability,
)
from .result_cache import QueryResultCache, ResultCacheStats
from .rpc import LatencyModel, RPCServer, RPCStats
from .service import IPSService

__all__ = [
    "BatchKeyResult",
    "BatchReadOutcome",
    "CheckpointReport",
    "IPSNode",
    "IPSService",
    "LatencyModel",
    "MaintenancePool",
    "MaintenancePoolStats",
    "NodeDurability",
    "NodeStats",
    "QueryResultCache",
    "QuotaManager",
    "RPCNodeProxy",
    "RPCServer",
    "RPCStats",
    "RecoveryReport",
    "ResultCacheStats",
    "TokenBucket",
    "WriteTable",
    "attach_memory_durability",
]
