"""Process-per-node cluster over a real socket transport.

Everything under ``repro.net`` escapes the simulation: this package is the
one place in the library allowed to touch the real wall clock (enforced
by ``tools/check_clock_usage.py``), because its job is to run each
:class:`~repro.server.node.IPSNode` as its **own OS process** behind a
real TCP seam — the deployment shape the in-process cluster only models.
Concurrency here is plain threads — one per connection, one per duty —
and the same lint keeps event loops out of the whole tree.

Layering:

* :mod:`repro.net.wire` — length-prefixed, CRC32-framed wire codec for
  requests/responses (reuses the varint primitives of
  :mod:`repro.storage.serialization`);
* :mod:`repro.net.transport` — both ends of the frame protocol: the
  :class:`Transport` interface and its :class:`SocketTransport`
  implementation (a real blocking TCP client), :class:`RemoteNode`, the
  duck-typed node facade the cluster client routes to, and the
  thread-per-connection ``FrameServer`` every server runs;
* :mod:`repro.net.registry` — node registry with heartbeat liveness,
  TTL eviction and deterministic master election, served over the same
  frame server (:class:`RegistryServer`) and reached through
  ``RegistryClient``;
* :mod:`repro.net.replication` — R-way shard replication: sequence-
  numbered per-write deltas shipped asynchronously to the key's other
  roster-ring owners, hinted handoff for dead peers, and content-
  addressed anti-entropy repair (:class:`WorkerReplication`);
* :mod:`repro.net.worker` — the ``python -m repro.net.worker``
  entrypoint hosting one durable IPSNode (WAL + checkpoint + recovery)
  behind the frame server, with maintenance, heartbeat, replication
  shipping and repair each on its own duty thread;
* :mod:`repro.net.cluster` — :class:`ProcessCluster`, which spawns N
  worker processes, discovers them through the registry, and hands out
  :class:`~repro.cluster.client.IPSClient` instances whose hash-ring
  routing, retries, breakers, deadlines and hedged reads now run over
  actual sockets.
"""

from .cluster import NetRegion, ProcessCluster, ProcessDeployment
from .registry import MemberRecord, NodeRegistry, RegistryServer
from .replication import (
    ReplicaApplier,
    ReplicationLog,
    WorkerReplication,
)
from .transport import RemoteNode, SocketTransport, Transport
from .wire import Request, Response, WireCodecError, WriteDelta

__all__ = [
    "MemberRecord",
    "NetRegion",
    "NodeRegistry",
    "ProcessCluster",
    "ProcessDeployment",
    "RegistryServer",
    "RemoteNode",
    "ReplicaApplier",
    "ReplicationLog",
    "Request",
    "Response",
    "SocketTransport",
    "Transport",
    "WireCodecError",
    "WorkerReplication",
    "WriteDelta",
]
