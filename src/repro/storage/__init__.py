"""Persistent storage substrate (§III-E).

IPS keeps all serving data in memory and relies on a distributed key-value
store (HBase in production) purely for durability.  This package provides:

* :mod:`kvstore` — a key-value store with the versioned ``xget``/``xset``
  operations the fine-grained persistence protocol requires (Fig. 14);
* :mod:`compression` — the Snappy substitute: stdlib DEFLATE (``zlib``) at
  one fixed fast level, strict single-stream decode;
* :mod:`serialization` — a from-scratch varint/tag binary codec for the
  profile hierarchy (the Protocol Buffers substitute, Fig. 12);
* :mod:`persistence` — the bulk (whole-profile) and fine-grained
  (slice-split with meta record) persistence modes (Figs. 12-14);
* :mod:`replication` — master/slave KV clusters for multi-region reads;
* :mod:`wal` — the per-node write-ahead log (CRC-framed records, group
  commit) the crash-recovery path replays after a node death.
"""

from .compression import compress, decompress
from .filestore import FileKVStore
from .kvstore import FailureInjector, InMemoryKVStore, KVStore, VersionedValue
from .persistence import (
    BulkPersistence,
    FineGrainedPersistence,
    PersistenceManager,
    PersistenceStats,
)
from .replication import ReplicatedKVCluster, ReplicationOp
from .serialization import (
    ProfileCodec,
    deserialize_profile,
    serialize_profile,
)
from .snapshot import export_table, import_table, read_snapshot
from .wal import (
    NULL_SITE,
    FileLogFile,
    MemoryLogFile,
    ReplayReport,
    WALRecord,
    WriteAheadLog,
)

__all__ = [
    "BulkPersistence",
    "FailureInjector",
    "FileKVStore",
    "FileLogFile",
    "FineGrainedPersistence",
    "InMemoryKVStore",
    "KVStore",
    "MemoryLogFile",
    "NULL_SITE",
    "PersistenceManager",
    "PersistenceStats",
    "ProfileCodec",
    "ReplayReport",
    "ReplicatedKVCluster",
    "ReplicationOp",
    "VersionedValue",
    "WALRecord",
    "WriteAheadLog",
    "compress",
    "decompress",
    "deserialize_profile",
    "export_table",
    "import_table",
    "read_snapshot",
    "serialize_profile",
]
