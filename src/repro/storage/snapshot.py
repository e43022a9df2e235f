"""Table snapshots: export/import a whole table's profiles.

Operationally IPS tables move between clusters for migrations, disaster
recovery drills and offline experimentation (the §V-b "repeated
experiments" story needs production-shaped data in a scratch cluster).
A snapshot is a flat file of length-prefixed, compressed profile blobs:

``snapshot := MAGIC version table_name_len table_name (profile_len profile)*``

Profiles are encoded with the same varint codec and DEFLATE compression as
the persistence layer and round-trip exactly.  The file version names the
codec too: version 1 files hold LZ-compressed records from before
:mod:`compression` moved to stdlib ``zlib`` and are refused by name.

A snapshot carries profile data only — not the applied-sequence stamp the
persistence layer keeps beside each stored value, which names a position
in the *exporting* node's WAL and would be meaningless (and harmful:
recovery would skip records under it) anywhere else.  Imported profiles
are stamped 0.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from ..core.profile import ProfileData
from ..errors import SerializationError
from .compression import compress, decompress
from .kvstore import KVStore
from .persistence import BulkPersistence
from .serialization import ProfileCodec, read_varint, write_varint

SNAPSHOT_MAGIC = 0x49505353  # "IPSS"
SNAPSHOT_VERSION = 2
_SNAPSHOT_VERSION_LZ = 1


def export_table(
    store: KVStore, table: str, path: str | Path
) -> int:
    """Export every bulk-persisted profile of ``table`` to a snapshot file.

    Returns the number of profiles written.  Fine-grained tables should
    be re-flushed through bulk persistence first (the snapshot format is
    profile-per-record by design).
    """
    persistence = BulkPersistence(store, table)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = bytearray()
    write_varint(header, SNAPSHOT_MAGIC)
    write_varint(header, SNAPSHOT_VERSION)
    name_bytes = table.encode("utf-8")
    write_varint(header, len(name_bytes))
    header.extend(name_bytes)
    count = 0
    with open(path, "wb") as snapshot:
        snapshot.write(bytes(header))
        for profile_id in sorted(persistence.stored_profile_ids()):
            profile = persistence.load(profile_id)
            if profile is None:
                continue  # Deleted between scan and read.
            blob = compress(ProfileCodec.encode_profile(profile))
            record = bytearray()
            write_varint(record, len(blob))
            record.extend(blob)
            snapshot.write(bytes(record))
            count += 1
    return count


def read_snapshot(path: str | Path) -> tuple[str, Iterator[ProfileData]]:
    """Open a snapshot; returns (table_name, iterator of profiles)."""
    data = Path(path).read_bytes()
    pos = 0
    magic, pos = read_varint(data, pos)
    if magic != SNAPSHOT_MAGIC:
        raise SerializationError(f"bad snapshot magic {magic:#x}")
    version, pos = read_varint(data, pos)
    if version == _SNAPSHOT_VERSION_LZ:
        raise SerializationError(
            "snapshot version 1 predates the codec change: its records were "
            "written by the LZ codec, which this build no longer reads"
        )
    if version != SNAPSHOT_VERSION:
        raise SerializationError(f"unsupported snapshot version {version}")
    name_len, pos = read_varint(data, pos)
    if pos + name_len > len(data):
        raise SerializationError("truncated snapshot header")
    table = data[pos : pos + name_len].decode("utf-8")
    pos += name_len

    def profiles() -> Iterator[ProfileData]:
        cursor = pos
        while cursor < len(data):
            length, cursor_after = read_varint(data, cursor)
            end = cursor_after + length
            if end > len(data):
                raise SerializationError("truncated snapshot record")
            blob = data[cursor_after:end]
            yield ProfileCodec.decode_profile(decompress(blob))
            cursor = end

    return table, profiles()


def import_table(
    store: KVStore, path: str | Path, table: str | None = None
) -> int:
    """Load a snapshot into a store's bulk key space.

    ``table`` overrides the snapshot's recorded table name (renaming on
    import).  Existing profiles with the same ids are overwritten.
    Returns the number of profiles imported.
    """
    recorded_table, profiles = read_snapshot(path)
    persistence = BulkPersistence(
        store, table if table is not None else recorded_table
    )
    count = 0
    for profile in profiles:
        persistence.flush(profile)
        count += 1
    return count
