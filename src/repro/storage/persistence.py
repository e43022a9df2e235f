"""Profile persistence modes (§III-E, Figs. 12-14).

Two interchangeable persistence managers:

* :class:`BulkPersistence` — the simple model: the key is the profile id,
  the value is the whole profile serialized and compressed (Fig. 12).
* :class:`FineGrainedPersistence` — the slice-split model for very large
  profiles: a *meta* record lists the slice keys, every slice is stored
  under its own key, and the versioned ``xset``/``xget`` protocol of
  Fig. 14 keeps meta and slices consistent — slice values are written
  first, the meta record last, and any reader holding a stale meta version
  reloads before proceeding.

Both stamp what they persist with the profile's ``applied_seq`` — the
highest WAL sequence the value already contains — atomically with the
value itself (beside the blob / inside the meta record) and restore it on
load; crash recovery replays onto a loaded base only the records past its
stamp.  The stamp lives here, not in :class:`ProfileCodec`, so wire,
replication and repair images do not carry it.  Unstamped values are
rejected with a :class:`StorageError`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Protocol

from ..core.profile import ProfileData
from ..core.slice import Slice
from ..errors import SerializationError, StorageError, VersionConflictError
from ..obs.trace import NULL_TRACER
from .compression import compress, decompress
from .kvstore import KVStore
from .serialization import ProfileCodec, read_varint, write_varint


@dataclass
class PersistenceStats:
    """Accounting for flush/load traffic (feeds Table II and ablations)."""

    profiles_flushed: int = 0
    profiles_loaded: int = 0
    slices_flushed: int = 0
    slices_loaded: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    version_conflicts: int = 0
    orphan_slices_swept: int = 0


class PersistenceManager(Protocol):
    """What the cache layer needs from a persistence mode."""

    stats: PersistenceStats

    def flush(self, profile: ProfileData) -> None:
        ...

    def load(self, profile_id: int) -> ProfileData | None:
        ...

    def delete(self, profile_id: int) -> None:
        ...

    def sync(self) -> None:
        ...


#: Lead byte of every stamped record (bulk value and fine-grained meta).
#: It names the codec under the record too: ``0xA5`` records were written
#: when :mod:`compression` was the from-scratch LZ codec, which no build
#: since can read, so they are refused by name.
_STAMPED = 0xA6
_STAMPED_LZ = 0xA5


def _stamp_header(applied_seq: int) -> bytearray:
    out = bytearray((_STAMPED,))
    write_varint(out, applied_seq)
    return out


def _read_stamp(record: bytes, what: str) -> tuple[int, int]:
    """``(applied_seq, offset of the payload)`` of a stamped record."""
    lead = record[0] if record else None
    if lead == _STAMPED_LZ:
        raise StorageError(
            f"{what} predates the codec change: it was written by the LZ "
            "codec, which this build no longer reads"
        )
    if lead != _STAMPED:
        raise StorageError(f"{what} carries no applied-sequence stamp")
    return read_varint(record, 1)


def _sync_store(store: KVStore) -> None:
    """Force the store's buffered writes to disk, if it buffers any."""
    sync = getattr(store, "sync", None)
    if sync is not None:
        sync()


def _profile_key(table: str, profile_id: int) -> bytes:
    return f"{table}/p/{profile_id}".encode()


def _meta_key(table: str, profile_id: int) -> bytes:
    return f"{table}/m/{profile_id}".encode()


def _slice_key(table: str, profile_id: int, slice_id: int) -> bytes:
    return f"{table}/s/{profile_id}/{slice_id}".encode()


def _ids_under_prefix(store: KVStore, prefix: bytes) -> set[int]:
    """Profile ids whose key is ``prefix + str(id)`` (key-space scan)."""
    ids: set[int] = set()
    for key in store.keys():
        if key.startswith(prefix):
            try:
                ids.add(int(key[len(prefix) :]))
            except ValueError:
                continue
    return ids


class BulkPersistence:
    """Whole-profile persistence: one key, one compressed value."""

    def __init__(self, store: KVStore, table: str, tracer=NULL_TRACER) -> None:
        self._store = store
        self._table = table
        self.stats = PersistenceStats()
        self.tracer = tracer

    def flush(self, profile: ProfileData) -> None:
        with self.tracer.span(
            "storage.flush", profile=profile.profile_id
        ) as span:
            value = bytes(_stamp_header(profile.applied_seq)) + compress(
                ProfileCodec.encode_profile(profile)
            )
            self._store.set(_profile_key(self._table, profile.profile_id), value)
            self.stats.profiles_flushed += 1
            self.stats.bytes_written += len(value)
            span.tag(bytes=len(value))

    def load(self, profile_id: int) -> ProfileData | None:
        with self.tracer.span("storage.load", profile=profile_id) as span:
            value = self._store.get(_profile_key(self._table, profile_id))
            if value is None:
                span.tag(found=False)
                return None
            self.stats.profiles_loaded += 1
            self.stats.bytes_read += len(value)
            span.tag(found=True, bytes=len(value))
            applied_seq, pos = _read_stamp(value, f"profile {profile_id}")
            profile = ProfileCodec.decode_profile(decompress(value[pos:]))
            profile.applied_seq = applied_seq
            return profile

    def delete(self, profile_id: int) -> None:
        self._store.delete(_profile_key(self._table, profile_id))

    def sync(self) -> None:
        """Make every flushed value durable (checkpoints call this before
        they let the WAL forget the records those values replace)."""
        _sync_store(self._store)

    def stored_profile_ids(self) -> set[int]:
        """Every profile id persisted for this table (anti-entropy enumeration)."""
        return _ids_under_prefix(self._store, f"{self._table}/p/".encode())

    def serialized_size(self, profile: ProfileData) -> int:
        """Size after serialization + compression (the paper's <40 KB figure)."""
        return len(compress(ProfileCodec.encode_profile(profile)))


# ----------------------------------------------------------------------
# Fine-grained mode
# ----------------------------------------------------------------------


@dataclass
class SliceMetaEntry:
    """One row of the slice meta structure (Fig. 13)."""

    slice_id: int
    start_ms: int
    end_ms: int


def _encode_meta(
    profile: ProfileData, entries: list[SliceMetaEntry]
) -> bytes:
    out = _stamp_header(profile.applied_seq)
    write_varint(out, profile.profile_id)
    write_varint(out, profile.write_granularity_ms)
    write_varint(out, len(entries))
    for entry in entries:
        write_varint(out, entry.slice_id)
        write_varint(out, entry.start_ms)
        write_varint(out, entry.end_ms)
    return bytes(out)


def _decode_meta(blob: bytes) -> tuple[int, int, int, list[SliceMetaEntry]]:
    applied_seq, pos = _read_stamp(blob, "slice meta")
    profile_id, pos = read_varint(blob, pos)
    granularity, pos = read_varint(blob, pos)
    count, pos = read_varint(blob, pos)
    entries = []
    for _ in range(count):
        slice_id, pos = read_varint(blob, pos)
        start_ms, pos = read_varint(blob, pos)
        end_ms, pos = read_varint(blob, pos)
        entries.append(SliceMetaEntry(slice_id, start_ms, end_ms))
    if pos != len(blob):
        raise SerializationError("trailing bytes after slice meta")
    return profile_id, granularity, applied_seq, entries


class FineGrainedPersistence:
    """Slice-split persistence with the Fig. 14 version-fencing protocol.

    Flush order (writes): new/changed slice values first (each compressed
    individually), then the meta record via ``xset`` fenced by the version
    read at the start of the flush.  A concurrent flusher that bumped the
    meta version causes :class:`VersionConflictError`; the flush retries
    after reloading the current meta, so the final state always matches
    some complete flush.

    Slice keys are content-addressed by ``(start_ms, end_ms)`` identity of
    the slice at flush time; slices dropped by compaction leave garbage
    values behind which :meth:`flush` deletes once the new meta is durable.
    """

    def __init__(
        self,
        store: KVStore,
        table: str,
        max_retries: int = 4,
        tracer=NULL_TRACER,
    ) -> None:
        self._store = store
        self._table = table
        self._max_retries = max_retries
        self.stats = PersistenceStats()
        self.tracer = tracer
        self._next_slice_id = 0
        self._id_lock = threading.Lock()

    def _allocate_slice_id(self) -> int:
        with self._id_lock:
            self._next_slice_id += 1
            return self._next_slice_id

    def flush(self, profile: ProfileData) -> None:
        with self.tracer.span(
            "storage.flush", profile=profile.profile_id
        ) as span:
            for attempt in range(self._max_retries):
                try:
                    self._flush_once(profile)
                    span.tag(slices=len(profile.slices), attempts=attempt + 1)
                    return
                except VersionConflictError:
                    self.stats.version_conflicts += 1
                    if attempt == self._max_retries - 1:
                        raise
            raise StorageError("unreachable")  # pragma: no cover

    def _flush_once(self, profile: ProfileData) -> None:
        meta_key = _meta_key(self._table, profile.profile_id)
        current = self._store.xget(meta_key)
        held_version = current.version if current is not None else None
        previous_ids = set()
        if current is not None:
            *_, previous_entries = _decode_meta(current.value)
            previous_ids = {entry.slice_id for entry in previous_entries}
            # Slice keys are per profile and every new manager (each node
            # restart) counts from zero: allocate past the ids the live
            # meta lists, or step 1 overwrites those values in place
            # before the publish and step 3 then deletes them.
            with self._id_lock:
                self._next_slice_id = max(
                    self._next_slice_id, max(previous_ids, default=0)
                )

        # 1. Write every slice value under a fresh id.
        entries = []
        for profile_slice in profile.slices:
            slice_id = self._allocate_slice_id()
            blob = compress(ProfileCodec.encode_slice(profile_slice))
            self._store.set(
                _slice_key(self._table, profile.profile_id, slice_id), blob
            )
            self.stats.slices_flushed += 1
            self.stats.bytes_written += len(blob)
            entries.append(
                SliceMetaEntry(slice_id, profile_slice.start_ms, profile_slice.end_ms)
            )

        # 2. Publish the meta record, fenced by the version we read.
        meta_blob = _encode_meta(profile, entries)
        self._store.xset(meta_key, meta_blob, held_version)
        self.stats.profiles_flushed += 1
        self.stats.bytes_written += len(meta_blob)

        # 3. Garbage-collect slice values orphaned by this flush.
        for orphan_id in previous_ids:
            self._store.delete(
                _slice_key(self._table, profile.profile_id, orphan_id)
            )

    def load(self, profile_id: int) -> ProfileData | None:
        return self._load(profile_id, window=None)

    def load_window(
        self, profile_id: int, start_ms: int, end_ms: int
    ) -> ProfileData | None:
        """Load only the slices overlapping ``[start_ms, end_ms)``.

        This is the payoff of the slice-split scheme (§III-E): reloading a
        large profile for a short-window query fetches a handful of slice
        values instead of the whole profile, bounding both KV traffic and
        deserialization cost.  The returned profile is *partial*; callers
        must not flush it back as the complete profile.
        """
        if end_ms <= start_ms:
            raise StorageError(
                f"empty load window [{start_ms}, {end_ms})"
            )
        return self._load(profile_id, window=(start_ms, end_ms))

    def _load(
        self, profile_id: int, window: tuple[int, int] | None
    ) -> ProfileData | None:
        with self.tracer.span("storage.load", profile=profile_id) as span:
            for _ in range(self._max_retries):
                profile, missing = self._load_once(profile_id, window)
                if missing is None:
                    span.tag(found=profile is not None)
                    return profile
            raise StorageError(
                f"profile {profile_id}: slice {missing} is listed by the "
                f"meta record but still absent from the store after "
                f"{self._max_retries} reads"
            )

    def _load_once(
        self, profile_id: int, window: tuple[int, int] | None
    ) -> tuple[ProfileData | None, int | None]:
        """``(profile, None)``, or ``(None, id of a slice that was not there)``."""
        meta = self._store.xget(_meta_key(self._table, profile_id))
        if meta is None:
            return None, None
        stored_id, granularity, applied_seq, entries = _decode_meta(meta.value)
        if stored_id != profile_id:
            raise StorageError(
                f"meta record for {profile_id} claims profile {stored_id}"
            )
        self.stats.bytes_read += len(meta.value)
        if window is not None:
            start_ms, end_ms = window
            entries = [
                entry
                for entry in entries
                if entry.start_ms < end_ms and start_ms < entry.end_ms
            ]
        slices: list[Slice] = []
        for entry in entries:
            blob = self._store.get(
                _slice_key(self._table, profile_id, entry.slice_id)
            )
            if blob is None:
                # A slice vanished under us: the meta we hold is stale
                # relative to a concurrent flush (the caller reloads from
                # the top), or the slice is gone for good.
                return None, entry.slice_id
            self.stats.slices_loaded += 1
            self.stats.bytes_read += len(blob)
            slices.append(ProfileCodec.decode_slice(decompress(blob)))
        profile = ProfileData(profile_id, granularity)
        profile.replace_slices(slices)
        profile.applied_seq = applied_seq
        self.stats.profiles_loaded += 1
        return profile, None

    def delete(self, profile_id: int) -> None:
        meta_key = _meta_key(self._table, profile_id)
        meta = self._store.xget(meta_key)
        if meta is None:
            return
        *_, entries = _decode_meta(meta.value)
        self._store.delete(meta_key)
        for entry in entries:
            self._store.delete(_slice_key(self._table, profile_id, entry.slice_id))

    def sync(self) -> None:
        """Make every flushed slice and meta record durable."""
        _sync_store(self._store)

    def stored_profile_ids(self) -> set[int]:
        """Every profile id with a meta record (anti-entropy enumeration)."""
        return _ids_under_prefix(self._store, f"{self._table}/m/".encode())

    def sweep_orphans(self) -> int:
        """Delete slice values no meta record references; returns the count.

        A flush that dies between step 1 (slice values written) and step 2
        (meta ``xset``) leaks its fresh slice keys forever — no meta ever
        points at them, and the step 3 GC of later flushes only collects
        ids that *were* published.  Recovery calls this sweep to reclaim
        them.  Must not run concurrently with flushers: a sweep cannot
        tell an orphan from a slice whose meta publish is in flight.
        """
        slice_prefix = f"{self._table}/s/".encode()
        by_profile: dict[int, list[tuple[int, bytes]]] = {}
        for key in self._store.keys():
            if not key.startswith(slice_prefix):
                continue
            try:
                profile_part, slice_part = key[len(slice_prefix) :].split(b"/")
                profile_id, slice_id = int(profile_part), int(slice_part)
            except ValueError:
                continue
            by_profile.setdefault(profile_id, []).append((slice_id, key))
        swept = 0
        for profile_id, slices in sorted(by_profile.items()):
            meta = self._store.xget(_meta_key(self._table, profile_id))
            referenced: set[int] = set()
            if meta is not None:
                *_, entries = _decode_meta(meta.value)
                referenced = {entry.slice_id for entry in entries}
            for slice_id, key in sorted(slices):
                if slice_id not in referenced:
                    self._store.delete(key)
                    swept += 1
        self.stats.orphan_slices_swept += swept
        return swept
