"""Per-node write-ahead log: the durability contract behind the ack.

IPS §III-E persists profiles asynchronously off the dirty list, which
means an ack says nothing about durability — a crashed node silently
loses every acked-but-unflushed write.  This module supplies the missing
contract: a write is acked only after its WAL record is durable, and a
restarting node replays the log tail to rebuild exactly the acked state
(see :mod:`repro.server.recovery`).

Record framing (all little-endian, reusing the :class:`FileKVStore`
length-prefixed idiom)::

    record := [length u32][crc u32][sequence u64][payload]

``length`` counts the bytes after itself (crc + sequence + payload) and
``crc`` is the CRC32 of ``sequence || payload``, so a torn or bit-flipped
record is detected before a single byte of it is applied.  Sequence
numbers are strictly monotonic; replay stops (and truncates) at the first
record that is torn, corrupt, or out of order — everything before it
committed, everything after it never happened.

Sync modes, mirroring the ``durability=`` knob of the file store:

* ``"always"``  — fsync inside every :meth:`append`; the append *is* the
  commit, so per-write acks are crash-safe.
* ``"group"``   — appends buffer; an fsync runs every ``group_size``
  appends or on an explicit :meth:`commit` (the ack barrier a batched
  write call issues once for the whole batch).
* ``"manual"``  — only :meth:`commit` ever syncs (benchmarks/ablations).

The physical file is abstracted behind :class:`LogFile` so the
crash-point harness can model machine-death semantics precisely:
:class:`MemoryLogFile` distinguishes written bytes from *durable* (synced)
bytes and can be "crashed" back to the durable prefix, torn mid-record.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol

from ..errors import StorageError

_FRAME = struct.Struct("<II")  # length (after itself), crc32
_SEQ = struct.Struct("<Q")
_HEADER_LEN = _FRAME.size + _SEQ.size

SYNC_MODES = ("always", "group", "manual")


class CrashPointSite(Protocol):
    """Seam the crash-point harness plugs into WAL/checkpoint writes.

    ``write`` routes physical bytes through the harness so it can tear a
    record at a chosen byte offset; ``reach`` marks a named point (e.g.
    post-append/pre-fsync) where a crash may fire.  The default
    :data:`NULL_SITE` does neither and costs one call.
    """

    def write(self, site: str, data: bytes, sink) -> None:
        ...

    def reach(self, site: str) -> None:
        ...


class _NullSite:
    def write(self, site: str, data: bytes, sink) -> None:
        sink(data)

    def reach(self, site: str) -> None:
        return None


NULL_SITE = _NullSite()


def fsync_dir(path: Path) -> None:
    """Make a rename inside ``path`` durable.

    ``os.replace`` updates a directory entry; fsyncing the replaced file
    does not cover that entry, so after a crash the rename itself may be
    lost.  Databases fsync the parent directory after every rename — so
    do we.
    """
    fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Log files
# ----------------------------------------------------------------------


class LogFile(Protocol):
    """Append-only byte log with explicit sync and atomic rewrite."""

    def append(self, data: bytes) -> None:
        ...

    def fsync(self) -> None:
        ...

    def read_all(self) -> bytes:
        ...

    def rewrite(self, data: bytes) -> None:
        ...

    def size(self) -> int:
        ...

    def close(self) -> None:
        ...


class FileLogFile:
    """Real on-disk log file (fsync-backed durability)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "ab")

    def append(self, data: bytes) -> None:
        self._handle.write(data)

    def fsync(self) -> None:
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def read_all(self) -> bytes:
        self._handle.flush()
        return self.path.read_bytes()

    def rewrite(self, data: bytes) -> None:
        """Atomically replace the whole log (checkpoint truncation)."""
        temp_path = self.path.with_suffix(self.path.suffix + ".rewrite")
        with open(temp_path, "wb") as temp:
            temp.write(data)
            temp.flush()
            os.fsync(temp.fileno())
        self._handle.close()
        os.replace(temp_path, self.path)
        # Without this, a crash can undo the rename itself: e.g. the WAL
        # truncation survives but the checkpoint rewrite does not, and
        # recovery replays the truncated tail onto the *old* base.
        fsync_dir(self.path.parent)
        self._handle = open(self.path, "ab")

    def size(self) -> int:
        self._handle.flush()
        return self.path.stat().st_size

    def close(self) -> None:
        self._handle.flush()
        self._handle.close()


class MemoryLogFile:
    """In-memory log file with machine-crash semantics.

    Written bytes sit in a volatile buffer until :meth:`fsync` extends the
    durable watermark over them; :meth:`crash` discards everything past
    the watermark — the byte-accurate model of a machine dying between a
    buffered write and its sync.  :meth:`rewrite` is atomic, as the real
    file's tmp-plus-rename is.
    """

    def __init__(self) -> None:
        self._data = bytearray()
        self._durable = 0
        self.crash_count = 0

    def append(self, data: bytes) -> None:
        self._data.extend(data)

    def fsync(self) -> None:
        self._durable = len(self._data)

    def read_all(self) -> bytes:
        return bytes(self._data)

    def durable_bytes(self) -> bytes:
        return bytes(self._data[: self._durable])

    def rewrite(self, data: bytes) -> None:
        self._data = bytearray(data)
        self._durable = len(self._data)

    def size(self) -> int:
        return len(self._data)

    def close(self) -> None:
        return None

    def crash(self) -> None:
        """Machine death: everything past the durable watermark is gone."""
        self.crash_count += 1
        del self._data[self._durable :]


# ----------------------------------------------------------------------
# The log
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WALRecord:
    """One committed log record."""

    sequence: int
    payload: bytes


@dataclass
class ReplayReport:
    """What a replay scan found (feeds recovery counters)."""

    records: int = 0
    bytes_scanned: int = 0
    torn_tail_bytes: int = 0
    corrupt_records: int = 0
    first_sequence: int = 0
    last_sequence: int = 0


@dataclass
class WALStats:
    appends: int = 0
    commits: int = 0
    bytes_appended: int = 0
    truncations: int = 0
    records_dropped_by_truncate: int = 0


class WriteAheadLog:
    """CRC32-framed, sequence-numbered write-ahead log over a log file."""

    def __init__(
        self,
        log_file: LogFile | str | Path,
        sync: str = "always",
        group_size: int = 32,
        site: CrashPointSite = NULL_SITE,
    ) -> None:
        if sync not in SYNC_MODES:
            raise StorageError(
                f"sync must be one of {SYNC_MODES}, got {sync!r}"
            )
        if group_size <= 0:
            raise ValueError(f"group_size must be positive, got {group_size}")
        if isinstance(log_file, (str, Path)):
            log_file = FileLogFile(log_file)
        self._file = log_file
        self._sync = sync
        self._group_size = group_size
        self._site = site
        self._lock = threading.Lock()
        self._unsynced = 0
        self.stats = WALStats()
        # Adopt the existing tail: the next append continues the sequence,
        # and any torn garbage after the last valid record is cut off now
        # so it cannot prefix-corrupt records appended later.
        report = self._scan(self._file.read_all(), repair=True)
        self.last_sequence = report.last_sequence
        #: Highest sequence known to be on disk: a value stamped past it
        #: must not reach the KV store before a :meth:`commit`.
        self.durable_sequence = report.last_sequence

    @property
    def sync_mode(self) -> str:
        return self._sync

    def ensure_sequence_at_least(self, sequence: int) -> None:
        """Seed the sequence space; never moves it backwards.

        A checkpoint truncates the log, so a process restart can open an
        *empty* file whose scan yields ``last_sequence == 0`` while the
        checkpoint barrier sits at some higher value.  New appends would
        then be numbered inside the already-checkpointed range and
        recovery's ``sequence <= checkpoint_sequence`` dedup would
        silently discard them — acked-write loss.  The durability layer
        calls this with the checkpoint barrier at open and recover time.
        """
        with self._lock:
            if sequence > self.last_sequence:
                self.last_sequence = sequence
                if self._unsynced == 0:
                    self.durable_sequence = sequence

    # ------------------------------------------------------------------
    # Append / commit
    # ------------------------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Append one record; returns its sequence number.

        In ``"always"`` mode the record is durable when this returns — the
        caller may ack immediately.  In the other modes the caller must
        :meth:`commit` (or rely on the group barrier) before acking.
        """
        with self._lock:
            sequence = self.last_sequence + 1
            body = _SEQ.pack(sequence) + payload
            record = _FRAME.pack(len(body), zlib.crc32(body)) + body
            self._site.write("wal.append", record, self._file.append)
            self.last_sequence = sequence
            self.stats.appends += 1
            self.stats.bytes_appended += len(record)
            self._unsynced += 1
            self._site.reach("wal.pre_fsync")
            if self._sync == "always" or (
                self._sync == "group" and self._unsynced >= self._group_size
            ):
                self._commit_locked()
            return sequence

    def append_many(self, payloads: Iterable[bytes]) -> list[int]:
        """Append a batch, then force one group commit (the batch ack)."""
        sequences = [self.append(payload) for payload in payloads]
        if self._sync != "manual":
            self.commit()
        return sequences

    def commit(self) -> None:
        """Group-commit barrier: make every appended record durable."""
        with self._lock:
            self._commit_locked()

    def _commit_locked(self) -> None:
        if self._unsynced == 0:
            return
        self._file.fsync()
        self._unsynced = 0
        self.durable_sequence = self.last_sequence
        self.stats.commits += 1

    # ------------------------------------------------------------------
    # Replay / truncation
    # ------------------------------------------------------------------

    def replay(self) -> tuple[list[WALRecord], ReplayReport]:
        """Parse every committed record currently in the file.

        Never raises on damage: a torn or corrupt record ends the scan and
        everything from it on is reported (and already truncated at open
        time for garbage that predates this process).
        """
        with self._lock:
            records: list[WALRecord] = []
            report = self._scan(
                self._file.read_all(), repair=False, out=records
            )
            return records, report

    def _scan(
        self,
        data: bytes,
        repair: bool,
        out: list[WALRecord] | None = None,
    ) -> ReplayReport:
        report = ReplayReport()
        pos = 0
        last_sequence = 0
        while pos < len(data):
            if pos + _HEADER_LEN > len(data):
                break  # Torn frame header.
            length, crc = _FRAME.unpack_from(data, pos)
            end = pos + _FRAME.size + length
            if length < _SEQ.size or end > len(data):
                break  # Torn body (or nonsense length from a bit flip).
            body = data[pos + _FRAME.size : end]
            if zlib.crc32(body) != crc:
                report.corrupt_records += 1
                break
            (sequence,) = _SEQ.unpack_from(body, 0)
            if sequence <= last_sequence:
                report.corrupt_records += 1
                break  # Sequence went backwards: framing drifted.
            if report.records == 0:
                report.first_sequence = sequence
            last_sequence = sequence
            if out is not None:
                out.append(WALRecord(sequence, body[_SEQ.size :]))
            report.records += 1
            pos = end
        report.bytes_scanned = pos
        report.torn_tail_bytes = len(data) - pos
        report.last_sequence = last_sequence
        if repair and report.torn_tail_bytes:
            self._file.rewrite(data[:pos])
        return report

    def truncate_through(self, sequence: int) -> int:
        """Drop every record with ``sequence <=`` the checkpoint barrier.

        Rewrites the log atomically with only the surviving tail; returns
        the number of records dropped.
        """
        with self._lock:
            self._commit_locked()
            records: list[WALRecord] = []
            self._scan(self._file.read_all(), repair=False, out=records)
            survivors = bytearray()
            dropped = 0
            for record in records:
                if record.sequence <= sequence:
                    dropped += 1
                    continue
                body = _SEQ.pack(record.sequence) + record.payload
                survivors.extend(
                    _FRAME.pack(len(body), zlib.crc32(body)) + body
                )
            self._site.reach("wal.truncate")
            self._file.rewrite(bytes(survivors))
            self.stats.truncations += 1
            self.stats.records_dropped_by_truncate += dropped
            return dropped

    # ------------------------------------------------------------------

    def pending_records(self) -> int:
        """Records currently in the log (the replay a crash would cost)."""
        with self._lock:
            return self._scan(self._file.read_all(), repair=False).records

    def size_bytes(self) -> int:
        return self._file.size()

    def close(self) -> None:
        with self._lock:
            self._commit_locked()
            self._file.close()
