"""Read-write isolation via a separate write table (§III-F).

To keep query latency stable under real-time ingestion, IPS first lands
incoming writes in a lightweight *write table* and merges them into the
main table every few seconds, applying the configured aggregate functions.
The write table's memory usage is capped so backfill bursts cannot starve
the serving cache; the whole feature sits behind a hot switch so operators
can toggle it per table at runtime (e.g. around offline bulk loads).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence


@dataclass
class PendingWrite:
    """One buffered ``add_profile`` call."""

    profile_id: int
    timestamp_ms: int
    slot: int
    type_id: int
    fid: int
    counts: Sequence[int]
    #: WAL sequence of the write (0 on a node without durability); the
    #: merge stamps it onto the profile it lands in.
    sequence: int = 0

    def memory_bytes(self) -> int:
        return 64 + 8 * len(self.counts)


@dataclass
class WriteTableStats:
    buffered: int = 0
    merged: int = 0
    merge_passes: int = 0
    overflow_syncs: int = 0


class WriteTable:
    """Bounded buffer of pending writes for one table.

    :meth:`append` buffers a write and reports whether the caller must fall
    back to a synchronous main-table write (buffer at capacity — the
    "overflow" path keeps ingestion lossless while honouring the memory
    cap; the caller merges the table first so the direct write cannot
    overtake older buffered writes to the same profile).  :meth:`drain` atomically takes the buffered batch for merging.
    """

    def __init__(self, memory_limit_bytes: int = 8 * 1024 * 1024) -> None:
        if memory_limit_bytes <= 0:
            raise ValueError(
                f"memory limit must be positive, got {memory_limit_bytes}"
            )
        self.memory_limit_bytes = memory_limit_bytes
        self._writes: list[PendingWrite] = []
        self._bytes = 0
        self._lock = threading.Lock()
        self.stats = WriteTableStats()

    def append(self, write: PendingWrite) -> bool:
        """Buffer a write; returns False when the memory cap is hit."""
        cost = write.memory_bytes()
        with self._lock:
            if self._bytes + cost > self.memory_limit_bytes:
                self.stats.overflow_syncs += 1
                return False
            self._writes.append(write)
            self._bytes += cost
            self.stats.buffered += 1
            return True

    def drain(self) -> list[PendingWrite]:
        """Take everything buffered so far (one merge batch)."""
        with self._lock:
            batch = self._writes
            self._writes = []
            self._bytes = 0
        if batch:
            self.stats.merged += len(batch)
            self.stats.merge_passes += 1
        return batch

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._writes)

    @property
    def memory_bytes(self) -> int:
        with self._lock:
            return self._bytes
