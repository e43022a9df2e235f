"""Crash recovery: stamped values + WAL replay behind the node's ack.

The durability contract (the page-LSN rule grafted onto IPS §III-E's
asynchronous flush path; Monolith's "sync only the touched keys"):

* every acked write is first appended to the node's
  :class:`~repro.storage.wal.WriteAheadLog` — the ack happens only after
  the append commits under the log's sync mode;
* every profile carries ``applied_seq``, the highest WAL sequence merged
  into it, and the persistence manager stores that stamp atomically with
  the value — so each persisted value says which log records it holds;
* a **checkpoint** flushes only the profiles dirty at a WAL sequence
  barrier, syncs the store, records the barrier (a few bytes) and
  truncates the log through it: it costs what was dirtied, not what is
  resident;
* **recovery** loads the persisted value of each profile the WAL tail
  touches and applies a record iff ``sequence > applied_seq`` — a value
  a background flusher persisted *after* the barrier already contains
  part of the tail, and its stamp says exactly which part — then
  reinstalls the rebuilt profiles as resident *and dirty* and sweeps
  fine-grained slice orphans left by torn flushes.

The stamp rests on four invariants (docs/internals.md §12): per-profile
apply order equals WAL order; a value stamped ``s`` reaches the store
only after the WAL is durable through ``s``; the store is synced before
the barrier is committed; and restarted logs number new records past
every persisted stamp (:meth:`WriteAheadLog.ensure_sequence_at_least`).

The barrier is captured under the ack lock (no write can ack meanwhile);
everything slow — encoding, compression, KV writes, the sync — happens
outside it.  Checkpoints must not run concurrently with engine
maintenance: drive :meth:`NodeDurability.checkpoint` from the loop that
runs maintenance, like every other background duty here.
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import dataclass, field

from ..clock import perf_ms
from ..core.profile import ProfileData
from ..errors import StorageError
from ..obs.registry import MetricsRegistry
from ..obs.trace import NULL_TRACER
# Unused here; benchmarks/e2e/layers.py wraps ``recovery.compress`` by name.
from ..storage.compression import compress  # noqa: F401
from ..storage.serialization import (
    read_varint,
    write_varint,
    zigzag_decode,
    zigzag_encode,
)
from ..storage.wal import (
    NULL_SITE,
    CrashPointSite,
    LogFile,
    MemoryLogFile,
    WriteAheadLog,
)

CHECKPOINT_MAGIC = 0x49505343  # "IPSC"
CHECKPOINT_VERSION = 2
_CRC = struct.Struct("<I")


# ----------------------------------------------------------------------
# Logical write records
# ----------------------------------------------------------------------


def encode_write(
    profile_id: int,
    timestamp_ms: int,
    slot: int,
    type_id: int,
    fid: int,
    counts,
) -> bytes:
    """Varint-encode one logical ``add_profile`` for the WAL payload."""
    out = bytearray()
    write_varint(out, profile_id)
    write_varint(out, timestamp_ms)
    write_varint(out, slot)
    write_varint(out, type_id)
    write_varint(out, fid)
    write_varint(out, len(counts))
    for count in counts:
        write_varint(out, zigzag_encode(int(count)))
    return bytes(out)


def decode_write(payload: bytes) -> tuple[int, int, int, int, int, list[int]]:
    pos = 0
    profile_id, pos = read_varint(payload, pos)
    timestamp_ms, pos = read_varint(payload, pos)
    slot, pos = read_varint(payload, pos)
    type_id, pos = read_varint(payload, pos)
    fid, pos = read_varint(payload, pos)
    count_len, pos = read_varint(payload, pos)
    counts = []
    for _ in range(count_len):
        value, pos = read_varint(payload, pos)
        counts.append(zigzag_decode(value))
    if pos != len(payload):
        raise StorageError("trailing bytes after WAL write record")
    return profile_id, timestamp_ms, slot, type_id, fid, counts


# ----------------------------------------------------------------------
# Checkpoint file
# ----------------------------------------------------------------------


def _encode_checkpoint(sequence: int) -> bytes:
    body = bytearray()
    write_varint(body, CHECKPOINT_MAGIC)
    write_varint(body, CHECKPOINT_VERSION)
    write_varint(body, sequence)
    return _CRC.pack(zlib.crc32(body)) + bytes(body)


def _decode_checkpoint(data: bytes) -> int:
    """The barrier a checkpoint file records; empty means "never"."""
    if not data:
        return 0
    if len(data) < _CRC.size:
        raise StorageError("checkpoint file shorter than its checksum")
    (crc,) = _CRC.unpack_from(data, 0)
    body = data[_CRC.size :]
    if zlib.crc32(body) != crc:
        # Unlike the WAL, a checkpoint is written atomically, so damage is
        # disk rot rather than an expected crash artefact: refuse to
        # recover from a barrier we cannot trust.
        raise StorageError("checkpoint failed its CRC32 check")
    pos = 0
    magic, pos = read_varint(body, pos)
    if magic != CHECKPOINT_MAGIC:
        raise StorageError(f"bad checkpoint magic {magic:#x}")
    version, pos = read_varint(body, pos)
    if version != CHECKPOINT_VERSION:
        raise StorageError(f"unsupported checkpoint version {version}")
    sequence, pos = read_varint(body, pos)
    if pos != len(body):
        raise StorageError("trailing bytes after checkpoint barrier")
    return sequence


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


@dataclass
class CheckpointReport:
    """What one checkpoint did (``profiles``: flushed at the barrier).

    ``skipped`` is set when a profile that was dirty at the barrier could
    not be flushed (failing KV store): committing then would leave acked
    data whose only durable copy is about to be truncated out of the WAL,
    so the checkpoint aborts and the WAL stays intact.
    """

    sequence: int = 0
    profiles: int = 0
    bytes_written: int = 0
    wal_records_truncated: int = 0
    skipped: bool = False


@dataclass
class RecoveryReport:
    """What one recovery pass did (the numbers the dashboard shows)."""

    checkpoint_sequence: int = 0
    last_sequence: int = 0
    records_scanned: int = 0
    records_replayed: int = 0
    records_deduped: int = 0
    torn_tail_bytes: int = 0
    corrupt_records: int = 0
    profiles_rebuilt: int = 0
    profiles_created: int = 0
    dirty_rebuilt: int = 0
    orphan_slices_swept: int = 0
    replay_ms: float = 0.0

    def summary(self) -> dict[str, float]:
        return {
            "checkpoint_sequence": float(self.checkpoint_sequence),
            "records_replayed": float(self.records_replayed),
            "profiles_rebuilt": float(self.profiles_rebuilt),
            "dirty_rebuilt": float(self.dirty_rebuilt),
            "orphan_slices_swept": float(self.orphan_slices_swept),
            "replay_ms": self.replay_ms,
        }


@dataclass
class DurabilityStats:
    """Cumulative counters for one node's durability layer."""

    writes_logged: int = 0
    checkpoints: int = 0
    recoveries: int = 0
    records_replayed: int = 0
    last_recovery: RecoveryReport | None = field(default=None, repr=False)


# ----------------------------------------------------------------------
# The durability layer
# ----------------------------------------------------------------------


class NodeDurability:
    """Binds a WAL + checkpoint file to a node's write and restart paths.

    One instance per node.  The node calls :meth:`log_write` before a
    write is applied (:meth:`log_write_many` for a batched call, which
    also issues the batch's single ack barrier), :meth:`maybe_checkpoint`
    from its background cycle, and :meth:`recover` on restart.
    """

    def __init__(
        self,
        wal: WriteAheadLog,
        checkpoint_file: LogFile,
        checkpoint_interval_records: int = 0,
        node_id: str = "node",
        registry: MetricsRegistry | None = None,
        tracer=NULL_TRACER,
        site: CrashPointSite = NULL_SITE,
    ) -> None:
        if checkpoint_interval_records < 0:
            raise ValueError(
                "checkpoint_interval_records must be >= 0, got "
                f"{checkpoint_interval_records}"
            )
        self.wal = wal
        self._checkpoint_file = checkpoint_file
        self.checkpoint_interval_records = checkpoint_interval_records
        self.node_id = node_id
        self.tracer = tracer
        self._site = site
        self.stats = DurabilityStats()
        #: Serializes acks against the checkpoint barrier capture; the node
        #: also takes it to flip isolation (ack lock, then merge lock).
        self.ack_lock = threading.Lock()
        #: One checkpoint at a time: the maintenance tick, the worker's
        #: ``checkpoint_now`` call and shutdown may all ask for one, and
        #: the barrier file's rewrite is not safe from two threads.
        self._checkpoint_lock = threading.Lock()
        #: Highest sequence covered by the durable checkpoint.
        self.checkpoint_sequence = _decode_checkpoint(
            checkpoint_file.read_all()
        )
        # A restart after a checkpoint opens a truncated (possibly empty)
        # WAL whose scan restarts sequences at 0; new appends must still
        # be numbered past the barrier — and so past every persisted
        # stamp — or recovery's dedup would discard them as already held.
        self.wal.ensure_sequence_at_least(self.checkpoint_sequence)
        self._registry = registry
        if registry is not None:
            self._appends = registry.counter("wal_appends", node=node_id)
            self._checkpoint_counter = registry.counter(
                "checkpoints", node=node_id
            )
            self._recovery_counter = registry.counter(
                "recoveries", node=node_id
            )
            self._replayed_counter = registry.counter(
                "wal_records_replayed", node=node_id
            )
            self._lag_gauge = registry.gauge("wal_replay_lag", node=node_id)
        else:
            self._appends = None
            self._checkpoint_counter = None
            self._recovery_counter = None
            self._replayed_counter = None
            self._lag_gauge = None

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def log_write(
        self,
        profile_id: int,
        timestamp_ms: int,
        slot: int,
        type_id: int,
        fid: int,
        counts,
        apply=None,
    ) -> int:
        """Append one logical write; durable on return in ``always`` mode.

        ``apply`` (the node's buffer-or-apply step, called with the write's
        fields and its sequence) runs under the same ack lock as the
        append, so a checkpoint barrier can never fall between a record
        entering the WAL and its effect entering the node — the window
        that would lose the write at truncation — and writes reach the
        node in WAL order.
        """
        write = (profile_id, timestamp_ms, slot, type_id, fid, counts)
        payload = encode_write(*write)
        with self.ack_lock:
            sequence = self.wal.append(payload)
            if apply is not None:
                apply(*write, sequence)
        self.stats.writes_logged += 1
        if self._appends is not None:
            self._appends.inc()
        if self._lag_gauge is not None:
            self._lag_gauge.set(float(self.replay_lag_records()))
        return sequence

    def log_write_many(self, writes, apply=None) -> list[int]:
        """Batch variant of :meth:`log_write`: the node's batched write
        path (``add_profiles``).

        One ack-lock hold covers every append *and* apply in the batch —
        the same no-barrier-between-append-and-apply invariant as
        :meth:`log_write`, extended over the whole batch — and the WAL's
        :meth:`~repro.storage.wal.WriteAheadLog.append_many` issues the
        single group commit the batch ack needs.  ``writes`` are
        ``(profile_id, timestamp_ms, slot, type_id, fid, counts)``
        tuples; ``apply`` is called with each tuple's fields and sequence.
        """
        payloads = [encode_write(*write) for write in writes]
        with self.ack_lock:
            sequences = self.wal.append_many(payloads)
            if apply is not None:
                for write, sequence in zip(writes, sequences):
                    apply(*write, sequence)
        self.ack_barrier()
        self.stats.writes_logged += len(sequences)
        if self._appends is not None:
            self._appends.inc(len(sequences))
        if self._lag_gauge is not None:
            self._lag_gauge.set(float(self.replay_lag_records()))
        return sequences

    def ack_barrier(self) -> None:
        """Commit buffered records so the pending ack is crash-safe."""
        if self.wal.sync_mode != "always":
            self.wal.commit()

    def commit_through(self, sequence: int) -> None:
        """Write-ahead rule: make the WAL durable through ``sequence``.

        The flush path calls this before a value stamped ``sequence``
        reaches the store; once the write's ack barrier has run it finds
        nothing to commit.
        """
        if sequence > self.wal.durable_sequence:
            self.wal.commit()

    def replay_lag_records(self) -> int:
        """WAL records a crash right now would have to replay."""
        return max(0, self.wal.last_sequence - self.checkpoint_sequence)

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------

    def should_checkpoint(self) -> bool:
        return (
            self.checkpoint_interval_records > 0
            and self.replay_lag_records() >= self.checkpoint_interval_records
        )

    def maybe_checkpoint(self, node) -> CheckpointReport | None:
        """Checkpoint when the WAL outgrew the configured interval."""
        if not self.should_checkpoint():
            return None
        return self.checkpoint(node)

    def checkpoint(self, node) -> CheckpointReport:
        """Flush what is dirty at the current sequence, truncate the WAL.

        The barrier is captured under the ack lock, so every write with
        ``sequence <= barrier`` is applied (the write table is merged
        below) and its profile is in the dirty snapshot, and no new write
        can sneak under the barrier afterwards.  Nothing is encoded under
        the lock.
        """
        with self._checkpoint_lock, self.tracer.span(
            "node.checkpoint", node=self.node_id
        ):
            with self.ack_lock:
                self._site.reach("checkpoint.begin")
                barrier = self.wal.last_sequence
                node.merge_write_table()
                dirty_at_barrier = node.cache.dirty.dirty_ids()
            # Only the profiles dirty AT the barrier gate truncation: one
            # that cannot flush (failing KV store) exists only in memory
            # and the records about to be cut.  Writes landing during this
            # flush keep their WAL records (sequence > barrier survives
            # truncation), so they cannot starve the checkpoint; a value
            # they slip into carries a stamp past the barrier.
            for profile_id in dirty_at_barrier:
                self._site.reach("checkpoint.flush")
                if node.cache.flush_ids((profile_id,)):
                    return CheckpointReport(
                        sequence=self.checkpoint_sequence, skipped=True
                    )
            # The store must be durable before the barrier is: once the
            # WAL forgets these records the flushed values are the only
            # copy, and a buffering store still holds them in memory.
            node.persistence.sync()
            self._site.reach("checkpoint.synced")
            data = _encode_checkpoint(barrier)
            staged = bytearray()
            self._site.write("checkpoint.write", data, staged.extend)
            self._site.reach("checkpoint.commit")
            self._checkpoint_file.rewrite(bytes(staged))
            self.checkpoint_sequence = barrier
            self._site.reach("checkpoint.post_commit")
            truncated = self.wal.truncate_through(barrier)
            self.stats.checkpoints += 1
            if self._checkpoint_counter is not None:
                self._checkpoint_counter.inc()
            if self._lag_gauge is not None:
                self._lag_gauge.set(float(self.replay_lag_records()))
            return CheckpointReport(
                sequence=barrier,
                profiles=len(dirty_at_barrier),
                bytes_written=len(data),
                wal_records_truncated=truncated,
            )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self, node) -> RecoveryReport:
        """Rebuild acked state: persisted values + the WAL tail past them.

        Idempotent — every pass rebuilds the touched profiles from their
        persisted value and its stamp, so recovering twice (or recovering
        a node that did not actually lose state) converges on the same
        result.
        """
        with self.tracer.span("node.recover", node=self.node_id):
            started = perf_ms()
            report = RecoveryReport()
            records, scan = self.wal.replay()
            checkpoint_seq = _decode_checkpoint(
                self._checkpoint_file.read_all()
            )
            self.checkpoint_sequence = checkpoint_seq
            # Same restart hazard as in __init__: post-recovery appends
            # must be numbered past the barrier the checkpoint restored.
            self.wal.ensure_sequence_at_least(checkpoint_seq)
            report.checkpoint_sequence = checkpoint_seq
            report.last_sequence = scan.last_sequence
            report.records_scanned = scan.records
            report.torn_tail_bytes = scan.torn_tail_bytes
            report.corrupt_records = scan.corrupt_records

            granularity = node.engine.config.time_dimension.bands[0].granularity_ms
            aggregate = node.engine.table.aggregate
            bases: dict[int, ProfileData] = {}
            rebuilt: dict[int, ProfileData] = {}
            for record in records:  # Strictly increasing (the scan's rule).
                if record.sequence <= checkpoint_seq:
                    report.records_deduped += 1
                    continue
                profile_id, ts, slot, type_id, fid, counts = decode_write(
                    record.payload
                )
                profile = bases.get(profile_id)
                if profile is None:
                    profile = node.persistence.load(profile_id)
                    if profile is not None:
                        report.profiles_rebuilt += 1
                    else:
                        profile = ProfileData(profile_id, granularity)
                        report.profiles_created += 1
                    bases[profile_id] = profile
                if record.sequence <= profile.applied_seq:
                    # A flush after the barrier already persisted it.
                    report.records_deduped += 1
                    continue
                profile.add(ts, slot, type_id, fid, counts, aggregate)
                profile.applied_seq = record.sequence
                rebuilt[profile_id] = profile
                report.records_replayed += 1

            # A base no record was applied to is complete in the store.
            for profile in rebuilt.values():
                node.engine.table.put(profile)
                node.cache.install_recovered(profile)
                report.dirty_rebuilt += 1

            sweep = getattr(node.persistence, "sweep_orphans", None)
            if sweep is not None:
                report.orphan_slices_swept = sweep()

            report.replay_ms = perf_ms() - started
            self.stats.recoveries += 1
            self.stats.records_replayed += report.records_replayed
            self.stats.last_recovery = report
            if self._recovery_counter is not None:
                self._recovery_counter.inc()
            if self._replayed_counter is not None:
                self._replayed_counter.inc(report.records_replayed)
            if self._lag_gauge is not None:
                self._lag_gauge.set(float(self.replay_lag_records()))
            return report

    def close(self) -> None:
        self.wal.close()
        self._checkpoint_file.close()


def attach_memory_durability(
    node,
    sync: str = "always",
    checkpoint_interval_records: int = 256,
    registry: MetricsRegistry | None = None,
    site: CrashPointSite = NULL_SITE,
) -> NodeDurability:
    """Give a node an in-memory WAL + checkpoint (tests, chaos clusters).

    The backing :class:`~repro.storage.wal.MemoryLogFile` objects survive
    as long as the durability object does, so a chaos ``node_crash`` →
    ``restart`` cycle over the same node exercises real replay.
    """
    durability = NodeDurability(
        WriteAheadLog(MemoryLogFile(), sync=sync, site=site),
        MemoryLogFile(),
        checkpoint_interval_records=checkpoint_interval_records,
        node_id=node.node_id,
        registry=registry,
        tracer=node.tracer,
        site=site,
    )
    node.durability = durability
    return durability
