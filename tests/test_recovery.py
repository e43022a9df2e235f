"""Tests for node durability: WAL-acked writes, checkpoints, recovery."""

import struct
import sys
import threading
import time
import zlib

import pytest

from repro.chaos.crashpoints import BufferedKVStore
from repro.clock import MILLIS_PER_DAY, SimulatedClock
from repro.config import TableConfig
from repro.core.timerange import TimeRange
from repro.errors import StorageError
from repro.server.isolation import PendingWrite
from repro.server.node import IPSNode
from repro.server.recovery import (
    NodeDurability,
    attach_memory_durability,
    decode_write,
    encode_write,
)
from repro.storage import InMemoryKVStore
from repro.storage.kvstore import FailureInjector
from repro.storage.serialization import ProfileCodec, write_varint
from repro.storage.wal import FileLogFile, MemoryLogFile, WriteAheadLog

NOW = 400 * MILLIS_PER_DAY
WINDOW = TimeRange.current(2 * MILLIS_PER_DAY)


def make_node(fine_grained=False, store=None, **kwargs):
    config = TableConfig(
        name="t", attributes=("click",), fine_grained_persistence=fine_grained
    )
    return IPSNode(
        "n0",
        config,
        store if store is not None else InMemoryKVStore(),
        clock=SimulatedClock(NOW),
        **kwargs,
    )


def topk(node, profile_id):
    return node.get_profile_topk(profile_id, 1, 0, WINDOW, k=64)


def topk_all(node, profile_id):
    return node.get_profile_topk(profile_id, 1, 0, WINDOW, k=1_000_000)


class TestWriteEncoding:
    def test_roundtrip(self):
        payload = encode_write(7, NOW, 1, 0, 42, (3, 9))
        assert decode_write(payload) == (7, NOW, 1, 0, 42, [3, 9])

    def test_roundtrip_large_values(self):
        payload = encode_write(2**62, NOW, 15, 255, 2**60, (2**40,))
        assert decode_write(payload) == (2**62, NOW, 15, 255, 2**60, [2**40])


class TestCrashRecovery:
    def test_acked_writes_survive_crash(self):
        node = make_node()
        attach_memory_durability(node)
        for fid in range(10):
            node.add_profile(1, NOW, 1, 0, fid, {"click": fid + 1})
        node.merge_write_table()
        before = topk(node, 1)
        node.crash()
        assert topk(node, 1) == []  # Volatile state really died.
        report = node.recover()
        assert report.records_replayed == 10
        assert topk(node, 1) == before

    def test_crash_without_durability_loses_unflushed(self):
        node = make_node()
        for fid in range(10):
            node.add_profile(1, NOW, 1, 0, fid, {"click": 1})
        node.merge_write_table()
        node.crash()
        assert node.recover() is None
        assert topk(node, 1) == []

    def test_recovery_is_idempotent(self):
        node = make_node()
        attach_memory_durability(node)
        node.add_profile(1, NOW, 1, 0, 5, {"click": 3})
        node.crash()
        node.recover()
        first = topk(node, 1)
        node.recover()  # Recovering again must not double-apply.
        assert topk(node, 1) == first

    def test_flushed_and_evicted_profiles_still_served(self):
        node = make_node()
        attach_memory_durability(node)
        node.add_profile(1, NOW, 1, 0, 5, {"click": 3})
        node.merge_write_table()
        node.cache.flush_all()
        before = topk(node, 1)
        node.crash()
        node.recover()
        assert topk(node, 1) == before

    def test_recovered_profiles_carry_the_last_replayed_sequence(self):
        node = make_node()
        attach_memory_durability(node)
        for fid in range(3):
            node.add_profile(1, NOW, 1, 0, fid, {"click": 1})  # seq 1..3
        node.add_profile(2, NOW, 1, 0, 9, {"click": 1})  # seq 4
        node.crash()
        node.recover()
        assert node.cache.get_resident(1).applied_seq == 3
        assert node.cache.get_resident(2).applied_seq == 4
        assert all(pid in node.cache.dirty for pid in (1, 2))

    def test_tail_already_in_the_store_is_not_applied_twice(self):
        """A background flush after the barrier persists part of the WAL
        tail; the stamp beside the value tells recovery which part."""
        node = make_node()
        attach_memory_durability(node)
        node.add_profile(1, NOW, 1, 0, 5, {"click": 3})  # seq 1
        node.add_profile(1, NOW, 1, 0, 5, {"click": 4})  # seq 2
        node.merge_write_table()
        node.cache.flush_all()  # Store holds seq 1-2; the WAL still does too.
        node.add_profile(1, NOW, 1, 0, 5, {"click": 5})  # seq 3, unflushed
        node.crash()
        report = node.recover()
        assert report.records_replayed == 1
        assert report.records_deduped == 2
        assert [r.counts for r in topk(node, 1)] == [(12,)]

    def test_node_without_durability_stamps_zero(self):
        node = make_node()
        node.add_profile(1, NOW, 1, 0, 5, {"click": 3})
        node.merge_write_table()
        assert node.cache.get_resident(1).applied_seq == 0
        node.cache.flush_all()
        assert node.persistence.load(1).applied_seq == 0

    def test_rebuilds_dirty_list_from_wal_replay(self):
        """Recovered profiles re-enter the ShardedDirtyList for flushing."""
        node = make_node()
        attach_memory_durability(node)
        for profile_id in (1, 2, 3):
            node.add_profile(profile_id, NOW, 1, 0, 9, {"click": 2})
        node.crash()
        assert node.cache.dirty.total_entries() == 0
        report = node.recover()
        assert report.dirty_rebuilt == 3
        assert node.cache.dirty.total_entries() == 3
        assert all(pid in node.cache.dirty for pid in (1, 2, 3))
        # The rebuilt entries flush normally...
        assert node.cache.flush_all() == 3
        # ... and the flushed state round-trips through the KV store.
        node.crash()
        node.recover()
        assert [r.fid for r in topk(node, 1)] == [9]

    def test_group_mode_batch_is_durable_after_ack(self):
        node = make_node()
        attach_memory_durability(node, sync="group")
        node.add_profiles(1, NOW, 1, 0, [1, 2, 3], [(1,), (2,), (3,)])
        node.durability.wal._file.crash()  # Machine death right after ack.
        node.crash()
        report = node.recover()
        assert report.records_replayed == 3
        assert {r.fid for r in topk(node, 1)} == {1, 2, 3}

    def test_batch_write_group_commits_once(self):
        """add_profiles routes through append_many: one commit per batch."""
        node = make_node()
        durability = attach_memory_durability(node, sync="group")
        node.add_profiles(1, NOW, 1, 0, [1, 2, 3], [(1,), (2,), (3,)])
        assert durability.wal.stats.appends == 3
        assert durability.wal.stats.commits == 1
        assert durability.stats.writes_logged == 3


class TestCheckpoint:
    def test_checkpoint_truncates_wal(self):
        node = make_node()
        durability = attach_memory_durability(node)
        for fid in range(8):
            node.add_profile(1, NOW, 1, 0, fid, {"click": 1})
        assert durability.wal.pending_records() == 8
        report = node.checkpoint()
        assert report.sequence == 8
        assert report.wal_records_truncated == 8
        assert durability.wal.pending_records() == 0

    def test_recovery_dedups_checkpointed_records(self):
        node = make_node()
        attach_memory_durability(node)
        node.add_profile(1, NOW, 1, 0, 1, {"click": 5})
        node.checkpoint()
        node.add_profile(1, NOW, 1, 0, 2, {"click": 7})
        before_counts = {
            r.fid: r.counts for r in (lambda: (node.merge_write_table(), topk(node, 1))[1])()
        }
        node.crash()
        report = node.recover()
        assert report.checkpoint_sequence == 1
        assert report.records_replayed == 1  # Only the post-checkpoint write.
        assert {r.fid: r.counts for r in topk(node, 1)} == before_counts

    def test_maybe_checkpoint_runs_from_cache_cycle(self):
        node = make_node()
        durability = attach_memory_durability(
            node, checkpoint_interval_records=4
        )
        for fid in range(5):
            node.add_profile(1, NOW, 1, 0, fid, {"click": 1})
        assert durability.stats.checkpoints == 0
        node.run_cache_cycle()
        assert durability.stats.checkpoints == 1
        assert durability.wal.pending_records() == 0

    def test_checkpoint_skipped_when_store_failing(self):
        """A checkpoint must never truncate records it could not flush."""
        injector = FailureInjector()
        node = make_node(store=InMemoryKVStore(injector))
        durability = attach_memory_durability(node)
        node.add_profile(1, NOW, 1, 0, 1, {"click": 1})
        node.merge_write_table()
        injector.set_rate(1.0)  # Every KV op now fails.
        report = node.checkpoint()
        assert report.skipped
        assert durability.wal.pending_records() == 1  # Nothing truncated.
        injector.set_rate(0.0)
        assert not node.checkpoint().skipped

    def test_checkpoint_commits_despite_writes_during_flush(self):
        """Writes landing mid-flush must not starve the checkpoint.

        Only profiles dirty at the barrier gate truncation; a write that
        arrives during the flush keeps its WAL record (sequence > barrier
        survives truncation), so the checkpoint commits, leaves the new
        entry dirty for the normal flush loop, and the write still
        recovers from the tail after a crash.
        """
        node = make_node()
        durability = attach_memory_durability(node)
        node.add_profile(1, NOW, 1, 0, 1, {"click": 1})
        node.merge_write_table()
        real_flush = node.cache._flush_fn

        def flush_then_write(profile):
            real_flush(profile)
            node.cache._flush_fn = real_flush  # Inject exactly once.
            node.add_profile(2, NOW, 1, 0, 9, {"click": 2})
            node.merge_write_table()

        node.cache._flush_fn = flush_then_write
        report = node.checkpoint()
        assert not report.skipped
        assert report.sequence == 1
        # The mid-flush write's record survived the truncation, and its
        # profile stays dirty for the regular flush loop (the checkpoint
        # did not chase it).
        assert durability.wal.pending_records() == 1
        assert node.cache.dirty.total_entries() == 1
        node.crash()
        node.recover()
        assert [r.fid for r in topk(node, 2)] == [9]
        assert [r.fid for r in topk(node, 1)] == [1]

    def test_file_backed_restart_preserves_sequence_space(self, tmp_path):
        """Writes acked after a restart must survive the next crash.

        Regression: a checkpoint truncates the WAL to empty, so a process
        restart used to rescan ``last_sequence = 0`` while the checkpoint
        barrier restored to 3; new acked writes then took sequences 1..2
        and the next recovery silently discarded them via the
        ``sequence <= checkpoint_sequence`` dedup.
        """

        def open_durability(node):
            durability = NodeDurability(
                WriteAheadLog(FileLogFile(tmp_path / "wal.log")),
                FileLogFile(tmp_path / "checkpoint.bin"),
                node_id=node.node_id,
            )
            node.durability = durability
            return durability

        store = InMemoryKVStore()  # The KV cluster outlives the process.
        node = make_node(store=store)
        durability = open_durability(node)
        for fid in range(3):
            node.add_profile(1, NOW, 1, 0, fid, {"click": 1})
        node.merge_write_table()
        assert node.checkpoint().sequence == 3
        durability.close()

        # Process restart: fresh node + durability over the same files.
        node = make_node(store=store)
        durability = open_durability(node)
        assert durability.wal.last_sequence == 3  # Seeded from the barrier.
        node.add_profile(1, NOW, 1, 0, 10, {"click": 1})
        node.add_profile(1, NOW, 1, 0, 11, {"click": 1})
        node.merge_write_table()
        before = topk(node, 1)
        node.crash()
        report = node.recover()
        assert report.records_replayed == 2  # Not deduped away.
        assert topk(node, 1) == before
        assert {r.fid for r in topk(node, 1)} == {0, 1, 2, 10, 11}
        durability.close()

    def test_shutdown_checkpoints(self):
        node = make_node()
        durability = attach_memory_durability(node)
        node.add_profile(1, NOW, 1, 0, 1, {"click": 1})
        node.shutdown()
        assert durability.stats.checkpoints == 1
        assert durability.wal.pending_records() == 0

    def test_checkpoint_costs_the_dirty_set_not_the_resident_set(
        self, monkeypatch
    ):
        """1000 resident clean profiles + 5 dirty: 5 encodes, none of them
        (nothing at all, in fact) under the ack lock."""
        node = make_node()
        durability = attach_memory_durability(node)
        for profile_id in range(1000):
            node.add_profile(profile_id, NOW, 1, 0, 7, {"click": 1})
        node.checkpoint()
        assert node.cache.resident_count() == 1000
        assert node.cache.dirty.total_entries() == 0
        for profile_id in range(5):
            node.add_profile(profile_id, NOW, 1, 0, 8, {"click": 1})

        encodes_under_ack_lock = []
        real_encode = ProfileCodec.encode_profile

        def counting_encode(profile):
            encodes_under_ack_lock.append(durability.ack_lock.locked())
            return real_encode(profile)

        monkeypatch.setattr(
            ProfileCodec, "encode_profile", staticmethod(counting_encode)
        )
        report = node.checkpoint()
        assert report.profiles == 5
        assert encodes_under_ack_lock == [False] * 5
        assert report.bytes_written < 100  # The barrier, not an image.
        del encodes_under_ack_lock[:]
        assert node.checkpoint().profiles == 0
        assert encodes_under_ack_lock == []

    def test_store_is_synced_before_the_wal_forgets(self):
        """Regression: workers open their store with durability="batch" and
        nothing ever synced it, so a checkpoint truncated the WAL while the
        flushed values still sat in a userspace buffer — a SIGKILL then
        lost the acked writes of every profile the tail does not touch."""
        store = BufferedKVStore()
        node = make_node(store=store)
        durability = attach_memory_durability(node)
        for profile_id in (1, 2, 3):
            node.add_profile(profile_id, NOW, 1, 0, 5, {"click": profile_id})
        assert not node.checkpoint().skipped
        node.add_profile(4, NOW, 1, 0, 5, {"click": 4})  # The only tail record.
        store.crash()  # SIGKILL: unsynced store bytes are gone ...
        durability.wal._file.crash()  # ... and so are unsynced WAL bytes.
        node.crash()
        node.recover()
        assert {
            pid: [r.counts for r in topk(node, pid)] for pid in (1, 2, 3, 4)
        } == {pid: [(pid,)] for pid in (1, 2, 3, 4)}

    def test_concurrent_checkpoints_serialize(self, tmp_path):
        """The maintenance tick, ``checkpoint_now`` and shutdown can all ask
        for a checkpoint at once; now that one takes milliseconds they
        really do overlap, and two threads rewriting the barrier file
        raced on its temp file (FileNotFoundError)."""
        node = make_node()
        node.durability = NodeDurability(
            WriteAheadLog(FileLogFile(tmp_path / "wal.log"), sync="group"),
            FileLogFile(tmp_path / "checkpoint.log"),
        )
        errors = []
        deadline = time.monotonic() + 1.5

        def write():
            fid = 0
            while time.monotonic() < deadline:
                fid += 1
                node.add_profile(fid % 20, NOW, 1, 0, fid, {"click": 1})

        def checkpoint():
            while time.monotonic() < deadline:
                try:
                    node.checkpoint()
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=checkpoint) for _ in range(3)
        ]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        writes = node.durability.stats.writes_logged
        node.crash()
        node.recover()
        assert sum(
            len(topk_all(node, profile_id)) for profile_id in range(20)
        ) == writes
        node.durability.close()

    def test_version_1_checkpoint_file_is_rejected(self):
        """No compatibility reader: an image-era file must not be mistaken
        for a barrier."""
        body = bytearray()
        for value in (0x49505343, 1, 8, 0):  # magic, version 1, seq, 0 profiles
            write_varint(body, value)
        checkpoint_file = MemoryLogFile()
        checkpoint_file.rewrite(
            struct.pack("<I", zlib.crc32(body)) + bytes(body)
        )
        with pytest.raises(StorageError, match="version 1"):
            NodeDurability(WriteAheadLog(MemoryLogFile()), checkpoint_file)

    def test_corrupt_checkpoint_raises(self):
        checkpoint_file = MemoryLogFile()
        checkpoint_file.rewrite(b"\x00\x01\x02garbage")
        with pytest.raises(StorageError):
            NodeDurability(
                WriteAheadLog(MemoryLogFile()), checkpoint_file
            )


class TestStampInvariants:
    """What the applied-sequence stamp rests on; each test fails when its
    invariant is broken."""

    def test_overflow_merges_before_it_applies_directly(self):
        """Per-profile apply order = WAL order.  A write that finds the
        table full used to be applied ahead of the buffered ones; the
        profile's high-water stamp would then claim writes it lacks."""
        slot_bytes = PendingWrite(0, 0, 0, 0, 0, (0,)).memory_bytes()
        node = make_node(write_table_limit_bytes=2 * slot_bytes)
        attach_memory_durability(node)
        for fid in (1, 2):
            node.add_profile(1, NOW, 1, 0, fid, {"click": 1})  # buffered
        assert node.write_table.pending_count == 2
        node.add_profile(1, NOW, 1, 0, 3, {"click": 1})  # table full
        assert node.write_table.pending_count == 0
        assert node.stats.writes_direct == 1
        profile = node.cache.get_resident(1)
        assert profile.applied_seq == 3
        assert {r.fid for r in topk(node, 1)} == {1, 2, 3}
        # The flushed value therefore holds everything its stamp claims.
        node.cache.flush_all()
        node.crash()
        node.recover()
        assert {r.fid for r in topk(node, 1)} == {1, 2, 3}

    def test_disabling_isolation_drains_under_the_ack_lock(self):
        node = make_node()
        durability = attach_memory_durability(node)
        node.add_profile(1, NOW, 1, 0, 1, {"click": 1})
        locked_during_merge = []
        real_merge = node.merge_write_table

        def merge():
            locked_during_merge.append(durability.ack_lock.locked())
            return real_merge()

        node.merge_write_table = merge
        node.set_isolation(False)
        assert locked_during_merge == [True]
        assert not node.isolation_enabled
        assert node.write_table.pending_count == 0
        node.add_profile(1, NOW, 1, 0, 2, {"click": 1})  # now direct
        assert node.cache.get_resident(1).applied_seq == 2

    def test_wal_is_durable_through_a_stamp_before_the_value_is_stored(self):
        """Write-ahead rule.  In group mode a record is appended and applied
        before the ack barrier commits it; a flush landing in that window
        must commit the WAL first, or a crash leaves a stored stamp the
        restarted log numbers new records under."""
        node = make_node(isolation_enabled=False)
        durability = attach_memory_durability(node, sync="group")
        wal = durability.wal
        stamp_vs_durable = []
        real_flush = node.persistence.flush

        def recording_flush(profile):
            stamp_vs_durable.append((profile.applied_seq, wal.durable_sequence))
            real_flush(profile)

        node.persistence.flush = recording_flush
        real_apply = node._buffer_or_apply

        def apply_then_flush(*write):
            real_apply(*write)
            node.cache.run_flush_once()  # Before the ack barrier.

        node._buffer_or_apply = apply_then_flush
        node.add_profile(1, NOW, 1, 0, 1, {"click": 1})
        node.add_profile(1, NOW, 1, 0, 2, {"click": 1})
        assert stamp_vs_durable == [(1, 1), (2, 2)]
        # Machine death: no stored stamp is ahead of the surviving log.
        wal._file.crash()
        reopened = WriteAheadLog(wal._file, sync="group")
        assert node.persistence.load(1).applied_seq <= reopened.last_sequence


class TestFineGrainedRecovery:
    def test_recovery_with_fine_grained_persistence(self):
        node = make_node(fine_grained=True)
        attach_memory_durability(node)
        for fid in range(6):
            node.add_profile(1, NOW + fid * 3_600_000, 1, 0, fid, {"click": 1})
        node.merge_write_table()
        node.cache.flush_all()
        node.add_profile(1, NOW + 7 * 3_600_000, 1, 0, 99, {"click": 4})
        node.merge_write_table()
        before = topk(node, 1)
        node.crash()
        node.recover()
        assert topk(node, 1) == before

    def test_recovery_sweeps_orphan_slices(self):
        node = make_node(fine_grained=True)
        attach_memory_durability(node)
        node.add_profile(1, NOW, 1, 0, 5, {"click": 1})
        node.merge_write_table()
        node.cache.flush_all()
        # Plant an orphan the way a mid-flush death would.
        node.persistence._store.set(b"t/s/1/999", b"orphan-blob")
        node.crash()
        report = node.recover()
        assert report.orphan_slices_swept == 1
        assert node.persistence._store.get(b"t/s/1/999") is None
