"""Replication primitives: deltas, logs, cursors, digests, placement.

Everything here is in-process — the two ``WorkerReplication`` peers are
wired together with loopback stub transports that call straight into the
other side's handlers, so delta shipping, hinted handoff and anti-entropy
repair are exercised without sockets or subprocesses (the real-process
failover lives in ``tests/test_net_cluster.py`` and
``benchmarks/bench_failover.py``).
"""

from __future__ import annotations

import pytest

from repro.core.query import SortType
from repro.core.timerange import TimeRange
from repro.net import wire
from repro.net.replication import (
    SEQ_RESERVE_BLOCK,
    ReplicaApplier,
    ReplicationLog,
    WorkerReplication,
    _StateFile,
    block_digest,
    diff_blocks,
    digest_table,
    install_blocks,
)
from repro.net.wire import WriteDelta, write_delta_wire_bytes
from repro.net.worker import build_durable_node

NOW = 1_000_000
WINDOW = TimeRange.absolute(NOW - 10_000, NOW + 10_000)


def _delta(seq: int, profile_id: int = 7, fid: int = 101) -> WriteDelta:
    return WriteDelta(seq, profile_id, NOW, 0, 1, fid, (1, 0, 0))


class TestWriteDeltaCodec:
    def test_roundtrip_over_the_wire(self):
        delta = WriteDelta(12345, 1 << 40, NOW, 3, 2, 999, (4, -1, 2))
        out = bytearray()
        wire.encode_value(out, delta)
        decoded, pos = wire.decode_value(bytes(out), 0)
        assert pos == len(out)
        assert decoded == delta
        assert isinstance(decoded, WriteDelta)

    def test_wire_bytes_accounting_matches_encoding(self):
        delta = _delta(42)
        out = bytearray()
        wire.encode_value(out, delta)
        assert write_delta_wire_bytes(delta) == len(out)

    def test_delta_is_tens_of_bytes_not_a_profile_image(self):
        # The proportionality claim of the failover bench: replication
        # ships the logical write, never the (multi-KB) profile.
        assert write_delta_wire_bytes(_delta(1)) < 40


class TestReplicationLog:
    def test_sequences_are_monotonic_and_shared_across_peers(self):
        log = ReplicationLog("w0")
        first = log.append(["a", "b"], 1, NOW, 0, 1, 100, (1, 0, 0))
        second = log.append(["a"], 2, NOW, 0, 1, 101, (1, 0, 0))
        assert second == first + 1
        assert [d.seq for d in log.batch_for("a", 10)] == [first, second]
        assert [d.seq for d in log.batch_for("b", 10)] == [first]

    def test_batch_peeks_and_ack_pops(self):
        log = ReplicationLog("w0")
        for fid in range(5):
            log.append(["a"], 1, NOW, 0, 1, 100 + fid, (1, 0, 0))
        batch = log.batch_for("a", 3)
        assert len(batch) == 3
        assert log.pending("a") == 5  # peeked, not popped
        assert log.ack("a", batch[-1].seq) == 3
        assert log.pending("a") == 2

    def test_overflow_drops_oldest_and_counts(self):
        log = ReplicationLog("w0", max_queue=3)
        seqs = [
            log.append(["a"], 1, NOW, 0, 1, fid, (1, 0, 0))
            for fid in range(5)
        ]
        assert log.overflows == 2
        kept = [d.seq for d in log.batch_for("a", 10)]
        assert kept == seqs[2:]  # the two oldest fell off the front

    def test_crash_skips_a_seq_block_but_never_reuses(self, tmp_path):
        state = _StateFile(tmp_path / "replication.state")
        log = ReplicationLog("w0", state)
        seq = log.append(["a"], 1, NOW, 0, 1, 100, (1, 0, 0))
        assert seq == 1
        # "Crash": reopen from the persisted reservation.  The new
        # incarnation starts past the whole reserved block.
        reopened = ReplicationLog(
            "w0", _StateFile(tmp_path / "replication.state")
        )
        seq2 = reopened.append(["a"], 1, NOW, 0, 1, 101, (1, 0, 0))
        assert seq2 == SEQ_RESERVE_BLOCK + 1
        assert seq2 > seq


class TestReplicaApplier:
    def test_duplicates_below_cursor_are_skipped(self):
        applied = []
        applier = ReplicaApplier(applied.append)
        applier.apply("w1", [_delta(1), _delta(2)])
        applier.apply("w1", [_delta(1), _delta(2), _delta(3)])
        assert [d.seq for d in applied] == [1, 2, 3]
        assert applier.duplicates == 2
        assert applier.cursor("w1") == 3

    def test_origins_keep_independent_cursors(self):
        applier = ReplicaApplier(lambda d: None)
        applier.apply("w1", [_delta(5)])
        applier.apply("w2", [_delta(2)])
        assert applier.cursor("w1") == 5
        assert applier.cursor("w2") == 2

    def test_cursors_survive_reopen(self, tmp_path):
        path = tmp_path / "replication.state"
        applier = ReplicaApplier(lambda d: None, _StateFile(path))
        applier.apply("w1", [_delta(9)])
        reopened = ReplicaApplier(lambda d: None, _StateFile(path))
        assert reopened.cursor("w1") == 9
        reopened.apply("w1", [_delta(9)])
        assert reopened.duplicates == 1


class TestContentAddressedRepair:
    def _profile_with_writes(self, tmp_path, name, writes):
        node = build_durable_node(name, tmp_path / name)
        for profile_id, fid in writes:
            node.add_profile(profile_id, NOW, 0, 1, fid, (1, 0, 0))
        node.merge_write_table()
        return node

    def test_identical_profiles_ship_nothing(self, tmp_path):
        node = self._profile_with_writes(tmp_path, "a", [(1, 100), (1, 101)])
        profile = node._resident_profile(1)
        table = digest_table(profile)
        blobs, matched, matched_bytes = diff_blocks(profile, table)
        assert blobs == []
        assert matched == len(profile.slices)
        assert matched_bytes > 0

    def test_diff_ships_only_missing_blocks_and_install_converges(
        self, tmp_path
    ):
        primary = self._profile_with_writes(
            tmp_path, "a", [(1, 100), (1, 101)]
        )
        replica = self._profile_with_writes(tmp_path, "b", [(1, 100)])
        source = primary._resident_profile(1)
        target = replica._resident_profile(1)
        blobs, _, _ = diff_blocks(source, digest_table(target))
        assert blobs  # the fid-101 slice differs
        installed = install_blocks(target, blobs)
        assert installed == sum(len(b) for b in blobs)
        # Content addressing converged the replica: tables now identical
        # and a second diff ships nothing.
        assert digest_table(target) == digest_table(source)
        assert diff_blocks(source, digest_table(target))[0] == []

    def test_digest_is_content_addressed(self):
        assert block_digest(b"abc") == block_digest(b"abc")
        assert block_digest(b"abc") != block_digest(b"abd")


class _LoopbackTransport:
    """Calls straight into a peer ``WorkerReplication``'s handlers."""

    def __init__(self, peer: WorkerReplication, node_id: str) -> None:
        self._peer = peer
        self.node_id = node_id
        self.calls: list[str] = []

    def call(self, method, *args, **kwargs):
        self.calls.append(method)
        if method == "replicate_apply":
            return self._peer.apply_remote(*args)
        if method == "repair_digests":
            return self._peer.repair_digests(*args)
        if method == "repair_install":
            return self._peer.repair_install(*args)
        raise AssertionError(f"unexpected method {method}")

    def close(self) -> None:
        pass


def _snapshot(live: dict[str, bool], factor: int = 2) -> dict:
    return {
        "replication_factor": factor,
        "roster": [
            {"node_id": node_id, "host": "h", "port": 1, "live": alive}
            for node_id, alive in live.items()
        ],
    }


@pytest.fixture
def pair(tmp_path):
    """Two nodes whose replication layers ship to each other in-process."""
    node_a = build_durable_node("a0", tmp_path / "a0")
    node_b = build_durable_node("b0", tmp_path / "b0")
    repl: dict[str, WorkerReplication] = {}

    def factory_for(me):
        def factory(node_id, host, port):
            return _LoopbackTransport(repl[node_id], node_id)
        return factory

    repl["a0"] = WorkerReplication(
        node_a, factor=2, data_dir=tmp_path / "a0",
        transport_factory=factory_for("a0"),
    )
    repl["b0"] = WorkerReplication(
        node_b, factor=2, data_dir=tmp_path / "b0",
        transport_factory=factory_for("b0"),
    )
    snapshot = _snapshot({"a0": True, "b0": True})
    repl["a0"].update_membership(snapshot)
    repl["b0"].update_membership(snapshot)
    return repl


class TestWorkerReplication:
    def test_placement_uses_roster_not_liveness(self, pair):
        owners_before = {pid: pair["a0"].owners(pid) for pid in range(32)}
        # b0 dies: the roster keeps its tombstone, so placement is stable.
        pair["a0"].update_membership(
            _snapshot({"a0": True, "b0": False})
        )
        for pid in range(32):
            assert pair["a0"].owners(pid) == owners_before[pid]
        # But the acting primary skips the corpse.
        for pid in range(32):
            assert pair["a0"].acting_primary(pid) == "a0"

    def test_write_ships_to_replica_and_applies(self, pair):
        pair["a0"].on_client_write(1, NOW, 0, 1, 500, (3, 0, 0))
        assert pair["a0"].ship_once() == 1
        pair["b0"].node.merge_write_table()
        rows = pair["b0"].node.get_profile_topk(
            1, 0, 1, WINDOW, SortType.TOTAL, 10
        )
        assert [(row.fid, row.counts[0]) for row in rows] == [(500, 3)]
        assert pair["b0"].applier.applied == 1

    def test_reshipped_batch_is_idempotent(self, pair):
        pair["a0"].on_client_write(1, NOW, 0, 1, 500, (3, 0, 0))
        batch = pair["a0"].log.batch_for("b0", 10)
        pair["b0"].apply_remote("a0", batch)
        pair["b0"].apply_remote("a0", batch)  # retransmit after lost ack
        assert pair["a0"].ship_once() == 1   # origin still drains its queue
        pair["b0"].node.merge_write_table()
        rows = pair["b0"].node.get_profile_topk(
            1, 0, 1, WINDOW, SortType.TOTAL, 10
        )
        assert rows[0].counts[0] == 3  # applied once, not three times
        assert pair["b0"].applier.duplicates == 2

    def test_hinted_handoff_holds_then_drains(self, pair):
        dead = _snapshot({"a0": True, "b0": False})
        pair["a0"].update_membership(dead)
        pair["a0"].on_client_write(1, NOW, 0, 1, 600, (1, 0, 0))
        # Dead peer: nothing ships, the delta is hinted and waits.
        assert pair["a0"].ship_once() == 0
        assert pair["a0"].handoff_depth() == 1
        # Rejoin: the queue drains and the hint accounting records it.
        pair["a0"].update_membership(_snapshot({"a0": True, "b0": True}))
        assert pair["a0"].ship_once() == 1
        assert pair["a0"].hints_drained == 1
        assert pair["a0"].handoff_depth() == 0
        assert pair["b0"].applier.applied == 1

    def test_replication_delta_is_not_re_replicated(self, pair):
        # b0 applying a0's delta must not enqueue it for a0 again —
        # the worker skips caller="replication" writes; here the layer
        # itself never sees them because only the worker's write path
        # calls on_client_write.
        pair["a0"].on_client_write(1, NOW, 0, 1, 500, (3, 0, 0))
        pair["a0"].ship_once()
        assert pair["b0"].log.last_seq == 0
        assert pair["b0"].log.lag() == {}

    def test_repair_round_ships_only_diffs(self, pair):
        # Writes applied locally on a0 only — as if the delta stream to
        # b0 was lost (queue overflow): repair must close the hole.
        for pid in range(8):
            pair["a0"].node.add_profile(pid, NOW, 0, 1, 700, (2, 0, 0))
        pair["a0"].node.merge_write_table()
        stats = pair["a0"].repair_round()
        assert stats["peer"] == "b0"
        # Only keys where a0 is acting primary are pushed.
        assert 0 < stats["keys"] <= 8
        assert stats["shipped"] > 0
        second = pair["a0"].repair_round()
        # Convergence: the immediate next round over the same keys ships
        # nothing — every block digest now matches.
        assert second["bytes"] == 0
        assert pair["a0"].repair_blocks_matched > 0

    def test_repair_install_invalidates_the_cached_read_once(self, pair):
        a0, b0 = pair["a0"].node, pair["b0"].node
        b0.add_profile(1, NOW, 0, 1, 100, (1, 0, 0))
        b0.merge_write_table()
        before = b0.get_profile_topk(1, 0, 1, WINDOW, SortType.TOTAL, 10)
        assert [row.fid for row in before] == [100]
        assert b0.get_profile_topk(1, 0, 1, WINDOW, SortType.TOTAL, 10) == before
        assert b0.result_cache.stats.hits == 1

        a0.add_profile(1, NOW + 1, 0, 1, 101, (5, 0, 0))
        a0.merge_write_table()
        blobs, _, _ = diff_blocks(
            a0._resident_profile(1), pair["b0"].repair_digests([1])[1]
        )
        assert blobs
        invalidations = b0.result_cache.stats.invalidations
        pair["b0"].repair_install(1, blobs)
        assert b0.result_cache.stats.invalidations == invalidations + 1
        after = b0.get_profile_topk(1, 0, 1, WINDOW, SortType.TOTAL, 10)
        assert 101 in {row.fid for row in after}
        assert after == b0.engine.get_profile_topk(
            1, 0, 1, WINDOW, SortType.TOTAL, 10
        )

    def test_stats_shape_matches_fleet_rollup(self, pair):
        from repro.monitoring import ClusterSnapshot, NodeSnapshot

        pair["a0"].on_client_write(1, NOW, 0, 1, 500, (1, 0, 0))
        pair["a0"].ship_once()
        rollup = ClusterSnapshot(
            time_ms=NOW,
            nodes=tuple(
                NodeSnapshot(
                    node_id=node_id, region="net", pid=pid,
                    replication=pair[node_id].stats(),
                )
                for pid, node_id in enumerate(("a0", "b0"), start=1)
            ),
        ).replication
        assert rollup["applies"] == 1
        assert rollup["pending"] == 0
        assert rollup["delta_bytes"] > 0

    def test_factor_adopted_from_registry_when_not_fixed(self, tmp_path):
        node = build_durable_node("c0", tmp_path / "c0")
        layer = WorkerReplication(node, factor=0)
        assert not layer.enabled
        layer.update_membership(_snapshot({"c0": True}, factor=3))
        assert layer.factor == 3 and layer.enabled
