"""One number domain: a fid is a uint64 column end to end.

The paper stores hashed literals, and :class:`~repro.catalog.FeatureCatalog`
hashes a name to 64 bits, so about half of its fids are 2**63 or more.
These tests pin down that such fids are ordinary traffic:

1. written through the engine, every group holds an ``array('Q')`` fid
   column, the numpy kernels answer without delegating to the reference,
   a group of at least ``RAW_COLUMN_MIN_ROWS`` rows serializes as raw
   columns, and a packed answer's fid column goes out raw;
2. a write whose fid is outside [0, 2**64) or whose timestamp is outside
   int64 is refused with ``ValueError`` before anything records it: not
   the profile table, not the write table (isolation on or off), not the
   WAL of a real worker, whose next valid write and read still answer.
"""

from __future__ import annotations

import pytest

from repro import FeatureCatalog
from repro.clock import MILLIS_PER_DAY, SimulatedClock, SystemClock
from repro.config import TableConfig
from repro.core.columnar import FID_TYPECODE
from repro.core.engine import ProfileEngine
from repro.core.kernels import available_backends, get_backend
from repro.core.query import PackedRows
from repro.core.timerange import TimeRange
from repro.errors import RetryableError
from repro.net import wire
from repro.net.cluster import ProcessCluster
from repro.server import IPSNode
from repro.storage import InMemoryKVStore
from repro.storage.serialization import (
    RAW_COLUMN_MIN_ROWS,
    _ENC_RAW,
    ProfileCodec,
)

NOW_MS = 400 * MILLIS_PER_DAY
WINDOW = TimeRange.absolute(0, NOW_MS + 1)
CONFIG = TableConfig(name="t", attributes=("like", "comment", "share"))

#: Writes that no column can hold: (fid, timestamp_ms).
OUT_OF_DOMAIN = [(2**64, NOW_MS), (-1, NOW_MS), (7, 2**63), (7, -(2**63) - 1)]


def catalog_fids(n: int) -> list[int]:
    catalog = FeatureCatalog(salt="fid-domain")
    return [catalog.fid(f"feature-{i}") for i in range(n)]


def catalog_engine(backend: str | None = None) -> ProfileEngine:
    config = TableConfig(
        name="t", attributes=CONFIG.attributes, kernel_backend=backend
    )
    engine = ProfileEngine(config, SimulatedClock(NOW_MS))
    fids = catalog_fids(3 * RAW_COLUMN_MIN_ROWS)
    assert sum(fid >= 2**63 for fid in fids) >= RAW_COLUMN_MIN_ROWS
    for i, fid in enumerate(fids):
        engine.add_profile(1, NOW_MS - 1000, 1, 2, fid, [i % 5, 1, i % 3])
    return engine


class TestCatalogTrafficIsColumnar:
    def test_every_group_holds_a_uint64_fid_column(self):
        engine = catalog_engine()
        groups = [
            group
            for profile_slice in engine.table.get(1).slices
            for _, instance_set in profile_slice.slots_items()
            for _, group in instance_set.groups_items()
        ]
        assert groups
        assert all(group.fids.typecode == FID_TYPECODE for group in groups)
        assert max(max(group.fids) for group in groups) >= 2**63

    @pytest.mark.skipif(
        "numpy" not in available_backends(), reason="numpy backend unavailable"
    )
    def test_numpy_answers_without_delegating(self, monkeypatch):
        backend = get_backend("numpy")

        def refuse(*args, **kwargs):
            raise AssertionError("the numpy backend delegated to the reference")

        for name in ("run_topk_batch", "run_decay_batch", "run_filter"):
            monkeypatch.setattr(backend._reference, name, refuse)
        got = catalog_engine("numpy").get_profile_topk(1, 1, 2, WINDOW, k=10)
        want = catalog_engine("python").get_profile_topk(1, 1, 2, WINDOW, k=10)
        assert got == want and len(got) == 10

    def test_large_groups_serialize_as_raw_columns(self):
        profile = catalog_engine().table.get(1)
        (profile_slice,) = profile.slices
        group = profile_slice.column_groups(1, 2)[0]
        assert len(group) >= RAW_COLUMN_MIN_ROWS
        out = bytearray()
        ProfileCodec._write_group_v2(out, group)
        assert out[0] == _ENC_RAW
        decoded = ProfileCodec.decode_profile(ProfileCodec.encode_profile(profile))
        (back,) = decoded.slices[0].column_groups(1, 2)
        assert back.fids == group.fids and back.fids.typecode == FID_TYPECODE

    def test_a_packed_answer_sends_its_fid_column_raw(self):
        rows = catalog_engine().get_profile_topk(1, 1, 2, WINDOW, k=10)
        packed = PackedRows.pack(rows)
        assert type(packed.fids) is bytes
        out = bytearray()
        wire.encode_value(out, packed)
        # tag, n_rows, shape, then the fid column: code 'Q', base 0, raw.
        assert out[3:5] == wire._RAW_HEADERS["Q"]
        assert out[5 : 5 + len(packed.fids)] == packed.fids
        decoded, _ = wire.decode_value(bytes(out), 0)
        assert decoded == rows


class TestRejectedWritesLeaveNoTrace:
    @pytest.mark.parametrize("fid, timestamp_ms", OUT_OF_DOMAIN)
    def test_engine(self, fid, timestamp_ms):
        engine = ProfileEngine(CONFIG, SimulatedClock(NOW_MS))
        with pytest.raises(ValueError):
            engine.add_profile(1, timestamp_ms, 1, 2, fid, [1])
        with pytest.raises(ValueError):
            engine.add_profiles(1, timestamp_ms, 1, 2, [5, fid], [[1], [1]])
        assert len(engine.table) == 0  # not even an empty profile

    @pytest.mark.parametrize("isolation", [True, False])
    def test_node(self, isolation):
        node = IPSNode(
            "n", CONFIG, InMemoryKVStore(), clock=SimulatedClock(NOW_MS)
        )
        node.set_isolation(isolation)
        before = node.node_stats()
        for fid, timestamp_ms in OUT_OF_DOMAIN:
            with pytest.raises(ValueError):
                node.add_profile(1, timestamp_ms, 1, 2, fid, [1])
            with pytest.raises(ValueError):
                node.add_profiles(1, timestamp_ms, 1, 2, [5, fid], [[1], [1]])
            assert node.write_table.pending_count == 0
            assert len(node.engine.table) == 0
        after = node.node_stats()
        for key in ("writes", "write_table_pending", "resident"):
            assert after[key] == before[key], key
        node.add_profile(1, NOW_MS, 1, 2, 2**64 - 1, [1, 2])
        node.merge_write_table()
        (row,) = node.get_profile_topk(1, 1, 2, WINDOW, k=5)
        assert (row.fid, row.counts) == (2**64 - 1, (1, 2))


def test_process_cluster_refuses_out_of_domain_writes(tmp_path, process_tracker):
    now = int(SystemClock().now_ms())
    window = TimeRange.absolute(now - 60_000, now + 60_000)
    with ProcessCluster(
        1, tmp_path / "cluster", worker_env={"IPS_KERNEL_DISABLE_NUMPY": "1"}
    ) as cluster:
        process_tracker.add(cluster)
        (worker_id,) = cluster.wait_for_members(1)
        client = cluster.client()
        region = cluster.region()
        remote = region.nodes[worker_id]
        client.add_profiles(3, now, 0, 1, [11], [(1, 0, 0)])
        before = remote.node_stats()
        for fid in (2**64, -1):
            with pytest.raises(ValueError) as excinfo:
                client.add_profiles(3, now, 0, 1, [fid], [(1, 0, 0)])
            assert "fid out of uint64 range" in str(excinfo.value)
            assert not isinstance(excinfo.value, RetryableError)
        after = remote.node_stats()
        for key in ("writes", "wal_appends", "wal_last_sequence",
                    "write_table_pending"):
            assert after[key] == before[key], key
        client.add_profiles(3, now, 0, 1, [2**64 - 1], [(2, 0, 0)])
        remote.checkpoint_now()
        rows = remote.get_profile_topk(3, 0, 1, window, k=10)
        region.close()
    assert [(row.fid, row.counts) for row in rows] == [
        (2**64 - 1, (2, 0, 0)), (11, (1, 0, 0))
    ]
