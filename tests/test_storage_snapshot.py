"""Tests for table snapshot export/import."""

import pytest

from repro.clock import MILLIS_PER_DAY, SimulatedClock
from repro.config import TableConfig
from repro.core.timerange import TimeRange
from repro.errors import SerializationError
from repro.server.node import IPSNode
from repro.storage import InMemoryKVStore
from repro.storage.snapshot import export_table, import_table, read_snapshot

NOW = 400 * MILLIS_PER_DAY
WINDOW = TimeRange.current(MILLIS_PER_DAY)


@pytest.fixture
def populated_store():
    """A store holding 20 flushed profiles of table 't'."""
    store = InMemoryKVStore()
    config = TableConfig(name="t", attributes=("click",))
    node = IPSNode("n0", config, store, clock=SimulatedClock(NOW))
    for profile_id in range(20):
        node.add_profile(profile_id, NOW, 1, 0, profile_id % 5, {"click": 2})
    node.shutdown()
    return store


class TestExport:
    def test_exports_every_profile(self, populated_store, tmp_path):
        path = tmp_path / "t.snapshot"
        assert export_table(populated_store, "t", path) == 20
        assert path.stat().st_size > 0

    def test_only_named_table_is_exported(self, populated_store, tmp_path):
        # Add another table's profile to the same store.
        config = TableConfig(name="other", attributes=("click",))
        node = IPSNode("n1", config, populated_store, clock=SimulatedClock(NOW))
        node.add_profile(99, NOW, 1, 0, 1, {"click": 1})
        node.shutdown()
        path = tmp_path / "t.snapshot"
        assert export_table(populated_store, "t", path) == 20

    def test_empty_table_exports_zero(self, tmp_path):
        path = tmp_path / "empty.snapshot"
        assert export_table(InMemoryKVStore(), "t", path) == 0
        table, profiles = read_snapshot(path)
        assert table == "t"
        assert list(profiles) == []


class TestRoundTrip:
    def test_read_snapshot_yields_profiles(self, populated_store, tmp_path):
        path = tmp_path / "t.snapshot"
        export_table(populated_store, "t", path)
        table, profiles = read_snapshot(path)
        assert table == "t"
        decoded = list(profiles)
        assert len(decoded) == 20
        assert {profile.profile_id for profile in decoded} == set(range(20))
        assert all(profile.feature_count() == 1 for profile in decoded)

    def test_import_into_fresh_cluster(self, populated_store, tmp_path):
        path = tmp_path / "t.snapshot"
        export_table(populated_store, "t", path)
        fresh_store = InMemoryKVStore()
        assert import_table(fresh_store, path) == 20
        config = TableConfig(name="t", attributes=("click",))
        node = IPSNode("n0", config, fresh_store, clock=SimulatedClock(NOW))
        results = node.get_profile_topk(7, 1, 0, WINDOW, k=5)
        assert results and results[0].counts == (2,)

    def test_import_with_rename(self, populated_store, tmp_path):
        path = tmp_path / "t.snapshot"
        export_table(populated_store, "t", path)
        fresh_store = InMemoryKVStore()
        import_table(fresh_store, path, table="experiment")
        config = TableConfig(name="experiment", attributes=("click",))
        node = IPSNode("n0", config, fresh_store, clock=SimulatedClock(NOW))
        assert node.get_profile_topk(3, 1, 0, WINDOW, k=1)


class TestCorruption:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(SerializationError):
            read_snapshot(path)

    def test_truncated_record_rejected(self, populated_store, tmp_path):
        path = tmp_path / "t.snapshot"
        export_table(populated_store, "t", path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        _, profiles = read_snapshot(path)
        with pytest.raises(SerializationError):
            list(profiles)

    def test_snapshot_written_by_the_lz_codec_is_refused_by_name(
        self, populated_store, tmp_path
    ):
        """Version 1 files hold LZ-compressed records."""
        path = tmp_path / "t.snapshot"
        export_table(populated_store, "t", path)
        blob = bytearray(path.read_bytes())
        version_at = 5  # after the 5-byte varint of SNAPSHOT_MAGIC
        assert blob[version_at] == 2
        blob[version_at] = 1
        path.write_bytes(bytes(blob))
        with pytest.raises(SerializationError, match="predates the codec change"):
            read_snapshot(path)
