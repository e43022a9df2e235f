"""Tests for bulk and fine-grained persistence (Figs. 12-14)."""

import threading

import pytest

from repro.core.aggregate import get_aggregate
from repro.core.profile import ProfileData
from repro.errors import StorageError, VersionConflictError
from repro.storage import (
    BulkPersistence,
    FineGrainedPersistence,
    InMemoryKVStore,
    ProfileCodec,
    compress,
)

SUM = get_aggregate("sum")


def make_profile(profile_id=1, writes=50):
    profile = ProfileData(profile_id, 1000)
    for index in range(writes):
        profile.add(
            1_000_000 + index * 2000, index % 3, index % 2, index % 11,
            [1, index], SUM,
        )
    return profile


@pytest.fixture(params=["bulk", "fine"])
def persistence(request):
    store = InMemoryKVStore()
    if request.param == "bulk":
        return BulkPersistence(store, "t"), store
    return FineGrainedPersistence(store, "t"), store


class TestCommonBehaviour:
    def test_flush_load_roundtrip(self, persistence):
        manager, _ = persistence
        original = make_profile()
        manager.flush(original)
        loaded = manager.load(1)
        assert loaded.profile_id == 1
        assert loaded.feature_count() == original.feature_count()
        assert loaded.slice_count() == original.slice_count()

    def test_load_missing_is_none(self, persistence):
        manager, _ = persistence
        assert manager.load(42) is None

    def test_reflush_overwrites(self, persistence):
        manager, _ = persistence
        profile = make_profile(writes=5)
        manager.flush(profile)
        profile.add(9_999_999, 1, 1, 77, [3, 0], SUM)
        manager.flush(profile)
        loaded = manager.load(1)
        assert loaded.feature_count() == profile.feature_count()

    def test_delete_removes_everything(self, persistence):
        manager, store = persistence
        manager.flush(make_profile())
        manager.delete(1)
        assert manager.load(1) is None
        assert len(store) == 0

    def test_delete_missing_is_noop(self, persistence):
        manager, _ = persistence
        manager.delete(999)

    def test_multiple_profiles_are_isolated(self, persistence):
        manager, _ = persistence
        manager.flush(make_profile(1, writes=5))
        manager.flush(make_profile(2, writes=10))
        assert manager.load(1).feature_count() == 5
        assert manager.load(2).feature_count() == 10

    def test_stats_track_traffic(self, persistence):
        manager, _ = persistence
        manager.flush(make_profile())
        manager.load(1)
        assert manager.stats.profiles_flushed == 1
        assert manager.stats.profiles_loaded == 1
        assert manager.stats.bytes_written > 0
        assert manager.stats.bytes_read > 0


class TestAppliedSequenceStamp:
    def test_stamp_round_trips_with_the_value(self, persistence):
        manager, _ = persistence
        profile = make_profile()
        profile.applied_seq = 123_456
        manager.flush(profile)
        assert manager.load(1).applied_seq == 123_456
        profile.applied_seq = 123_457  # Re-flush replaces value and stamp.
        manager.flush(profile)
        assert manager.load(1).applied_seq == 123_457

    def test_stamp_is_not_profile_data(self):
        """The codec (wire, replication, repair images) and the memory
        accounting do not know the stamp."""
        plain, stamped = make_profile(), make_profile()
        stamped.applied_seq = 99
        assert ProfileCodec.encode_profile(plain) == ProfileCodec.encode_profile(
            stamped
        )
        assert plain.memory_bytes() == stamped.memory_bytes()
        assert stamped.copy().applied_seq == 99

    def test_unstamped_bulk_value_is_rejected(self):
        store = InMemoryKVStore()
        store.set(b"t/p/1", compress(ProfileCodec.encode_profile(make_profile())))
        with pytest.raises(StorageError, match="stamp"):
            BulkPersistence(store, "t").load(1)

    def test_unstamped_meta_record_is_rejected(self):
        store = InMemoryKVStore()
        store.set(b"t/m/1", bytes([1, 100, 0]))  # id, granularity, 0 slices
        with pytest.raises(StorageError, match="stamp"):
            FineGrainedPersistence(store, "t").load(1)

    def test_value_written_by_the_lz_codec_is_refused_by_name(self):
        """Lead byte 0xA5 marked records whose payload is an LZ stream."""
        store = InMemoryKVStore()
        store.set(b"t/p/1", bytes([0xA5, 7]) + b"lz-era payload")
        store.set(b"t/m/2", bytes([0xA5, 7, 2, 100, 0]))
        with pytest.raises(StorageError, match="predates the codec change"):
            BulkPersistence(store, "t").load(1)
        with pytest.raises(StorageError, match="predates the codec change"):
            FineGrainedPersistence(store, "t").load(2)

    def test_sync_reaches_a_buffering_store_and_tolerates_others(
        self, persistence
    ):
        manager, store = persistence
        manager.sync()  # InMemoryKVStore has no sync(): a no-op.
        calls = []
        store.sync = lambda: calls.append(1)
        manager.sync()
        assert calls == [1]


class TestBulkSpecifics:
    def test_single_key_per_profile(self):
        store = InMemoryKVStore()
        manager = BulkPersistence(store, "t")
        manager.flush(make_profile())
        assert len(store) == 1

    def test_serialized_size_under_paper_bound(self):
        """§III-E: a typical serialized+compressed profile is < 40 KB."""
        store = InMemoryKVStore()
        manager = BulkPersistence(store, "t")
        profile = make_profile(writes=500)
        assert manager.serialized_size(profile) < 40 * 1024


class TestFineGrainedSpecifics:
    def test_meta_plus_slice_keys(self):
        store = InMemoryKVStore()
        manager = FineGrainedPersistence(store, "t")
        profile = make_profile(writes=20)
        manager.flush(profile)
        # One meta record + one key per slice.
        assert len(store) == 1 + profile.slice_count()

    def test_reflush_garbage_collects_old_slices(self):
        store = InMemoryKVStore()
        manager = FineGrainedPersistence(store, "t")
        profile = make_profile(writes=20)
        manager.flush(profile)
        first_keys = len(store)
        manager.flush(profile)
        # Orphaned slice values from flush #1 were deleted.
        assert len(store) == first_keys

    def test_meta_version_advances_per_flush(self):
        store = InMemoryKVStore()
        manager = FineGrainedPersistence(store, "t")
        profile = make_profile(writes=5)
        manager.flush(profile)
        version_1 = store.xget(b"t/m/1").version
        manager.flush(profile)
        assert store.xget(b"t/m/1").version == version_1 + 1

    def test_concurrent_flushers_converge(self):
        """Fig. 14: racing flushes retry on version conflict; the final
        state is one complete flush, never an interleaving."""
        store = InMemoryKVStore()
        # The other three threads commit at most 15 times and each commit
        # fails at most one of a thread's attempts, so no flush can run
        # out of 16 retries; under the default 4 a flusher that loses the
        # CAS four times in a row raises (the bounded-retry contract, not
        # the interleaving under test) about one run in eleven.
        manager = FineGrainedPersistence(store, "t", max_retries=16)
        profile = make_profile(writes=30)
        errors = []

        def flusher():
            try:
                for _ in range(5):
                    manager.flush(profile)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=flusher) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        loaded = manager.load(1)
        assert loaded.feature_count() == profile.feature_count()

    def test_conflict_counted_in_stats(self):
        store = InMemoryKVStore()
        manager = FineGrainedPersistence(store, "t")
        profile = make_profile(writes=3)
        manager.flush(profile)
        # Sabotage: bump the meta version behind the manager's back between
        # its xget and xset by pre-writing with the plain API.
        meta = store.xget(b"t/m/1")
        store.set(b"t/m/1", meta.value)

        # The next flush reads version N, another bump happens, conflict.
        class RacingStore:
            def __init__(self, inner):
                self._inner = inner
                self._raced = False

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def xset(self, key, value, held):
                if not self._raced and key == b"t/m/1":
                    self._raced = True
                    current = self._inner.xget(key)
                    self._inner.set(key, current.value)  # Version bump.
                return self._inner.xset(key, value, held)

        racing_manager = FineGrainedPersistence(RacingStore(store), "t")
        racing_manager.flush(profile)
        assert racing_manager.stats.version_conflicts == 1
        assert racing_manager.load(1).feature_count() == profile.feature_count()

    def test_gives_up_after_max_retries(self):
        store = InMemoryKVStore()
        # Seed a valid meta record so the conflicting rewrites stay
        # decodable.
        FineGrainedPersistence(store, "t").flush(make_profile(writes=2))

        class AlwaysConflicting:
            def __getattr__(self, name):
                return getattr(store, name)

            def xset(self, key, value, held):
                # Bump the version right before every fenced write so the
                # held version is always stale.
                current = store.xget(key)
                store.set(key, current.value)
                return store.xset(key, value, held)

        manager = FineGrainedPersistence(AlwaysConflicting(), "t", max_retries=2)
        with pytest.raises(VersionConflictError):
            manager.flush(make_profile(writes=2))
        assert manager.stats.version_conflicts == 2


    def test_slice_gone_for_good_is_a_typed_error_not_a_recursion(self):
        """The meta record keeps naming a slice that no longer exists:
        the load retries ``max_retries`` times and then says which."""
        store = InMemoryKVStore()
        manager = FineGrainedPersistence(store, "t", max_retries=3)
        manager.flush(make_profile(writes=2))
        doomed = sorted(k for k in store.keys() if k.startswith(b"t/s/1/"))[0]
        store.delete(doomed)
        slice_id = int(doomed.rsplit(b"/", 1)[1])
        with pytest.raises(
            StorageError, match=rf"profile 1: slice {slice_id} .* 3 reads"
        ):
            manager.load(1)

    def test_slice_replaced_between_meta_and_slice_read_still_loads(self):
        """A flush lands after the reader took the meta record and before
        it reached the slices: the old slice ids are gone, one reload
        finds the new ones."""
        store = InMemoryKVStore()
        profile = make_profile(writes=2)
        writer = FineGrainedPersistence(store, "t")
        writer.flush(profile)

        class FlushAfterFirstMetaRead:
            def __init__(self):
                self.meta_reads = 0

            def __getattr__(self, name):
                return getattr(store, name)

            def xget(self, key):
                meta = store.xget(key)
                self.meta_reads += 1
                if self.meta_reads == 1:
                    writer.flush(profile)
                return meta

        racing = FlushAfterFirstMetaRead()
        loaded = FineGrainedPersistence(racing, "t").load(1)
        assert racing.meta_reads == 2
        assert loaded.feature_count() == profile.feature_count()


class TestFineGrainedRestart:
    """A new manager over a store that already holds the profile — every
    restart of a fine-grained node — must not allocate the slice ids the
    live meta record lists."""

    def test_reflush_by_a_new_manager_keeps_every_slice(self):
        store = InMemoryKVStore()
        FineGrainedPersistence(store, "t").flush(make_profile(writes=20))

        second = FineGrainedPersistence(store, "t")
        profile = second.load(1)
        profile.add(2_000_000, 0, 0, 99, [1, 1], SUM)
        second.flush(profile)

        reloaded = FineGrainedPersistence(store, "t").load(1)
        assert reloaded.slice_count() == profile.slice_count()
        assert reloaded.feature_count() == profile.feature_count()
        assert ProfileCodec.encode_profile(reloaded) == (
            ProfileCodec.encode_profile(profile)
        )
        # One meta record + one key per slice: nothing leaked either.
        assert len(store) == 1 + profile.slice_count()

    def test_two_managers_flushing_alternately(self):
        store = InMemoryKVStore()
        managers = [
            FineGrainedPersistence(store, "t"),
            FineGrainedPersistence(store, "t"),
        ]
        profile = make_profile(writes=20)
        for round_number in range(5):
            for manager in managers:
                profile.add(
                    3_000_000 + round_number * 2000, 0, 0, 7, [1, 1], SUM
                )
                manager.flush(profile)
                loaded = manager.load(1)
                assert ProfileCodec.encode_profile(loaded) == (
                    ProfileCodec.encode_profile(profile)
                )
        assert len(store) == 1 + profile.slice_count()


class TestStoredProfileIds:
    def test_enumerates_flushed_profiles(self, persistence):
        manager, _ = persistence
        for profile_id in (3, 7, 11):
            manager.flush(make_profile(profile_id, writes=4))
        assert manager.stored_profile_ids() == {3, 7, 11}

    def test_empty_store(self, persistence):
        manager, _ = persistence
        assert manager.stored_profile_ids() == set()

    def test_ignores_other_tables(self):
        store = InMemoryKVStore()
        BulkPersistence(store, "t").flush(make_profile(1, writes=2))
        BulkPersistence(store, "other").flush(make_profile(2, writes=2))
        assert BulkPersistence(store, "t").stored_profile_ids() == {1}


class TestOrphanSweep:
    def test_mid_flush_failure_leaks_slices_and_sweep_reclaims(self):
        """Regression: a flush dying between the slice writes and the meta
        fence used to leak the fresh slice keys forever."""
        from repro.errors import StorageError

        store = InMemoryKVStore()
        manager = FineGrainedPersistence(store, "t")
        manager.flush(make_profile(1, writes=6))
        keys_after_clean_flush = len(list(store.keys()))

        class MetaFenceFails:
            def __init__(self, inner):
                self._inner = inner
                self.armed = True

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def xset(self, key, value, held):
                if self.armed and key.startswith(b"t/m/"):
                    self.armed = False
                    raise StorageError("injected death before meta fence")
                return self._inner.xset(key, value, held)

        failing = FineGrainedPersistence(MetaFenceFails(store), "t")
        # Keep slice-id allocation disjoint from the first manager's.
        failing._next_slice_id = 1000
        with pytest.raises(StorageError):
            failing.flush(make_profile(2, writes=6))

        leaked = len(list(store.keys())) - keys_after_clean_flush
        assert leaked > 0  # Slices written, meta never published.
        assert manager.load(2) is None

        swept = manager.sweep_orphans()
        assert swept == leaked
        assert manager.stats.orphan_slices_swept == leaked
        assert len(list(store.keys())) == keys_after_clean_flush
        # The surviving profile is untouched.
        assert manager.load(1).feature_count() > 0

    def test_sweep_on_clean_store_is_noop(self):
        store = InMemoryKVStore()
        manager = FineGrainedPersistence(store, "t")
        manager.flush(make_profile(1, writes=4))
        assert manager.sweep_orphans() == 0
        assert manager.load(1).feature_count() > 0

    def test_sweep_ignores_unparsable_slice_keys(self):
        store = InMemoryKVStore()
        manager = FineGrainedPersistence(store, "t")
        store.set(b"t/s/not-a-number", b"junk")
        assert manager.sweep_orphans() == 0
        assert store.get(b"t/s/not-a-number") == b"junk"
