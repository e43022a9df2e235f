"""Hypothesis stateful (model-based) tests for the stateful substrates.

Each RuleBasedStateMachine drives the real component through random
operation sequences while maintaining a trivially correct model, then
checks the component against the model as an invariant:

* GCache against a plain dict (write-back semantics: any profile ever
  put must be retrievable, from cache or through storage);
* FileKVStore against a dict (durability: a reopened store equals the
  model, including through log compaction).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.cache import GCache
from repro.core.aggregate import get_aggregate
from repro.core.profile import ProfileData
from repro.storage import BulkPersistence, FileKVStore, InMemoryKVStore

SUM = get_aggregate("sum")


def _profile(profile_id: int, version: int) -> ProfileData:
    profile = ProfileData(profile_id, 1000)
    profile.add(1_000_000 + version, 1, 0, version, [1], SUM)
    return profile


class GCacheMachine(RuleBasedStateMachine):
    """Model: profile_id -> latest version number ever put/mutated."""

    @initialize()
    def setup(self) -> None:
        store = InMemoryKVStore()
        persistence = BulkPersistence(store, "t")
        self.cache = GCache(
            load_fn=persistence.load,
            flush_fn=persistence.flush,
            capacity_bytes=4000,  # Small: eviction happens constantly.
            swap_threshold=0.6,
            swap_target=0.4,
            lru_shards=4,
            dirty_shards=2,
        )
        self.model: dict[int, int] = {}
        self.version = 0

    @rule(profile_id=st.integers(min_value=0, max_value=30))
    def put_profile(self, profile_id: int) -> None:
        self.version += 1
        self.cache.put(_profile(profile_id, self.version))
        self.model[profile_id] = self.version

    @rule(profile_id=st.integers(min_value=0, max_value=30))
    def mutate_resident(self, profile_id: int) -> None:
        profile = self.cache.get_resident(profile_id)
        if profile is None:
            return
        self.version += 1
        profile.add(2_000_000 + self.version, 1, 0, self.version, [1], SUM)
        self.cache.mark_dirty(profile_id)
        self.model[profile_id] = self.version

    @rule()
    def swap(self) -> None:
        self.cache.run_swap_once()

    @rule()
    def flush(self) -> None:
        self.cache.run_flush_once()

    @rule(profile_id=st.integers(min_value=0, max_value=40))
    def read(self, profile_id: int) -> None:
        profile = self.cache.get(profile_id)
        if profile_id in self.model:
            assert profile is not None, f"profile {profile_id} lost"
            newest_fid = max(
                stat.fid
                for profile_slice in profile.slices
                for stat in profile_slice.features(1, 0)
            )
            assert newest_fid == self.model[profile_id], (
                f"profile {profile_id}: stale version {newest_fid} "
                f"!= {self.model[profile_id]}"
            )
        else:
            assert profile is None

    @invariant()
    def no_negative_accounting(self) -> None:
        assert self.cache.memory_bytes() >= 0
        assert self.cache.lru.total_entries() >= 0


TestGCacheStateful = GCacheMachine.TestCase
TestGCacheStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)


class FileKVStoreMachine(RuleBasedStateMachine):
    """Model: dict of key -> value, checked across reopen and compaction."""

    KEYS = [f"k{i}".encode() for i in range(12)]

    @initialize()
    def setup(self) -> None:
        import tempfile
        from pathlib import Path

        self._dir = tempfile.TemporaryDirectory()
        self.path = Path(self._dir.name) / "store.log"
        self.store = FileKVStore(self.path)
        self.model: dict[bytes, bytes] = {}

    def teardown(self) -> None:
        self.store.close()
        self._dir.cleanup()

    @rule(key=st.sampled_from(KEYS), value=st.binary(min_size=0, max_size=40))
    def set_value(self, key: bytes, value: bytes) -> None:
        self.store.set(key, value)
        self.model[key] = value

    @rule(key=st.sampled_from(KEYS))
    def delete_value(self, key: bytes) -> None:
        self.store.delete(key)
        self.model.pop(key, None)

    @rule()
    def reopen(self) -> None:
        """Simulated restart: close and replay the log."""
        self.store.close()
        self.store = FileKVStore(self.path)

    @rule()
    def compact(self) -> None:
        self.store.compact_log()

    @invariant()
    def store_matches_model(self) -> None:
        assert len(self.store) == len(self.model)
        for key, value in self.model.items():
            assert self.store.get(key) == value


TestFileKVStoreStateful = FileKVStoreMachine.TestCase
TestFileKVStoreStateful.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None
)


class ResultCacheNodeMachine(RuleBasedStateMachine):
    """A node and its result cache against a dict model of merged writes.

    Model: ``profile_id -> fid -> [per-attribute sums]`` of every write
    *visible* to reads (merged or recovered; buffered writes stay in a
    separate pending list until a merge makes them visible).  The node's
    result cache is swapped for a tiny one, so LRU eviction is constant,
    and every read must
    match the model exactly: a read served from the result cache that
    survived a write, merge, maintenance pass, cache cycle or crash
    recovery would diverge immediately.

    Sum aggregation over the full-history window makes the expected
    answer compaction-invariant, so maintenance must *not* change reads
    while writes must.
    """

    ATTRS = ("a", "b")

    @initialize()
    def setup(self) -> None:
        from repro.clock import MILLIS_PER_DAY, SimulatedClock
        from repro.config import TableConfig
        from repro.core.query import SortType
        from repro.core.timerange import TimeRange
        from repro.server import (
            IPSNode,
            QueryResultCache,
            attach_memory_durability,
        )
        from repro.storage import InMemoryKVStore

        self.SortType = SortType
        self.now_ms = 400 * MILLIS_PER_DAY
        self.day_ms = MILLIS_PER_DAY
        self.window = TimeRange.absolute(0, self.now_ms + 1)
        self.node = IPSNode(
            "stateful",
            TableConfig(name="stateful", attributes=self.ATTRS),
            InMemoryKVStore(),
            clock=SimulatedClock(start_ms=self.now_ms),
            cache_capacity_bytes=64 * 1024,  # Small: GCache churns.
        )
        # Tiny: result-cache eviction is constant.
        self.node.result_cache = QueryResultCache(max_entries=8)
        attach_memory_durability(self.node, checkpoint_interval_records=32)
        #: Visible state: profile -> fid -> [sum per attribute].
        self.model: dict[int, dict[int, list[int]]] = {}
        #: Writes buffered in the write table, invisible until merged.
        self.pending: list[tuple[int, int, dict[str, int]]] = []

    def _absorb_pending(self) -> None:
        for profile_id, fid, counts in self.pending:
            sums = self.model.setdefault(profile_id, {}).setdefault(
                fid, [0] * len(self.ATTRS)
            )
            for index, attr in enumerate(self.ATTRS):
                sums[index] += counts.get(attr, 0)
        self.pending.clear()

    @rule(
        profile_id=st.integers(min_value=0, max_value=5),
        fid=st.integers(min_value=0, max_value=9),
        day=st.integers(min_value=0, max_value=5),
        count=st.integers(min_value=1, max_value=4),
    )
    def write(self, profile_id: int, fid: int, day: int, count: int) -> None:
        counts = {self.ATTRS[fid % 2]: count}
        self.node.add_profile(
            profile_id, self.now_ms - day * self.day_ms, 1, 0, fid, counts
        )
        self.pending.append((profile_id, fid, counts))

    @rule()
    def merge(self) -> None:
        self.node.merge_write_table()
        self._absorb_pending()

    @rule()
    def maintain(self) -> None:
        """Compaction: must not change full-window sum reads."""
        self.node.run_maintenance(full=True)

    @rule()
    def cache_cycle(self) -> None:
        self.node.run_cache_cycle()

    @rule()
    def invalidate_all(self) -> None:
        """Spurious invalidation is always safe (never wrong, only slow)."""
        self.node.result_cache.invalidate_all()

    @rule()
    def crash_recover(self) -> None:
        """WAL-logged writes — buffered or merged — survive the crash."""
        self.node.crash()
        self.node.recover()
        self._absorb_pending()

    @rule(profile_id=st.integers(min_value=0, max_value=6))
    def read(self, profile_id: int) -> None:
        expected = {
            fid: tuple(sums)
            for fid, sums in self.model.get(profile_id, {}).items()
        }
        for _ in range(2):  # Second read exercises the cache-hit path.
            results = self.node.get_profile_topk(
                profile_id, 1, 0, self.window, self.SortType.FEATURE_ID, 64
            )
            got = {result.fid: result.counts for result in results}
            assert got == expected, (
                f"profile {profile_id}: cached node returned {got}, "
                f"model says {expected}"
            )

    @invariant()
    def cache_accounting_consistent(self) -> None:
        cache = self.node.result_cache
        assert len(cache) <= 8
        stats = cache.stats
        assert stats.hits + stats.misses >= stats.installs


TestResultCacheNodeStateful = ResultCacheNodeMachine.TestCase
TestResultCacheNodeStateful.settings = settings(
    max_examples=20, stateful_step_count=40, deadline=None
)
