"""Unit tests for the write-invalidated query-result cache."""

import pytest

from repro.server import QueryResultCache


FP_A = ("topk", 1, 0, 0, 100, 10, "sum", ("total",))
FP_B = ("topk", 1, 0, 0, 100, 5, "sum", ("total",))


def _install(cache, profile_id, fingerprint, value):
    epoch = cache.epoch(profile_id)
    assert cache.put(profile_id, fingerprint, value, epoch)


class TestBasics:
    def test_miss_then_hit(self):
        cache = QueryResultCache(max_entries=4)
        assert cache.get(1, FP_A) is None
        _install(cache, 1, FP_A, [1, 2])
        assert cache.get(1, FP_A) == [1, 2]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert len(cache) == 1

    def test_hit_returns_fresh_list(self):
        cache = QueryResultCache(max_entries=4)
        _install(cache, 1, FP_A, [1, 2])
        first = cache.get(1, FP_A)
        first.append(99)  # A caller mutating its copy must not poison others.
        assert cache.get(1, FP_A) == [1, 2]

    def test_entries_are_per_profile_and_per_fingerprint(self):
        cache = QueryResultCache(max_entries=8)
        _install(cache, 1, FP_A, ["a"])
        _install(cache, 1, FP_B, ["b"])
        _install(cache, 2, FP_A, ["c"])
        assert cache.get(1, FP_A) == ["a"]
        assert cache.get(1, FP_B) == ["b"]
        assert cache.get(2, FP_A) == ["c"]


class TestInvalidation:
    def test_invalidate_profile_drops_only_its_entries(self):
        cache = QueryResultCache(max_entries=8)
        _install(cache, 1, FP_A, ["a"])
        _install(cache, 2, FP_A, ["c"])
        cache.invalidate(1)
        assert cache.get(1, FP_A) is None
        assert cache.get(2, FP_A) == ["c"]
        assert cache.stats.invalidations == 1
        assert cache.stats.entries_invalidated == 1

    def test_invalidate_all_clears_everything(self):
        cache = QueryResultCache(max_entries=8)
        _install(cache, 1, FP_A, ["a"])
        _install(cache, 2, FP_A, ["c"])
        cache.invalidate_all()
        assert len(cache) == 0
        assert cache.get(1, FP_A) is None
        assert cache.get(2, FP_A) is None

    def test_stale_install_discarded_after_profile_invalidation(self):
        """The epoch guard: a result computed before a write must never
        be installed after the write's invalidation ran."""
        cache = QueryResultCache(max_entries=8)
        epoch = cache.epoch(1)  # Captured before executing the query...
        cache.invalidate(1)  # ...a write lands while the query runs...
        assert not cache.put(1, FP_A, ["stale"], epoch)  # ...install loses.
        assert cache.get(1, FP_A) is None
        assert cache.stats.install_races == 1

    def test_stale_install_discarded_after_global_invalidation(self):
        cache = QueryResultCache(max_entries=8)
        epoch = cache.epoch(1)
        cache.invalidate_all()
        assert not cache.put(1, FP_A, ["stale"], epoch)
        assert cache.get(1, FP_A) is None

    def test_fresh_install_after_invalidation_wins(self):
        cache = QueryResultCache(max_entries=8)
        cache.invalidate(1)
        _install(cache, 1, FP_A, ["fresh"])
        assert cache.get(1, FP_A) == ["fresh"]


class TestEviction:
    def test_lru_eviction_at_capacity(self):
        cache = QueryResultCache(max_entries=2)
        _install(cache, 1, FP_A, ["a"])
        _install(cache, 2, FP_A, ["b"])
        assert cache.get(1, FP_A) == ["a"]  # 1 is now most recent.
        _install(cache, 3, FP_A, ["c"])  # Evicts profile 2's entry.
        assert cache.get(2, FP_A) is None
        assert cache.get(1, FP_A) == ["a"]
        assert cache.get(3, FP_A) == ["c"]
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_eviction_keeps_profile_index_consistent(self):
        cache = QueryResultCache(max_entries=1)
        _install(cache, 1, FP_A, ["a"])
        _install(cache, 1, FP_B, ["b"])  # Evicts the first entry.
        cache.invalidate(1)  # Must not blow up on the evicted fingerprint.
        assert len(cache) == 0


class TestMetrics:
    def test_hit_ratio(self):
        cache = QueryResultCache(max_entries=4)
        assert cache.stats.hit_ratio == 0.0
        _install(cache, 1, FP_A, ["a"])
        cache.get(1, FP_A)
        cache.get(1, FP_B)
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_repr_is_informative(self):
        cache = QueryResultCache(max_entries=4)
        _install(cache, 1, FP_A, ["a"])
        assert "entries=1" in repr(cache)


class TestValidation:
    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryResultCache(max_entries=0)
