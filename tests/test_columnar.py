"""Unit tests for the columnar-native representation (ROADMAP item #2).

The differential oracles prove the *query* surface is byte-identical to
the reference; this file covers the :class:`ColumnGroup` mechanics the
oracles reach only indirectly — the uint64 fid domain, stride growth, bulk
replacement, copy isolation, memory accounting — plus the profile-level
batch-gather memo, whose identity revalidation must observe mutations
made between two ``top_k_batch`` calls.
"""

import sys
import threading
from array import array

import pytest

from repro.clock import SimulatedClock
from repro.config import TableConfig
from repro.core.aggregate import get_aggregate
from repro.core.columnar import FID_TYPECODE, INT64_TYPECODE, ColumnGroup
from repro.core.engine import ProfileEngine, QueryEngine
from repro.core.feature import INT64_MAX, FeatureStat
from repro.core.profile import ProfileData
from repro.core.query import SortType
from repro.core.timerange import TimeRange

SUM = get_aggregate("sum")


def make_group(rows):
    group = ColumnGroup()
    for fid, counts, ts in rows:
        group.add(fid, counts, ts, SUM)
    return group


class TestColumnarMechanics:
    def test_add_merges_like_merge_counts(self):
        group = make_group([(7, [1, 2], 100), (7, [3, 4], 90)])
        stat = group.get(7)
        assert stat.counts == [4, 6]
        assert stat.last_timestamp_ms == 100  # max, not last write
        assert group.fids.typecode == FID_TYPECODE

    def test_stride_growth_pads_existing_rows(self):
        group = make_group([(1, [5], 10), (2, [1, 2, 3], 20)])
        assert group.stride == 3
        # The narrow row keeps its native width through the re-layout.
        assert group.get(1).counts == [5]
        assert group.get(2).counts == [1, 2, 3]
        assert group.row_width(0) == 1
        assert group.row_width(1) == 3

    def test_replace_duplicate_fids_last_value_wins(self):
        group = ColumnGroup()
        group.replace(
            [
                FeatureStat(1, [1], 10),
                FeatureStat(2, [2], 20),
                FeatureStat(1, [9], 30),
            ]
        )
        assert len(group) == 2
        assert group.get(1).counts == [9]
        # First occurrence fixed the position: fid 1 is still row 0.
        assert [stat.fid for stat in group.iter_stats()] == [1, 2]


class TestUint64Domain:
    def test_fids_past_int64_stay_columnar(self):
        group = make_group([(1, [1, 2], 10)])
        group.add(INT64_MAX + 1, [3], 20, SUM)
        group.add(2**64 - 1, [4], 30, SUM)
        assert group.fids.typecode == FID_TYPECODE
        assert group.fids.tolist() == [1, INT64_MAX + 1, 2**64 - 1]
        assert group.get(1).counts == [1, 2]
        assert group.get(INT64_MAX + 1).counts == [3]
        group.add(1, [1, 1], 30, SUM)
        group.add(2**64 - 1, [1], 40, SUM)
        assert group.get(1).counts == [2, 3]
        assert group.get(2**64 - 1).counts == [5]
        assert [stat.fid for stat in group.iter_stats()] == [
            1, INT64_MAX + 1, 2**64 - 1
        ]

    def test_float_udaf_result_is_coerced(self):
        def mean_ish(a, b):
            return (a + b) / 2

        group = make_group([(5, [4, 1], 10)])
        group.add(5, [3], 20, mean_ish)
        reference = FeatureStat(5, [4, 1], 10)
        reference.merge_counts([3], mean_ish, 20)
        # (4 + 3) / 2 and (1 + 0) / 2, each through int(): 3 and 0.
        assert group.get(5).counts == reference.counts == [3, 0]
        assert all(type(count) is int for count in reference.counts)
        assert group.counts.typecode == INT64_TYPECODE


class TestCopyAndAccounting:
    def test_copy_isolation_columnar(self):
        original = make_group([(1, [1, 2], 10)])
        duplicate = original.copy()
        duplicate.add(1, [10, 10], 20, SUM)
        duplicate.add(2, [7], 20, SUM)
        assert original.get(1).counts == [1, 2]
        assert original.get(2) is None

    def test_copy_isolation_wide_fid(self):
        original = make_group([(INT64_MAX + 1, [1], 10)])
        duplicate = original.copy()
        duplicate.add(INT64_MAX + 1, [5], 20, SUM)
        assert original.get(INT64_MAX + 1).counts == [1]
        assert duplicate.get(INT64_MAX + 1).counts == [6]
        assert duplicate.fids.typecode == FID_TYPECODE

    def test_memory_accounting_ignores_mutation_order(self):
        # Same logical contents, one built wide-first, one narrow-first
        # (the latter allocates a widths column it no longer needs).
        wide_first = make_group([(1, [1, 2, 3], 10), (2, [4, 5, 6], 20)])
        narrow_first = make_group([(2, [4], 20), (1, [1, 2, 3], 10)])
        narrow_first.add(2, [0, 5, 6], 20, SUM)
        assert wide_first.memory_bytes() == narrow_first.memory_bytes()

    def test_from_columns_rejects_inconsistent_shapes(self):
        fids = array(FID_TYPECODE, [1, 2])
        ts = array(INT64_TYPECODE, [10, 20])
        counts = array(INT64_TYPECODE, [1, 2, 3, 4])
        with pytest.raises(ValueError):
            ColumnGroup.from_columns(2, fids, array(INT64_TYPECODE, [10]), counts, None)
        with pytest.raises(ValueError):
            ColumnGroup.from_columns(
                2, array(FID_TYPECODE, [1, 1]), ts, counts, None
            )
        with pytest.raises(ValueError):
            ColumnGroup.from_columns(
                2, fids, ts, counts, array(INT64_TYPECODE, [3, 1])
            )


class TestBatchMemoInvalidation:
    """The profile-level gather memo must never serve stale rows."""

    WINDOW = TimeRange.current(10_000)
    NOW_MS = 50_000

    def _engine(self):
        config = TableConfig(name="columnar_memo", attributes=("like", "share"))
        return QueryEngine(config, SUM)

    def _profile(self, pid):
        profile = ProfileData(pid, write_granularity_ms=1000)
        for i in range(8):
            profile.add(
                self.NOW_MS - i * 900, 1, 1, fid=100 + i, counts=[i + 1, 1],
                aggregate=SUM,
            )
        return profile

    def _batch(self, engine, profiles):
        return engine.top_k_batch(
            profiles, 1, 1, self.WINDOW, SortType.ATTRIBUTE, k=5,
            now_ms=self.NOW_MS, sort_attribute="like",
        )

    def test_repeat_batch_is_stable(self):
        engine = self._engine()
        profiles = [self._profile(pid) for pid in range(4)]
        first = self._batch(engine, profiles)
        assert self._batch(engine, profiles) == first  # memo-hit path

    def test_mutation_between_batches_is_visible(self):
        engine = self._engine()
        profiles = [self._profile(pid) for pid in range(4)]
        self._batch(engine, profiles)  # populate the memo
        # Mutate one profile: a new write that must dominate the sort.
        profiles[2].add(
            self.NOW_MS - 10, 1, 1, fid=999, counts=[1000, 1], aggregate=SUM
        )
        results = self._batch(engine, profiles)
        assert results[2][0].fid == 999
        # Untouched profiles still serve from the (validated) memo.
        singles = [
            engine.top_k(
                profile, 1, 1, self.WINDOW, SortType.ATTRIBUTE, k=5,
                now_ms=self.NOW_MS, sort_attribute="like",
            )
            for profile in profiles
        ]
        assert results == singles

    def test_new_slice_between_batches_is_visible(self):
        engine = self._engine()
        profiles = [self._profile(pid) for pid in range(3)]
        self._batch(engine, profiles)
        # A write newer than the head slice prepends a fresh slice, which
        # changes the window's slice list rather than an existing slice.
        profiles[0].add(
            self.NOW_MS + 2000, 1, 1, fid=777, counts=[500, 1], aggregate=SUM
        )
        results = engine.top_k_batch(
            profiles, 1, 1, self.WINDOW, SortType.ATTRIBUTE, k=5,
            now_ms=self.NOW_MS + 2500, sort_attribute="like",
        )
        assert results[0][0].fid == 777

    def test_point_reads_see_mutations_between_reads(self):
        """Point reads are served from the profile memo a multi-get left
        behind: a write into a memoised slice, a new head slice and a
        ``replace_slices`` between reads must each show up, and every
        read equals the reference."""
        engine = self._engine()
        reference = QueryEngine(engine._config, SUM, backend="python")
        profile = self._profile(1)

        def multi_get(now_ms):  # what populates the memo
            engine.top_k_batch(
                [profile, self._profile(2)], 1, 1, self.WINDOW,
                SortType.ATTRIBUTE, k=5, now_ms=now_ms, sort_attribute="like",
            )

        def point(now_ms):
            results = engine.top_k(
                profile, 1, 1, self.WINDOW, SortType.ATTRIBUTE, k=5,
                now_ms=now_ms, sort_attribute="like",
            )
            assert results == reference.top_k(
                profile, 1, 1, self.WINDOW, SortType.ATTRIBUTE, k=5,
                now_ms=now_ms, sort_attribute="like",
            )
            return [result.fid for result in results]

        first = point(self.NOW_MS)  # no memo yet
        multi_get(self.NOW_MS)
        assert point(self.NOW_MS) == first  # memo-hit path
        profile.add(
            self.NOW_MS - 10, 1, 1, fid=999, counts=[1000, 1], aggregate=SUM
        )
        assert point(self.NOW_MS)[0] == 999
        later_ms = self.NOW_MS + 2500  # the memo is per resolved window
        multi_get(later_ms)
        profile.add(
            self.NOW_MS + 2000, 1, 1, fid=777, counts=[5000, 1], aggregate=SUM
        )
        assert point(later_ms)[0] == 777
        multi_get(later_ms)
        # Compaction's hand-over: same window, other slice objects.
        profile.replace_slices([s.copy() for s in profile.slices[1:]])
        assert point(later_ms)[0] == 999


class TestReadBesideWrite:
    """ROADMAP item 1(a), writer side: reads must never break a write."""

    ROWS = 400  # the export window only opens on larger columns
    SECONDS = 2.0

    def test_writer_survives_concurrent_reads(self):
        """Three readers loop a point multi-get beside one appending writer.

        A kernel that holds a buffer export over a primary column while
        it copies makes ``ColumnGroup._append_row`` raise ``BufferError``
        after ``fids``/``ts`` already grew, leaving the columns ragged
        for good.  Reader-side transient errors (a snapshot taken between
        two column appends) are a known open face of the same item: they
        are counted and printed, not asserted.
        """
        clock = SimulatedClock(self.ROWS * 1000)
        engine = ProfileEngine(
            TableConfig(name="stress", attributes=("like", "share", "view")),
            clock,
        )
        now_ms = clock.now_ms()
        for fid in range(self.ROWS):
            engine.add_profile(1, now_ms - 1, 1, 1, fid, [fid, 1, 1])
        (group,) = engine.table.get(1).slices[0].column_groups(1, 1)
        assert len(group) == self.ROWS
        window = TimeRange.current(10_000)
        stop = threading.Event()
        writer_errors: list[BaseException] = []
        reader_errors: list[BaseException] = []
        appended = [0]

        def write():
            fid = self.ROWS
            try:
                while not stop.is_set():
                    engine.add_profile(1, now_ms - 1, 1, 1, fid, [fid, 1, 1])
                    fid += 1
            except BaseException as exc:  # noqa: BLE001 - the assertion below
                writer_errors.append(exc)
            appended[0] = fid - self.ROWS

        def read():
            while not stop.is_set():
                try:
                    engine.get_profiles_topk([1], 1, 1, window, k=10)
                except Exception as exc:  # noqa: BLE001 - counted, see docstring
                    reader_errors.append(exc)

        threads = [threading.Thread(target=write)] + [
            threading.Thread(target=read) for _ in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            threads[0].join(self.SECONDS)  # returns early if the writer died
        finally:
            stop.set()
            for thread in threads:
                thread.join(30.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        print(
            f"\nappends={appended[0]} transient reader errors="
            f"{len(reader_errors)} {sorted({type(e).__name__ for e in reader_errors})}"
        )
        assert writer_errors == []
        assert appended[0] > 0
        assert len(group.ts) == len(group.fids)
        assert len(group.counts) == len(group.fids) * group.stride
