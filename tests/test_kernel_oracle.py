"""Differential oracle: the numpy kernels against the python reference.

The columnar backend's contract is **byte-identical** results — not
"close", not "same set, different order".  Every test here runs the same
query against both backends on seeded corpora (zipf-skewed fids,
schema-length mismatches, negative counts, int64-overflow sums,
catalog-shaped 64-bit fids with tied scores) and
asserts the full ``FeatureResult`` lists *and* the ``QueryStats`` agree
exactly.  A teeth test proves the harness actually bites by checking it
rejects a deliberately broken kernel.

When the numpy backend is unavailable (not installed, or forced off via
``IPS_KERNEL_DISABLE_NUMPY=1`` — how ``make kernel-oracle`` exercises the
numpy-absent configuration), the differential tests skip and the
backend-selection tests prove the registry degrades correctly.
"""

from __future__ import annotations

import pytest

from repro.clock import MILLIS_PER_DAY, MILLIS_PER_HOUR
from repro.config import TableConfig, TimeDimensionConfig
from repro.core.aggregate import get_aggregate
from repro.core.compaction import Compactor
from repro.core.decay import exponential_decay, linear_decay, step_decay
from repro.core.feature import INT64_MAX
from repro.core.profile import ProfileData
from repro.core.query import QueryEngine, QueryStats, SortType
from repro.core.kernels import (
    available_backends,
    default_backend_name,
    get_backend,
)
from repro.core.timerange import TimeRange
from repro.errors import ConfigError

NOW = 400 * MILLIS_PER_DAY
SPAN = 70 * MILLIS_PER_DAY
ATTRIBUTES = ("like", "comment", "share")
AGGREGATE_NAMES = ("sum", "max", "min", "last")

numpy_available = "numpy" in available_backends()
requires_numpy = pytest.mark.skipif(
    not numpy_available, reason="numpy kernel backend unavailable"
)


@pytest.fixture
def config():
    return TableConfig(name="kernel_oracle", attributes=ATTRIBUTES)


# ----------------------------------------------------------------------
# Seeded corpora
# ----------------------------------------------------------------------


def _fill(profile, rng, fids, counts_fn, num_writes, aggregate):
    for _ in range(num_writes):
        profile.add(
            NOW - rng.randrange(SPAN),
            rng.choice((1, 2)),
            rng.choice((1, 2, 3)),
            fids(),
            counts_fn(),
            aggregate,
        )
    return profile


def zipf_corpus(rng, aggregate, zipf=None):
    """Zipf-skewed fids: many collisions on hot features, a long tail."""
    profile = ProfileData(1, write_granularity_ms=6 * MILLIS_PER_HOUR)
    draw = zipf.sample if zipf is not None else lambda: rng.randrange(1, 40)
    return _fill(
        profile, rng, draw,
        lambda: [rng.randrange(0, 9) for _ in ATTRIBUTES],
        rng.randrange(40, 160), aggregate,
    )


def ragged_corpus(rng, aggregate, zipf=None):
    """Schema-length mismatches: count vectors shorter than the schema."""
    profile = ProfileData(1, write_granularity_ms=6 * MILLIS_PER_HOUR)
    return _fill(
        profile, rng, lambda: rng.randrange(1, 25),
        lambda: [rng.randrange(0, 9) for _ in range(rng.randrange(0, 4))],
        rng.randrange(40, 120), aggregate,
    )


def negative_corpus(rng, aggregate, zipf=None):
    """Negative counts (corrections / retractions) mixed with positives."""
    profile = ProfileData(1, write_granularity_ms=6 * MILLIS_PER_HOUR)
    return _fill(
        profile, rng, lambda: rng.randrange(1, 25),
        lambda: [rng.randrange(-20, 20) for _ in ATTRIBUTES],
        rng.randrange(40, 120), aggregate,
    )


def overflow_corpus(rng, aggregate, zipf=None):
    """Counts near INT64_MAX: stepwise clamping differs from a plain sum,
    so the columnar guards must trip and delegate."""
    profile = ProfileData(1, write_granularity_ms=6 * MILLIS_PER_HOUR)
    huge = (INT64_MAX // 2, INT64_MAX - 1, INT64_MAX, 7)
    return _fill(
        profile, rng, lambda: rng.randrange(1, 6),
        lambda: [rng.choice(huge) for _ in ATTRIBUTES],
        rng.randrange(10, 40), aggregate,
    )


def wide_fid_corpus(rng, aggregate, zipf=None):
    """Catalog-shaped fids: a small pool of uniform 64-bit values (about
    half past int64) plus 0, 2**63 - 1, 2**63 and 2**64 - 1.  Counts and
    timestamps come from tiny pools, so scores tie and the fid tie-break
    decides the order."""
    profile = ProfileData(1, write_granularity_ms=6 * MILLIS_PER_HOUR)
    pool = [0, 2**63 - 1, 2**63, 2**64 - 1]
    pool += [rng.getrandbits(64) for _ in range(8)]
    offsets = [rng.randrange(SPAN) for _ in range(3)]
    for _ in range(rng.randrange(40, 120)):
        profile.add(
            NOW - rng.choice(offsets),
            rng.choice((1, 2)),
            rng.choice((1, 2, 3)),
            rng.choice(pool),
            [rng.randrange(0, 3) for _ in ATTRIBUTES],
            aggregate,
        )
    return profile


CORPORA = [
    zipf_corpus, ragged_corpus, negative_corpus, overflow_corpus,
    wide_fid_corpus,
]
CORPUS_IDS = ["zipf", "ragged", "negative", "overflow", "wide_fid"]


def random_time_range(rng) -> TimeRange:
    kind = rng.choice(("current", "relative", "absolute"))
    if kind == "current":
        return TimeRange.current(rng.randrange(1, SPAN))
    if kind == "relative":
        return TimeRange.relative(rng.randrange(1, SPAN))
    start = NOW - rng.randrange(1, SPAN)
    return TimeRange.absolute(start, start + rng.randrange(1, SPAN))


# ----------------------------------------------------------------------
# The comparator (shared with the teeth tests)
# ----------------------------------------------------------------------


def assert_backends_agree(config, aggregate, run, candidate="numpy"):
    """Run one query on the reference and ``candidate``; demand identity.

    ``run(engine, stats)`` executes the query.  Both the result lists and
    the ``QueryStats`` must match exactly; returns the reference result.
    """
    reference_stats, candidate_stats = QueryStats(), QueryStats()
    reference = run(
        QueryEngine(config, aggregate, backend="python"), reference_stats
    )
    got = run(QueryEngine(config, aggregate, backend=candidate), candidate_stats)
    assert got == reference
    assert candidate_stats == reference_stats
    return reference


SORT_CASES = [
    (SortType.TOTAL, {}),
    (SortType.TIMESTAMP, {}),
    (SortType.FEATURE_ID, {}),
    (SortType.ATTRIBUTE, {"sort_attribute": "comment"}),
    (SortType.WEIGHTED, {"sort_weights": {"share": 3.0, "like": 1.0}}),
]


# ----------------------------------------------------------------------
# Differential suites: every query shape x sort type x aggregate
# ----------------------------------------------------------------------


@requires_numpy
class TestTopKDifferential:
    @pytest.mark.parametrize("aggregate_name", AGGREGATE_NAMES)
    @pytest.mark.parametrize(
        "sort_type,extra", SORT_CASES, ids=[case[0].value for case in SORT_CASES]
    )
    def test_topk_identical(
        self, config, rng, make_zipf, aggregate_name, sort_type, extra
    ):
        aggregate = get_aggregate(aggregate_name)
        zipf = make_zipf(200, seed=rng.randrange(2**32))
        for corpus in CORPORA:
            for _ in range(3):
                profile = corpus(rng, aggregate, zipf)
                time_range = random_time_range(rng)
                slot = rng.choice((1, 2))
                type_id = rng.choice((None, 1, 2, 3))
                k = rng.randrange(1, 50)
                descending = rng.random() < 0.8

                def run(engine, stats):
                    return engine.top_k(
                        profile, slot, type_id, time_range, sort_type, k,
                        now_ms=NOW, descending=descending, stats=stats,
                        **extra,
                    )

                assert_backends_agree(config, aggregate, run)


@requires_numpy
class TestFilterDifferential:
    @pytest.mark.parametrize("aggregate_name", AGGREGATE_NAMES)
    @pytest.mark.parametrize(
        "corpus", CORPORA, ids=CORPUS_IDS
    )
    def test_filter_identical(self, config, rng, aggregate_name, corpus):
        aggregate = get_aggregate(aggregate_name)
        for _ in range(4):
            profile = corpus(rng, aggregate)
            time_range = random_time_range(rng)
            slot = rng.choice((1, 2))
            type_id = rng.choice((None, 1, 2, 3))
            threshold = rng.randrange(-10, 25)

            def run(engine, stats):
                return engine.filter(
                    profile, slot, type_id, time_range,
                    lambda stat: stat.total() > threshold,
                    now_ms=NOW, stats=stats,
                )

            assert_backends_agree(config, aggregate, run)


@requires_numpy
class TestDecayDifferential:
    @pytest.mark.parametrize("aggregate_name", AGGREGATE_NAMES)
    @pytest.mark.parametrize(
        "decay_fn,factor",
        [
            (exponential_decay, 7 * MILLIS_PER_DAY),
            (linear_decay, 30 * MILLIS_PER_DAY),
            (step_decay, 10 * MILLIS_PER_DAY),
        ],
        ids=["exponential", "linear", "step"],
    )
    def test_decay_identical(
        self, config, rng, aggregate_name, decay_fn, factor
    ):
        aggregate = get_aggregate(aggregate_name)
        for corpus in CORPORA:
            for _ in range(2):
                profile = corpus(rng, aggregate)
                time_range = random_time_range(rng)
                slot = rng.choice((1, 2))
                type_id = rng.choice((None, 1, 2, 3))
                k = rng.choice((None, rng.randrange(1, 30)))
                sort_attribute = rng.choice((None, "share"))

                def run(engine, stats):
                    return engine.decay(
                        profile, slot, type_id, time_range, decay_fn,
                        factor, now_ms=NOW, k=k,
                        sort_attribute=sort_attribute, stats=stats,
                    )

                assert_backends_agree(config, aggregate, run)


@requires_numpy
class TestUdafDelegation:
    def test_udaf_identical(self, config, rng):
        """An unrecognised reduce fn must route through the reference on
        both backends — and still agree exactly."""

        def clipped_sum(left: int, right: int) -> int:
            return min(left + right, 100)

        for _ in range(5):
            profile = zipf_corpus(rng, clipped_sum)
            time_range = random_time_range(rng)
            type_id = rng.choice((None, 1, 2))

            def run(engine, stats):
                return engine.top_k(
                    profile, 1, type_id, time_range,
                    SortType.TOTAL, 10, now_ms=NOW, stats=stats,
                )

            assert_backends_agree(config, clipped_sum, run)


@requires_numpy
class TestWideFidsVectorise:
    def test_numpy_answers_without_delegating(self, config, rng, monkeypatch):
        """Catalog-shaped fids run on the numpy kernels end to end: the
        reference the backend would delegate to must never be called."""
        backend = get_backend("numpy")

        def refuse(*args, **kwargs):
            raise AssertionError("the numpy backend delegated to the reference")

        for name in ("run_topk_batch", "run_decay_batch", "run_filter"):
            monkeypatch.setattr(backend._reference, name, refuse)
        for aggregate_name in AGGREGATE_NAMES:
            aggregate = get_aggregate(aggregate_name)
            profiles = [wide_fid_corpus(rng, aggregate) for _ in range(3)]
            time_range = TimeRange.current(SPAN)
            for sort_type, extra in SORT_CASES:
                def single(engine, i, stats):
                    return engine.top_k(
                        profiles[i], 1, None, time_range, sort_type, 20,
                        now_ms=NOW, stats=stats, **extra,
                    )

                assert_batch_matches_singles(
                    config, aggregate, single,
                    lambda engine, stats_list: engine.top_k_batch(
                        profiles, 1, None, time_range, sort_type, 20,
                        now_ms=NOW, stats_list=stats_list, **extra,
                    ),
                    len(profiles), candidate="numpy",
                )
            assert_backends_agree(
                config, aggregate,
                lambda engine, stats: engine.decay(
                    profiles[0], 2, None, time_range, exponential_decay,
                    7 * MILLIS_PER_DAY, now_ms=NOW, k=20, stats=stats,
                ),
            )
            assert_backends_agree(
                config, aggregate,
                lambda engine, stats: engine.filter(
                    profiles[0], 1, None, time_range,
                    lambda stat: stat.total() > 1, now_ms=NOW, stats=stats,
                ),
            )


@requires_numpy
class TestCacheInvalidation:
    def test_identical_across_interleaved_writes(self, config, rng):
        """Warm columnar caches must be dropped on every mutation path:
        plain writes, compaction folds and direct slice merges."""
        aggregate = get_aggregate("sum")
        profile = zipf_corpus(rng, aggregate)
        time_range = TimeRange.current(SPAN)

        def run(engine, stats):
            return engine.top_k(
                profile, 1, None, time_range, SortType.TOTAL, 25,
                now_ms=NOW, stats=stats,
            )

        assert_backends_agree(config, aggregate, run)  # caches now warm
        for _ in range(30):  # hit existing slices, not just the head
            profile.add(
                NOW - rng.randrange(SPAN), 1, rng.choice((1, 2)),
                rng.randrange(1, 40),
                [rng.randrange(0, 9) for _ in ATTRIBUTES], aggregate,
            )
        assert_backends_agree(config, aggregate, run)
        Compactor(
            TimeDimensionConfig.production_default(), aggregate,
            backend="python",
        ).compact(profile, NOW)
        assert_backends_agree(config, aggregate, run)


# ----------------------------------------------------------------------
# Batch differential oracle: multi-get == N independent single gets
# ----------------------------------------------------------------------
#
# The batch kernels' contract mirrors the single-query one: for every
# batch shape, each profile's result list AND QueryStats must be
# byte-identical to an independent single get on the python reference.
# These tests run on the session-selected backend, so `make test` plus
# `make kernel-oracle` exercise all three configurations (auto /
# pinned-python / numpy-disabled).


def _batch_profiles(rng, aggregate, zipf=None):
    """A mixed-shape batch: every corpus plus an empty profile."""
    profiles = []
    for _ in range(rng.randrange(1, 4)):
        corpus = rng.choice(CORPORA)
        profiles.append(
            corpus(rng, aggregate, zipf if corpus is zipf_corpus else None)
        )
    if rng.random() < 0.5:  # no slices: the window resolves to None
        profiles.append(ProfileData(99, write_granularity_ms=MILLIS_PER_DAY))
    rng.shuffle(profiles)
    return profiles


def assert_batch_matches_singles(
    config, aggregate, single, batch, n_profiles, candidate=None
):
    """Candidate singles and candidate batch vs python-reference singles.

    ``single(engine, i, stats)`` reads profile ``i``; ``batch(engine,
    stats_list)`` reads them all.  Point reads and multi-gets share one
    kernel path, so comparing a backend's batch with its own singles would
    let a planted bug break both alike: the yardstick is N independent
    point reads on the **python reference**.  ``candidate=None`` is the
    session-selected backend.  Returns the reference results.
    """
    reference_engine = QueryEngine(config, aggregate, backend="python")
    engine = QueryEngine(config, aggregate, backend=candidate)
    reference_stats = [QueryStats() for _ in range(n_profiles)]
    reference = [
        single(reference_engine, i, reference_stats[i])
        for i in range(n_profiles)
    ]
    single_stats = [QueryStats() for _ in range(n_profiles)]
    singles = [single(engine, i, single_stats[i]) for i in range(n_profiles)]
    assert singles == reference
    assert single_stats == reference_stats
    batch_stats = [QueryStats() for _ in range(n_profiles)]
    batched = batch(engine, batch_stats)
    assert batched == reference
    assert batch_stats == reference_stats
    return reference


class TestBatchDifferential:
    @pytest.mark.parametrize("aggregate_name", AGGREGATE_NAMES)
    @pytest.mark.parametrize(
        "sort_type,extra", SORT_CASES, ids=[case[0].value for case in SORT_CASES]
    )
    def test_topk_batch_matches_singles(
        self, config, rng, make_zipf, aggregate_name, sort_type, extra
    ):
        aggregate = get_aggregate(aggregate_name)
        zipf = make_zipf(200, seed=rng.randrange(2**32))
        for _ in range(4):
            profiles = _batch_profiles(rng, aggregate, zipf)
            time_range = random_time_range(rng)
            slot = rng.choice((1, 2))
            type_id = rng.choice((None, 1, 2, 3))
            k = rng.randrange(1, 50)
            descending = rng.random() < 0.8
            assert_batch_matches_singles(
                config, aggregate,
                lambda engine, i, stats: engine.top_k(
                    profiles[i], slot, type_id, time_range, sort_type, k,
                    now_ms=NOW, descending=descending, stats=stats, **extra,
                ),
                lambda engine, stats_list: engine.top_k_batch(
                    profiles, slot, type_id, time_range, sort_type, k,
                    now_ms=NOW, descending=descending,
                    stats_list=stats_list, **extra,
                ),
                len(profiles),
            )

    @pytest.mark.parametrize("aggregate_name", AGGREGATE_NAMES)
    def test_filter_batch_matches_singles(self, config, rng, aggregate_name):
        aggregate = get_aggregate(aggregate_name)
        for _ in range(4):
            profiles = _batch_profiles(rng, aggregate)
            time_range = random_time_range(rng)
            slot = rng.choice((1, 2))
            type_id = rng.choice((None, 1, 2, 3))
            threshold = rng.randrange(-10, 25)
            predicate = lambda stat: stat.total() > threshold  # noqa: E731
            assert_batch_matches_singles(
                config, aggregate,
                lambda engine, i, stats: engine.filter(
                    profiles[i], slot, type_id, time_range, predicate,
                    now_ms=NOW, stats=stats,
                ),
                lambda engine, stats_list: engine.filter_batch(
                    profiles, slot, type_id, time_range, predicate,
                    now_ms=NOW, stats_list=stats_list,
                ),
                len(profiles),
            )

    @pytest.mark.parametrize("aggregate_name", AGGREGATE_NAMES)
    @pytest.mark.parametrize(
        "decay_fn,factor",
        [
            (exponential_decay, 7 * MILLIS_PER_DAY),
            (linear_decay, 30 * MILLIS_PER_DAY),
            (step_decay, 10 * MILLIS_PER_DAY),
        ],
        ids=["exponential", "linear", "step"],
    )
    def test_decay_batch_matches_singles(
        self, config, rng, aggregate_name, decay_fn, factor
    ):
        aggregate = get_aggregate(aggregate_name)
        for _ in range(3):
            profiles = _batch_profiles(rng, aggregate)
            time_range = random_time_range(rng)
            slot = rng.choice((1, 2))
            type_id = rng.choice((None, 1, 2, 3))
            k = rng.choice((None, rng.randrange(1, 30)))
            sort_attribute = rng.choice((None, "share"))
            assert_batch_matches_singles(
                config, aggregate,
                lambda engine, i, stats: engine.decay(
                    profiles[i], slot, type_id, time_range, decay_fn,
                    factor, now_ms=NOW, k=k, sort_attribute=sort_attribute,
                    stats=stats,
                ),
                lambda engine, stats_list: engine.decay_batch(
                    profiles, slot, type_id, time_range, decay_fn, factor,
                    now_ms=NOW, k=k, sort_attribute=sort_attribute,
                    stats_list=stats_list,
                ),
                len(profiles),
            )

    @pytest.mark.parametrize("aggregate_name", AGGREGATE_NAMES)
    @pytest.mark.parametrize(
        "sort_type,extra", SORT_CASES, ids=[case[0].value for case in SORT_CASES]
    )
    def test_one_profile_batch_matches_reference(
        self, config, rng, make_zipf, aggregate_name, sort_type, extra
    ):
        """A batch of one runs without the pid column; every corpus, both
        directions, and cuts below, inside and beyond the result size."""
        aggregate = get_aggregate(aggregate_name)
        zipf = make_zipf(200, seed=rng.randrange(2**32))
        time_range = TimeRange.current(SPAN)
        for corpus in CORPORA:
            profiles = [corpus(rng, aggregate, zipf)]
            for descending in (True, False):
                for k in (1, 7, 10_000):
                    assert_batch_matches_singles(
                        config, aggregate,
                        lambda engine, i, stats: engine.top_k(
                            profiles[i], 1, None, time_range, sort_type, k,
                            now_ms=NOW, descending=descending, stats=stats,
                            **extra,
                        ),
                        lambda engine, stats_list: engine.top_k_batch(
                            profiles, 1, None, time_range, sort_type, k,
                            now_ms=NOW, descending=descending,
                            stats_list=stats_list, **extra,
                        ),
                        1,
                    )

    @requires_numpy
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_one_guard_tripping_profile_falls_back_alone(
        self, config, rng, position
    ):
        """One overflow-prone profile in a multi-get: the batch-wide guard
        trips, every profile re-runs as a batch of one, and only the
        offender reaches the reference loop — results and QueryStats of
        all five still equal the reference."""
        from repro.core.kernels.numpy_backend import NumpyBackend
        from repro.core.kernels.python_backend import PythonBackend

        delegated = []

        class CountingReference(PythonBackend):
            def run_topk(self, profile, *args):
                delegated.append(profile)
                return super().run_topk(profile, *args)

        aggregate = get_aggregate("sum")
        backend = NumpyBackend()
        backend._reference = CountingReference()
        profiles = [zipf_corpus(rng, aggregate) for _ in range(4)]
        offender = overflow_corpus(rng, aggregate)
        profiles.insert(position, offender)
        stats_list = [QueryStats() for _ in profiles]
        batched = QueryEngine(config, aggregate, backend=backend).top_k_batch(
            profiles, 1, None, TimeRange.current(SPAN), SortType.TOTAL, 20,
            now_ms=NOW, stats_list=stats_list,
        )
        assert delegated == [offender]
        reference_engine = QueryEngine(config, aggregate, backend="python")
        for profile, results, stats in zip(profiles, batched, stats_list):
            reference_stats = QueryStats()
            assert results == reference_engine.top_k(
                profile, 1, None, TimeRange.current(SPAN), SortType.TOTAL, 20,
                now_ms=NOW, stats=reference_stats,
            )
            assert stats == reference_stats

    def test_udaf_batch_matches_singles(self, config, rng):
        """UDAF batches route through the reference loop on every backend."""

        def clipped_sum(left: int, right: int) -> int:
            return min(left + right, 100)

        for _ in range(3):
            profiles = _batch_profiles(rng, clipped_sum)
            time_range = random_time_range(rng)
            assert_batch_matches_singles(
                config, clipped_sum,
                lambda engine, i, stats: engine.top_k(
                    profiles[i], 1, None, time_range, SortType.TOTAL, 10,
                    now_ms=NOW, stats=stats,
                ),
                lambda engine, stats_list: engine.top_k_batch(
                    profiles, 1, None, time_range, SortType.TOTAL, 10,
                    now_ms=NOW, stats_list=stats_list,
                ),
                len(profiles),
            )

    @requires_numpy
    def test_batch_cross_backend_identical(self, config, rng, make_zipf):
        """numpy batch vs python batch: same bytes, same stats."""
        aggregate = get_aggregate("sum")
        zipf = make_zipf(200, seed=rng.randrange(2**32))
        for sort_type, extra in SORT_CASES:
            profiles = _batch_profiles(rng, aggregate, zipf)
            time_range = random_time_range(rng)
            k = rng.randrange(1, 40)

            def run(engine, stats_list):
                return engine.top_k_batch(
                    profiles, 1, None, time_range, sort_type, k,
                    now_ms=NOW, stats_list=stats_list, **extra,
                )

            reference_stats = [QueryStats() for _ in profiles]
            candidate_stats = [QueryStats() for _ in profiles]
            reference = run(
                QueryEngine(config, aggregate, backend="python"),
                reference_stats,
            )
            got = run(
                QueryEngine(config, aggregate, backend="numpy"),
                candidate_stats,
            )
            assert got == reference
            assert candidate_stats == reference_stats


# ----------------------------------------------------------------------
# Batch teeth: a broken batch kernel must be caught
# ----------------------------------------------------------------------


class TestBatchOracleTeeth:
    def _profiles(self, rng):
        aggregate = get_aggregate("sum")
        return [zipf_corpus(rng, aggregate) for _ in range(4)]

    def _assert_caught(self, config, rng, broken_backend):
        profiles = self._profiles(rng)
        with pytest.raises(AssertionError):
            assert_batch_matches_singles(
                config, get_aggregate("sum"),
                lambda engine, i, stats: engine.top_k(
                    profiles[i], 1, None, TimeRange.current(SPAN),
                    SortType.TOTAL, 20, now_ms=NOW, stats=stats,
                ),
                lambda engine, stats_list: engine.top_k_batch(
                    profiles, 1, None, TimeRange.current(SPAN),
                    SortType.TOTAL, 20, now_ms=NOW, stats_list=stats_list,
                ),
                len(profiles),
                candidate=broken_backend,
            )

    def test_catches_dropped_batch_results(self, config, rng):
        """Works on every backend: the planted bug drops one result."""
        from repro.core.kernels.python_backend import PythonBackend

        class DroppingBatchBackend(PythonBackend):
            name = "broken-batch-drop"

            def run_topk_batch(self, *args, **kwargs):
                out = super().run_topk_batch(*args, **kwargs)
                for results in out:
                    if results:
                        results.pop()  # the planted bug
                        break
                return out

        self._assert_caught(config, rng, DroppingBatchBackend())

    @requires_numpy
    def test_catches_wrong_batch_counts(self, config, rng):
        from repro.core.kernels.numpy_backend import NumpyBackend

        class OffByOneBatchKernel(NumpyBackend):
            name = "broken-batch-counts"

            def _reduce(self, columns, segments, pid_arr, agg, need_first_row):
                merged = super()._reduce(
                    columns, segments, pid_arr, agg, need_first_row
                )
                # The planted bug lives in the pid branch only: point
                # reads stay right, multi-gets do not.
                if merged is not None and pid_arr is not None:
                    merged.counts = merged.counts + 1
                return merged

        self._assert_caught(config, rng, OffByOneBatchKernel())

    @requires_numpy
    def test_catches_wrong_batch_order(self, config, rng):
        from repro.core.kernels.numpy_backend import NumpyBackend

        class NonDescendingBatchKernel(NumpyBackend):
            name = "broken-batch-order"

            def _finish(
                self, gathered, merged, ascending, k, descending, stats_list
            ):
                return super()._finish(
                    gathered, merged, ascending, k, False,  # the planted bug
                    stats_list,
                )

        self._assert_caught(config, rng, NonDescendingBatchKernel())

    @requires_numpy
    def test_catches_wrong_batch_stats(self, config, rng):
        from repro.core.kernels.numpy_backend import NumpyBackend

        class UndercountingBatchKernel(NumpyBackend):
            name = "broken-batch-stats"

            def run_topk_batch(self, *args, **kwargs):
                stats_list = args[-1] if args else kwargs["stats_list"]
                out = super().run_topk_batch(*args, **kwargs)
                for stats in stats_list:
                    if stats is not None and stats.features_merged:
                        stats.features_merged -= 1  # the planted bug
                return out

        self._assert_caught(config, rng, UndercountingBatchKernel())


# ----------------------------------------------------------------------
# Compaction folds: whole-profile equivalence
# ----------------------------------------------------------------------


def profile_snapshot(profile):
    """Full structural fingerprint of a profile's slices and stats."""
    out = []
    for profile_slice in profile.slices:
        slots = {}
        for slot, instance_set in profile_slice.slots_items():
            slots[slot] = {
                type_id: sorted(
                    (stat.fid, tuple(stat.counts), stat.last_timestamp_ms,
                     stat.fid_index)
                    for stat in instance_set.features_for_type(type_id)
                )
                for type_id in instance_set.type_ids
            }
        out.append((profile_slice.start_ms, profile_slice.end_ms, slots))
    return out


@requires_numpy
class TestCompactionDifferential:
    @pytest.mark.parametrize("aggregate_name", AGGREGATE_NAMES)
    @pytest.mark.parametrize(
        "corpus", CORPORA, ids=CORPUS_IDS
    )
    def test_fold_identical(self, rng, aggregate_name, corpus):
        aggregate = get_aggregate(aggregate_name)
        seed = rng.randrange(2**32)
        import random as _random

        reference_profile = corpus(_random.Random(seed), aggregate)
        columnar_profile = corpus(_random.Random(seed), aggregate)
        assert profile_snapshot(reference_profile) == profile_snapshot(
            columnar_profile
        )

        time_dimension = TimeDimensionConfig.production_default()
        columnar_backend = type(get_backend("numpy"))()
        columnar_backend.fold_min_features = 0  # force the columnar fold
        reference_stats = Compactor(
            time_dimension, aggregate, backend="python"
        ).compact(reference_profile, NOW)
        columnar_stats = Compactor(
            time_dimension, aggregate, backend=columnar_backend
        ).compact(columnar_profile, NOW)

        assert profile_snapshot(columnar_profile) == profile_snapshot(
            reference_profile
        )
        assert columnar_stats == reference_stats
        assert (
            columnar_profile.memory_bytes() == reference_profile.memory_bytes()
        )


# ----------------------------------------------------------------------
# Teeth: the oracle must catch a broken kernel
# ----------------------------------------------------------------------


@requires_numpy
class TestOracleTeeth:
    def _profile(self, rng):
        return zipf_corpus(rng, get_aggregate("sum"))

    def _run(self, profile):
        def run(engine, stats):
            return engine.top_k(
                profile, 1, None, TimeRange.current(SPAN), SortType.TOTAL,
                20, now_ms=NOW, stats=stats,
            )

        return run

    def test_catches_wrong_counts(self, config, rng):
        from repro.core.kernels.numpy_backend import NumpyBackend

        class OffByOneKernel(NumpyBackend):
            name = "broken-counts"

            def _reduce(self, columns, segments, pid_arr, agg, need_first_row):
                merged = super()._reduce(
                    columns, segments, pid_arr, agg, need_first_row
                )
                if merged is not None and merged.counts.size:
                    merged.counts = merged.counts + 1  # the planted bug
                return merged

        profile = self._profile(rng)
        with pytest.raises(AssertionError):
            assert_backends_agree(
                config, get_aggregate("sum"), self._run(profile),
                candidate=OffByOneKernel(),
            )

    def test_catches_wrong_stats(self, config, rng):
        from repro.core.kernels.numpy_backend import NumpyBackend

        class UndercountingKernel(NumpyBackend):
            name = "broken-stats"

            @staticmethod
            def _commit_stats(stats, slices_scanned, n_rows, results):
                if stats is not None:
                    stats.slices_scanned += slices_scanned
                    stats.features_merged += max(0, n_rows - 1)
                    stats.results_returned = len(results)

        profile = self._profile(rng)
        with pytest.raises(AssertionError):
            assert_backends_agree(
                config, get_aggregate("sum"), self._run(profile),
                candidate=UndercountingKernel(),
            )


# ----------------------------------------------------------------------
# Backend selection (runs with or without numpy)
# ----------------------------------------------------------------------


class TestBackendSelection:
    def test_python_always_available(self):
        assert "python" in available_backends()
        assert get_backend("python").name == "python"

    def test_auto_resolves_to_available(self):
        assert get_backend("auto").name in available_backends()
        assert get_backend(None).name == default_backend_name()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            get_backend("cuda")

    def test_instance_passthrough(self):
        backend = get_backend("python")
        assert get_backend(backend) is backend

    def test_config_field_selects_backend(self):
        config = TableConfig(
            name="t", attributes=ATTRIBUTES, kernel_backend="python"
        )
        engine = QueryEngine(config, get_aggregate("sum"))
        assert engine.backend.name == "python"

    def test_disable_env_forces_python(self, monkeypatch):
        monkeypatch.setenv("IPS_KERNEL_DISABLE_NUMPY", "1")
        assert available_backends() == ("python",)
        assert get_backend(None).name == "python"
        with pytest.raises(ConfigError):
            get_backend("numpy")

    @requires_numpy
    def test_env_override_picks_python(self, monkeypatch):
        monkeypatch.setenv("IPS_KERNEL_BACKEND", "python")
        assert default_backend_name() == "python"
        assert get_backend(None).name == "python"

    @requires_numpy
    def test_numpy_selectable_when_available(self):
        assert get_backend("numpy").name == "numpy"
