import pytest

from e2e.stats import P99_MIN_SAMPLES, p50, percentile, supports_p99


def test_nearest_rank_percentiles():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert p50([3.0, 1.0, 2.0]) == 2.0


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p99_needs_ten_samples_beyond_it():
    assert not supports_p99(P99_MIN_SAMPLES - 1)
    assert supports_p99(P99_MIN_SAMPLES)
    samples = [float(i) for i in range(P99_MIN_SAMPLES)]
    tail = percentile(samples, 99)
    assert tail == 989.0
    assert sum(1 for s in samples if s > tail) == 10
