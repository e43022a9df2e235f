"""Tests for percentile/time-series metric primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.metrics import TimeSeries, percentile


class TestPercentile:
    def test_single_sample(self):
        assert percentile([5.0], 50) == 5.0

    def test_median_of_odd_list(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 50) == 5.0

    def test_extremes(self):
        data = [float(value) for value in range(100)]
        assert percentile(data, 0) == 0.0
        assert percentile(data, 100) == 99.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200),
        st.floats(min_value=0, max_value=100),
    )
    def test_result_within_sample_range(self, samples, q):
        result = percentile(samples, q)
        assert min(samples) <= result <= max(samples)


class TestTimeSeries:
    def test_append_and_aggregate(self):
        series = TimeSeries("qps")
        series.append(0, 10.0)
        series.append(1000, 20.0)
        assert len(series) == 2
        assert series.min() == 10.0
        assert series.max() == 20.0
        assert series.mean() == 15.0
        assert series.values() == [10.0, 20.0]
