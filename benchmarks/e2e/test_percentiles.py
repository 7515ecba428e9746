"""Nearest-rank percentiles and the sample-count rule."""

import statistics

import pytest

from percentiles import percentile, relative_iqr, supported


def test_nearest_rank_is_ceil_of_f_times_n():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile(values, 0.001) == 1
    # 0.07 * 100 is 7.000000000000001 in binary floating point
    assert percentile(values, 0.07) == 7
    assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0
    assert percentile([4.0], 0.99) == 4.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_ten_samples_beyond_the_percentile():
    assert supported(1000, 0.99)
    assert not supported(999, 0.99)
    assert supported(20, 0.50)
    assert not supported(19, 0.50)


def test_relative_iqr_matches_statistics_quantiles():
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert relative_iqr(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert relative_iqr([1.0]) is None
