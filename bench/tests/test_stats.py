import math
from fractions import Fraction

import pytest

from bench import stats


def test_median_odd_even():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]  # 1..100
    assert stats.percentile(values, 50) == 50.0
    assert stats.percentile(values, 99) == 99.0
    assert stats.percentile(values, 100) == 100.0
    assert stats.percentile([5.0], 99.9) == 5.0
    with pytest.raises(ValueError):
        stats.percentile(values, 0)


@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    pct = stats.tail_percentile(count)
    assert pct == expected
    if pct is not None:
        rank = math.ceil(Fraction(str(pct)) * count / 100)
        assert count - rank >= stats.TAIL_MIN_BEYOND


def test_spread_is_iqr_over_median():
    assert stats.spread([1.0]) == 0.0
    assert stats.spread([2.0, 2.0, 2.0, 2.0]) == 0.0
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, q3 = 1.5, 4.5  # statistics.quantiles' default (exclusive) method
    assert stats.spread(values) == pytest.approx((q3 - q1) / 3.0)
