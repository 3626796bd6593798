import math

import pytest

import metrics


@pytest.mark.parametrize("n", [21, 22, 34, 50, 123])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    values = [float(i) for i in range(n)][::-1]
    value, pct, count = metrics.tail(values)
    assert count == n
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * (n - 11) / (n - 1))


def test_tail_of_50_cells_is_the_40th():
    value, pct, _ = metrics.tail(range(1, 51))
    assert value == 40
    assert pct == pytest.approx(100 * 39 / 49)


@pytest.mark.parametrize("n", [1, 5, 10, 12, 20])
def test_tail_below_the_median_is_the_maximum(n):
    assert metrics.tail(range(n)) == (n - 1, 100.0, n)


def test_tail_of_nothing_raises():
    with pytest.raises(ValueError):
        metrics.tail([])


def test_failed_frac():
    assert metrics.failed_frac(0, 34) == 0.0
    assert metrics.failed_frac(3, 50) == 0.06
    with pytest.raises(ValueError):
        metrics.failed_frac(0, 0)


def test_aa_log_spread_is_median_absolute_log_ratio():
    base = {"a": 1.0, "b": 2.0, "c": 4.0, "only_base": 9.0}
    other = {"a": 2.0, "b": 2.0, "c": 2.0, "only_other": 1.0}
    assert metrics.aa_log_spread(base, other) == pytest.approx(math.log(2))
    assert metrics.aa_log_spread(other, base) == pytest.approx(math.log(2))
    assert metrics.aa_log_spread(base, base) == 0.0


def test_aa_log_spread_needs_a_shared_cell():
    with pytest.raises(ValueError):
        metrics.aa_log_spread({"a": 1.0}, {"b": 1.0})


def test_cv():
    assert metrics.cv([2.0, 2.0, 2.0]) == 0.0
    assert metrics.cv([1.0, 3.0]) == pytest.approx(math.sqrt(2) / 2)
    assert metrics.cv([5.0]) == 0.0


def test_covered_merges_overlaps_and_nesting():
    assert metrics.covered([]) == 0.0
    assert metrics.covered([(0, 1), (2, 4)]) == 3
    assert metrics.covered([(0, 5), (1, 2), (4, 7), (9, 10)]) == 8


def _span(sid, start, end, parent=None):
    return {"id": sid, "name": sid, "start": start, "end": end, "parent": parent,
            "attrs": {}}


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [_span("p", 0, 10), _span("a", 1, 3, "p"), _span("b", 2, 5, "p"),
             _span("c", 9, 12, "p"), _span("g", 1, 2, "a")]
    own = metrics.self_times(spans)
    assert own["p"] == pytest.approx(10 - 4 - 1)
    assert own["a"] == pytest.approx(1)
    assert own["b"] == own["c"] == 3
    assert own["g"] == 1


def test_quartile_spread():
    assert metrics.quartile_spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    assert metrics.quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
