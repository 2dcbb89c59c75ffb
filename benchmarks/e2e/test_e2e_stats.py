"""The compare verdict rule and the percentile sample-size rule."""

import statistics

import pytest

from stats import fails_more, percentile, summarize, verdict

BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_summary_uses_statistics_quantiles():
    q1, _, q3 = statistics.quantiles(BASE, n=4)
    s = summarize(BASE)
    assert (s["q1"], s["q3"], s["n"]) == (q1, q3, 10)
    assert s["median"] == statistics.median(BASE)


def test_gain_needs_nine_of_ten_pairs_and_a_move_beyond_base_iqr():
    head = [x - 1.0 for x in BASE]
    assert verdict(BASE, head, "lower", 0.1)["verdict"] == "gain"
    # Two pairs lost: 8 of 10 is not enough, whatever the medians say.
    mixed = head[:8] + [BASE[8] + 1, BASE[9] + 1]
    v = verdict(BASE, mixed, "lower", 0.1)
    assert (v["won"], v["lost"]) == (8, 2)
    assert v["verdict"] != "gain"


def test_winning_every_pair_by_less_than_the_iqr_is_no_gain():
    head = [x - 0.01 for x in BASE]
    v = verdict(BASE, head, "lower", 0.1)
    assert v["won"] == 10
    assert v["verdict"] == "unchanged"


def test_higher_is_better_flips_the_direction():
    head = [x + 1.0 for x in BASE]
    assert verdict(BASE, head, "higher", 0.1)["verdict"] == "gain"
    assert verdict(BASE, head, "lower", 0.05)["verdict"] == "regression"


def test_regression_is_a_median_worse_by_more_than_the_bound():
    assert verdict(BASE, [x * 1.12 for x in BASE], "lower", 0.1)["verdict"] == "regression"
    assert verdict(BASE, [x * 1.05 for x in BASE], "lower", 0.1)["verdict"] == "unchanged"


def test_any_increase_in_failures_is_a_regression():
    clean = [(0, 100)] * 10
    assert not fails_more(clean, clean)
    # One failing run in ten is enough: the shares pool every run.
    assert fails_more(clean, [(0, 100)] * 9 + [(1, 100)])
    assert not fails_more([(1, 100)] + [(0, 100)] * 9, clean)


def test_no_gain_when_head_failed_more():
    head = [x - 1.0 for x in BASE]
    assert verdict(BASE, head, "lower", 0.1, allow_gain=False)["verdict"] == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(BASE, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert verdict(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"


def test_unresolved_yields_when_every_head_run_beats_every_base_run():
    # Base spread 2.25 / 12 exceeds the bound; the head's move (2.05)
    # stays inside the base IQR, so it is no gain either.
    base = [10.0, 14.0, 11.0, 13.0, 12.0, 10.5, 13.5, 11.5, 12.5, 12.0]
    assert verdict(base, [9.95] * 10, "lower", 0.1)["verdict"] == "unchanged"
    assert verdict(base, [9.95] * 9 + [10.2], "lower", 0.1)["verdict"] == "unresolved"


@pytest.mark.parametrize("n, supported", [(999, False), (1000, True), (2000, True)])
def test_p99_needs_ten_samples_beyond_it(n, supported):
    values = list(range(n))
    assert (percentile(values, 0.99) is not None) is supported


def test_p50_and_failures_sort_last():
    values = [1.0] * 30 + [float("inf")] * 5
    assert percentile(values, 0.5) == 1.0
    assert percentile([float(i) for i in range(1, 21)], 0.5) == 10.0
    with pytest.raises(ValueError):
        percentile(values, 1.0)
