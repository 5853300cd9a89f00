"""The paired-run summary of scripts/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [0.70, 0.68, 0.69, 0.71, 0.68, 0.70, 0.69, 0.72, 0.68, 0.70]


def test_a_change_that_wins_nine_pairs_by_more_than_the_iqr_may_claim():
    change = [0.62, 0.61, 0.63, 0.62, 0.69, 0.60, 0.62, 0.63, 0.61, 0.62]
    summary = bench_pairs.summarize(PARENT, change, "lower")
    assert (summary["wins"], summary["losses"]) == (9, 1)
    assert summary["parent"] == pytest.approx((0.6825, 0.695, 0.70))
    assert summary["parent_iqr"] == pytest.approx(0.0175)
    assert summary["change"][1] == pytest.approx(0.62)
    assert summary["gain"] == pytest.approx(0.075)
    assert summary["claim"]


def test_eight_wins_or_a_gain_inside_the_iqr_may_not_claim():
    eight = [0.62, 0.61, 0.63, 0.62, 0.69, 0.60, 0.62, 0.73, 0.61, 0.62]
    assert bench_pairs.summarize(PARENT, eight, "lower")["wins"] == 8
    assert not bench_pairs.summarize(PARENT, eight, "lower")["claim"]
    close = [p - 0.001 for p in PARENT]  # wins every pair by less than the IQR
    summary = bench_pairs.summarize(PARENT, close, "lower")
    assert summary["wins"] == 10 and not summary["claim"]


def test_ties_count_for_neither_side_and_higher_is_better_flips_the_sign():
    summary = bench_pairs.summarize([0.9, 0.8, 0.7], [0.9, 0.9, 0.6], "higher")
    assert (summary["wins"], summary["losses"]) == (1, 1)
    assert summary["gain"] == pytest.approx(0.1)
    with pytest.raises(ValueError, match="runs"):
        bench_pairs.summarize([1.0], [1.0, 2.0], "lower")
