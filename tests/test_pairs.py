"""The pair summary of bench/pairs.py, on synthetic numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "pairs.py"


def _script():
    spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _script()

PARENT = [0.80, 0.82, 0.81, 0.83, 0.84, 0.80, 0.82, 0.85, 0.81, 0.83]


def test_a_clear_gain_meets_the_rule():
    change = [p - 0.1 for p in PARENT]
    s = pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 10 and s["pairs"] == 10
    assert s["parent"] == pytest.approx((0.81, 0.82, 0.83))
    assert s["change"] == pytest.approx((0.71, 0.72, 0.73))
    assert s["median_gain"] == pytest.approx(0.1)
    assert s["parent_iqr"] == pytest.approx(0.02)
    assert s["gain_rule"]


def test_ties_count_for_neither_side():
    change = list(PARENT)
    change[0] -= 0.5      # one win; the other nine pairs are ties
    s = pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 1
    assert not s["gain_rule"]


def test_eight_wins_of_ten_is_no_gain():
    change = [p - 0.1 for p in PARENT]
    change[3] = change[7] = 2.0
    s = pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 8
    assert s["median_gain"] > s["parent_iqr"]
    assert not s["gain_rule"]


def test_a_median_gain_inside_the_parent_spread_is_no_gain():
    change = [p - 0.005 for p in PARENT]
    s = pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 10
    assert s["median_gain"] == pytest.approx(0.005)
    assert not s["gain_rule"]


def test_higher_is_better_turns_the_comparison():
    change = [p + 0.1 for p in PARENT]
    up, down = pairs.summarize(PARENT, change, "higher"), pairs.summarize(PARENT, change, "lower")
    assert up["wins"] == 10 and up["gain_rule"]
    assert down["wins"] == 0 and down["median_gain"] == pytest.approx(-0.1)


def test_one_pair_and_mismatched_runs():
    s = pairs.summarize([1.0], [0.5], "lower")
    assert s["parent"] == (1.0, 1.0, 1.0) and s["wins"] == 1 and s["gain_rule"]
    with pytest.raises(ValueError):
        pairs.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        pairs.summarize([], [], "lower")
