"""scripts/bench_pairs.py's summary of paired runs, on canned numbers."""

import importlib
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def bench_pairs():
    # the script imports bench_snapshot from its own directory
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(SCRIPTS))
        return importlib.import_module("bench_pairs")


PARENT = [0.80, 0.82, 0.81, 0.79, 0.83, 0.80, 0.84, 0.81, 0.82, 0.80]


def test_a_clear_gain_holds(bench_pairs):
    change = [p - 0.2 for p in PARENT]
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert (s["pairs"], s["wins"]) == (10, 10)
    # statistics.quantiles(n=4) of the parent: 0.8, 0.81, 0.8225
    assert s["parent"] == pytest.approx({"q1": 0.8, "median": 0.81, "q3": 0.8225})
    assert s["gain"] == pytest.approx(0.2)
    assert s["parent_iqr"] == pytest.approx(0.0225)
    assert s["rule_holds"]
    # the same numbers read as a metric where higher is better: lost everywhere
    s = bench_pairs.summarize(PARENT, change, "higher")
    assert s["wins"] == 0 and s["gain"] == pytest.approx(-0.2) and not s["rule_holds"]


def test_nine_wins_in_ten_is_enough_and_eight_is_not(bench_pairs):
    change = [p + 0.1 for p in PARENT]
    change[0] = PARENT[0] - 0.01
    assert bench_pairs.summarize(PARENT, change, "higher")["rule_holds"]
    change[1] = PARENT[1]  # a tie is no win
    s = bench_pairs.summarize(PARENT, change, "higher")
    assert s["wins"] == 8 and not s["rule_holds"]


def test_a_gain_inside_the_parent_spread_fails(bench_pairs):
    change = [p - 0.01 for p in PARENT]
    s = bench_pairs.summarize(PARENT, change, "lower")
    assert s["wins"] == 10
    assert s["gain"] == pytest.approx(0.01) and s["gain"] < s["parent_iqr"]
    assert not s["rule_holds"]


def test_one_pair_and_bad_input(bench_pairs):
    s = bench_pairs.summarize([2.0], [1.0], "lower")
    assert s["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert (s["wins"], s["parent_iqr"], s["rule_holds"]) == (1, 0.0, True)
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], "lower")
