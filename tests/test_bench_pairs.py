"""scripts/bench_pairs.py's summaries of paired runs, on canned numbers."""

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


def test_item_moves_name_the_items_that_moved_most(bench_pairs):
    # per_item_ms of three runs per side, as bench/run.py reports them;
    # seven items, so the cut at TOP_ITEMS (5) drops the two that moved least
    parent = [
        {"L(2)": 0.20, "L(37)": 2.0, "L(101)": 8.0, "L(5)": 0.5, "L(7)": 0.30, "L(9)": 0.40, "L(11)": 0.60},
        {"L(2)": 0.22, "L(37)": 2.2, "L(101)": 9.0, "L(5)": 0.5, "L(7)": 0.30, "L(9)": 0.40, "L(11)": 0.60},
        {"L(2)": 0.21, "L(37)": 2.1, "L(101)": 7.0, "L(5)": 0.5, "L(7)": 0.30, "L(9)": 0.40, "L(11)": 0.60},
    ]
    change = [
        {"L(2)": 0.21, "L(37)": 1.9, "L(101)": 6.0, "L(5)": 1.0, "L(7)": 0.33, "L(9)": 0.40, "L(11)": 0.57},
        {"L(2)": 0.21, "L(37)": 1.8, "L(101)": 6.5, "L(5)": 1.0, "L(7)": 0.33, "L(9)": 0.40, "L(11)": 0.57},
        {"L(2)": 0.21, "L(37)": 1.7, "L(101)": 6.4, "L(5)": 1.0, "L(7)": 0.33, "L(9)": 0.40, "L(11)": 0.57},
    ]
    assert bench_pairs.TOP_ITEMS == 5
    moves = bench_pairs.item_moves(parent, change)
    # L(5) doubled: a larger move than L(101)'s 8 -> 6.4, the largest fall;
    # L(2) (0.21 -> 0.21) and L(9) (unchanged) are cut
    assert [m[0] for m in moves] == ["L(5)", "L(101)", "L(37)", "L(7)", "L(11)"]
    assert moves[0] == pytest.approx(("L(5)", 0.5, 1.0, 2.0))
    assert moves[1][1:] == pytest.approx((8.0, 6.4, 0.8))
    assert moves[2][1:] == pytest.approx((2.1, 1.8, 1.8 / 2.1))
    assert moves[3][1:] == pytest.approx((0.30, 0.33, 1.1))
    assert moves[4][1:] == pytest.approx((0.60, 0.57, 0.95))
