"""`tests/ab.py`'s summary (spreads, pair ratios and wins by direction)
and its per-workload commands."""

import pytest

from ab import TRAIN_SECONDS_FACTOR, command, op_spread, spread, summarize


def _runs(values):
    return [{"metrics": {name: {"value": v, "unit": "u"}
                         for name, v in row.items()}} for row in values]


def test_spread_is_the_inclusive_quartiles():
    assert spread([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "iqr": 0.0}


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    runs = {"base": _runs([{"rss": 10.0, "tps": 10.0, "x": 1.0}] * 4),
            "work": _runs([{"rss": r, "tps": r, "x": 2.0}
                           for r in (8.0, 9.0, 10.0, 12.0)])}
    out = summarize(runs, {"rss": "lower", "tps": "higher"})
    assert out["rss"]["wins"] == 2 and out["tps"]["wins"] == 1
    assert out["x"]["wins"] is None and out["x"]["better"] is None
    assert out["rss"]["median_pair_ratio"] == pytest.approx(0.95)
    assert out["rss"]["base"]["iqr"] == 0.0 and out["rss"]["pairs"] == 4
    assert out["rss"]["unit"] == "u"


def test_a_zero_base_has_no_ratio():
    runs = {"base": _runs([{"failed": 0.0}] * 2),
            "work": _runs([{"failed": 0.0}] * 2)}
    assert summarize(runs, {})["failed"]["median_pair_ratio"] is None


def test_op_spread_counts_the_operations_and_spreads_their_seconds():
    assert op_spread([0.4, 0.1, 0.3, 0.2, 0.5]) == {
        "n": 5, "median": 0.3, "q1": 0.2, "q3": 0.4,
        "iqr": pytest.approx(0.2)}
    assert op_spread([]) == {"n": 0}


def test_train_runs_longer_than_the_other_workloads():
    assert command("stream", 1, 15.0) == [
        "perfbench/run.py", "--workload", "stream", "--seed", "1",
        "--seconds", "15.0"]
    assert command("train", 7, 15) == [
        "perfbench/run.py", "--workload", "train", "--seed", "7",
        "--seconds", repr(15.0 * TRAIN_SECONDS_FACTOR)]
