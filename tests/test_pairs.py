"""Summary arithmetic of tools/pairs.py on fixed numbers."""

import importlib.util
import os

import pytest

PAIRS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "pairs.py")


def _load_pairs():
    spec = importlib.util.spec_from_file_location("tools_pairs", PAIRS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summarize_fixed_numbers():
    summarize = _load_pairs().summarize
    base = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [6.0, 5.0, 11.0, 7.0, 8.0]
    row = summarize(base, change, "lower")
    # inclusive quartiles of 10..14: 11 and 13
    assert row["base_median"] == 12.0
    assert row["base_quartiles"] == [11.0, 13.0]
    assert row["base_iqr"] == 2.0
    assert row["change_median"] == 7.0
    assert row["change_quartiles"] == [6.0, 8.0]
    assert row["relative"] == pytest.approx(7.0 / 12.0 - 1.0)
    # the tie on the third pair counts for neither side
    assert (row["wins"], row["pairs"]) == (4, 5)
    assert not row["gain"]  # 4 of 5 wins is below nine tenths
    assert summarize(base[:2] + base[3:], change[:2] + change[3:], "lower")["gain"]
    # "higher" flips the direction: the same numbers are all losses
    flipped = summarize(base, change, "higher")
    assert flipped["wins"] == 0 and not flipped["gain"]
    with pytest.raises(ValueError):
        summarize(base, change[:3], "lower")


def _run(solve_s, failed, attempted=100, rounds=1):
    metrics = {"solve_s": {"value": solve_s, "unit": "s"}}
    return {"returncode": 0, "env": {"solve_s": [solve_s] * rounds},
            "result": {"correct": True, "failed": failed,
                       "attempted": attempted, "metrics": metrics}}


def test_crashes_and_failures_withhold_the_gain():
    pairs = _load_pairs()
    # a crashed change run loses its pair and stays out of the quartiles
    row = pairs.summarize([10.0, 11.0, 12.0], [5.0, None, 6.0], "lower")
    assert (row["wins"], row["pairs"]) == (2, 3)
    assert row["change_median"] == 5.5 and not row["gain"]
    none_ran = pairs.summarize([10.0, 11.0], [None, None], "lower")
    assert none_ran["wins"] == 0 and none_ran["relative"] is None and not none_ran["gain"]

    meta = {"workloads": ["w"]}
    directions = {"solve_s": "lower"}

    def report(change_failed, change_attempted=100):
        runs = [{"workload": "w", "seed": s, "base": _run(10.0 + s, 1),
                 "change": _run(5.0 + s, change_failed, change_attempted)}
                for s in range(10)]
        return pairs.build_report(meta, runs, directions)["summary"]["w"]

    assert report(1)["metrics"]["solve_s"]["gain"]
    # more failures per operation than the base: no gain, however fast
    worse = report(2)
    assert worse["change"]["failed_share"] == 0.02 and worse["base"]["failed_share"] == 0.01
    assert not worse["metrics"]["solve_s"]["gain"]
    # more failures over proportionally more operations is the same share
    assert report(3, 300)["metrics"]["solve_s"]["gain"]
    # a base crash drops the pair; a change crash counts as a lost pair
    runs = [{"workload": "w", "seed": 0, "base": {"returncode": 1}, "change": _run(5.0, 0)},
            {"workload": "w", "seed": 1, "base": _run(10.0, 0), "change": {"returncode": 1}},
            {"workload": "w", "seed": 2, "base": _run(10.0, 0), "change": _run(5.0, 0)}]
    rows = pairs.build_report(meta, runs, directions)["summary"]["w"]
    assert rows["base_crashed"] == 1 and rows["change"]["crashed"] == 1
    assert (rows["metrics"]["solve_s"]["wins"], rows["metrics"]["solve_s"]["pairs"]) == (1, 2)


def test_round_counts_are_reported_and_mismatches_flagged():
    pairs = _load_pairs()
    runs = [{"workload": "w", "seed": 7, "base": _run(10.0, 0, rounds=1),
             "change": _run(5.0, 0, rounds=2)},
            {"workload": "w", "seed": 8, "base": _run(10.0, 0, rounds=3),
             "change": _run(5.0, 0, rounds=3)},
            {"workload": "w", "seed": 9, "base": _run(10.0, 0, rounds=1),
             "change": {"returncode": 1}}]
    rows = pairs.build_report({"workloads": ["w"]}, runs, {"solve_s": "lower"})["summary"]["w"]
    assert rows["base"]["rounds"] == [1, 3, 1]
    # a crashed change run has no round count and cannot differ
    assert rows["change"]["rounds"] == [2, 3]
    assert rows["rounds_differ"] == [7]


def test_failed_pairs_are_attributed_to_inputs():
    pairs = _load_pairs()
    stderr = [
        "contour-tight round 0: eigenpair lambda=12.47516387 failed: residual 6.667e-06 above target",
        "unrelated line",
        "contour-tight round 2: eigenpair lambda=20.01299688 failed: residual 4.077e-06 above target",
    ]
    assert pairs.failed_pairs(stderr) == [[0, "lambda=12.47516387"], [2, "lambda=20.01299688"]]

    def run(rounds, failed):
        record = _run(5.0, len(failed), rounds=rounds)
        record["failed_pairs"] = failed
        return record

    runs = [
        # seed 1: both sides ran rounds 0-1, the change also round 2
        {"workload": "w", "seed": 1, "base": run(2, [[0, "a"], [1, "b"]]),
         "change": run(3, [[0, "a"], [2, "c"]])},
        # seed 2: only the base ran round 1
        {"workload": "w", "seed": 2, "base": run(2, [[1, "d"]]), "change": run(1, [])},
        # a crashed change run has no inputs to compare
        {"workload": "w", "seed": 3, "base": run(1, [[0, "e"]]), "change": {"returncode": 1}},
    ]
    rows = pairs.build_report({"workloads": ["w"]}, runs, {"solve_s": "lower"})["summary"]["w"]
    assert rows["failed_pairs"] == {
        "same_inputs": {"base": [[1, 0, "a"], [1, 1, "b"]], "change": [[1, 0, "a"]]},
        "one_side": {"base": [[2, 1, "d"]], "change": [[1, 2, "c"]]},
    }


def test_same_input_failed_share_counts_shared_rounds_only():
    pairs = _load_pairs()

    def run(node_failures, failed_pairs, wanted=4, solves=10):
        rounds = len(node_failures)
        record = _run(5.0, sum(node_failures) + len(failed_pairs),
                      attempted=rounds * (solves + wanted), rounds=rounds)
        record["env"]["rounds"] = [{"node_solves": solves, "node_failures": f}
                                   for f in node_failures]
        record["failed_pairs"] = failed_pairs
        return record

    runs = [
        # both sides ran rounds 0-1; the change's round 2 (two failed node
        # solves and a failed eigenpair) solved inputs the base never saw
        {"workload": "w", "seed": 1, "base": run([1, 0], [[0, "a"], [1, "b"]]),
         "change": run([0, 0, 2], [[0, "a"], [2, "c"]])},
        {"workload": "w", "seed": 2, "base": run([0], [[0, "d"]]), "change": {"returncode": 1}},
    ]
    rows = pairs.build_report({"workloads": ["w"]}, runs, {"solve_s": "lower"})["summary"]["w"]
    # each side attempted 2 x (10 node solves + 4 wanted pairs) on the shared rounds
    assert rows["base"]["same_input_failed_share"] == pytest.approx(3 / 28)
    assert rows["change"]["same_input_failed_share"] == pytest.approx(1 / 28)
    # the whole-run share counts the change's extra round
    assert rows["change"]["failed_share"] == pytest.approx(4 / 42)
