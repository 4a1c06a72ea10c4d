"""The summary arithmetic of tools/bench_pair.py, on canned numbers.

Nothing here runs the benchmark.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)


def test_summary_of_a_lower_is_better_metric():
    parent = [9.0, 8.0, 10.0, 9.5, 8.5]
    change = [7.0, 8.5, 7.5, 7.2, 8.4]
    s = bench_pair.summarize("ms", "lower", parent, change)
    assert s["unit"] == "ms"
    assert s["parent"] == {"q1": 8.5, "median": 9.0, "q3": 9.5, "runs": parent}
    assert s["change"] == {"q1": 7.2, "median": 7.5, "q3": 8.4, "runs": change}
    assert s["change_better_in_pairs"] == 4  # pair 1 went the other way
    assert s["median_change_pct"] == -16.7  # 9.0 -> 7.5


def test_summary_of_a_higher_is_better_metric_and_ties():
    s = bench_pair.summarize("1/s", "higher", [100.0, 100.0, 90.0], [110.0, 100.0, 80.0])
    assert s["change_better_in_pairs"] == 1  # a tie is no win
    assert s["median_change_pct"] == 0.0
    flat = bench_pair.summarize("ratio", "higher", [1.0, 1.0], [1.0, 1.0])
    assert flat["change_better_in_pairs"] == 0 and flat["median_change_pct"] == 0.0


def test_summary_rounds_to_six_places_and_handles_zero_medians():
    s = bench_pair.summarize("s", "lower", [0.1234567], [0.0])
    assert s["parent"] == {"q1": 0.123457, "median": 0.123457, "q3": 0.123457,
                           "runs": [0.123457]}
    assert s["median_change_pct"] == -100.0
    assert bench_pair.summarize("s", "lower", [0.0], [0.0])["median_change_pct"] == 0.0
    assert bench_pair.summarize("s", "lower", [0.0], [1.0])["median_change_pct"] is None


@pytest.mark.parametrize("parent, change, better", [
    ([1.0, 2.0], [1.0], "lower"),
    ([], [], "lower"),
    ([1.0], [1.0], "smaller"),
])
def test_summary_rejects_unpaired_runs_and_unknown_directions(parent, change, better):
    with pytest.raises(ValueError):
        bench_pair.summarize("ms", better, parent, change)


def report_of(summary, failed=(0, 0), correct=(True, True)):
    """A one-metric workload report around `summary`."""
    return {"metrics": {"op_ms.p50": summary},
            "failed": dict(zip(bench_pair.SIDES, failed)),
            "correct": dict(zip(bench_pair.SIDES, correct))}


def verdict(parent, change, **report):
    summary = bench_pair.summarize("ms", "lower", parent, change)
    return bench_pair.claim_verdict(report_of(summary, **report), "op_ms.p50", "lower")


def test_claim_verdict_needs_nine_in_ten_and_a_gap_beyond_the_spread():
    parent = [8.5, 8.4, 8.6, 8.5, 8.3, 8.7, 8.5, 8.4, 8.6, 8.5]
    change = [7.2, 7.3, 7.1, 7.2, 7.4, 7.2, 7.3, 7.1, 7.2, 8.9]
    assert verdict(parent, change) == (
        "met: the change wins 9 of 10 pairs; median 8.500 -> 7.200 ms "
        "(-15.3 %), a gap of 1.300 ms against a parent quartile spread of 0.150 ms")
    # Eight wins of ten are too few, however large the gap.
    assert verdict(parent, [9.0] + change[1:]).startswith(
        "not met: the change wins 8 of 10 pairs")
    # Ten wins by less than the parent's quartile spread are not enough either.
    wide = [8.0, 9.0, 8.0, 9.0, 8.0, 9.0, 8.0, 9.0, 8.0, 9.0]
    assert verdict(wide, [x - 0.1 for x in wide]).startswith(
        "not met: the change wins 10 of 10 pairs")


def test_claim_verdict_needs_ten_pairs_and_no_more_failures():
    parent = [8.5, 8.4, 8.6, 8.5, 8.3, 8.7, 8.5, 8.4, 8.6, 8.5]
    change = [x - 1.3 for x in parent]
    assert verdict(parent[:1], change[:1]) == (
        "not met: the change wins 1 of 1 pairs; median 8.500 -> 7.200 ms (-15.3 %), "
        "a gap of 1.300 ms against a parent quartile spread of 0.000 ms; "
        "fewer than 10 pairs")
    assert verdict(parent[:9], change[:9]).endswith("; fewer than 10 pairs")
    assert verdict(parent, change, failed=(2, 3)).endswith(
        "; the change failed 3 operations, the parent 2")
    assert verdict(parent, change, failed=(3, 2)).startswith("met: ")
    assert verdict(parent, change, correct=(True, False)).endswith(
        "; a change run failed its correctness gate")
    assert verdict(parent, change, correct=(False, True)).endswith(
        "; a parent run failed its correctness gate")


def test_claim_verdict_of_a_zero_parent_median():
    parent, change = [0.0] * 10, [1.0] * 10
    assert verdict(parent, change) == (
        "not met: the change wins 0 of 10 pairs; median 0.000 -> 1.000 ms (n/a), "
        "a gap of -1.000 ms against a parent quartile spread of 0.000 ms")


def test_workload_report_layout():
    declared = [{"name": "op_ms.p50", "unit": "ms", "better": "lower"},
                {"name": "ok_fraction", "unit": "ratio", "better": "higher"}]

    def run(p50, failed, correct=True):
        return {"correct": correct, "attempted": 100, "failed": failed,
                "metrics": {"op_ms.p50": p50, "ok_fraction": 1 - failed / 100}}

    runs = {"parent": [run(9.0, 0), run(8.0, 0)], "change": [run(7.0, 1), run(7.5, 0, False)]}
    report = bench_pair.workload_report(runs, declared)
    assert report["pairs"] == 2
    assert list(report["metrics"]) == ["op_ms.p50", "ok_fraction"]
    assert report["metrics"]["op_ms.p50"]["change_better_in_pairs"] == 2
    assert report["metrics"]["ok_fraction"]["change_better_in_pairs"] == 0
    assert report["failed"] == {"parent": 0, "change": 1}
    assert report["attempted"] == {"parent": 200, "change": 200}
    assert report["correct"] == {"parent": True, "change": False}


def test_parse_run_reads_the_last_line():
    stdout = ("op_ms.p50    8.1 ms\n# worker wall time: 25.3 s\n"
              + json.dumps({"correct": True, "attempted": 3000, "failed": 0,
                            "metrics": {"op_ms.p50": {"value": 8.1, "unit": "ms"}}}) + "\n")
    assert bench_pair.parse_run(stdout) == {"correct": True, "attempted": 3000, "failed": 0,
                                            "metrics": {"op_ms.p50": 8.1}}
    with pytest.raises(ValueError):
        bench_pair.parse_run("")


def test_bench_15_medians_agree_with_the_summary():
    # The hand-written BENCH_15.json used the same quartile method.
    bench = json.loads((TOOL.parent.parent / "BENCH_15.json").read_text())
    m = bench["workloads"]["cover-search"]["metrics"]["op_ms.p50"]
    s = bench_pair.summarize("ms", "lower", m["parent"]["runs"], m["change"]["runs"])
    for side in ("parent", "change"):
        assert s[side] == pytest.approx(m[side], abs=2e-6)
    assert s["change_better_in_pairs"] == m["change_better_in_pairs"]
    assert s["median_change_pct"] == m["median_change_pct"]
