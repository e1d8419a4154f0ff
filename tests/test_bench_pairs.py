"""The summary of tools/bench_pairs.py on made-up records (no subprocess)."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.05},
]


def record(rss, ok, failed=0, attempted=8):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "ok_frac": {"value": ok, "unit": "ratio"},
        },
    }


def test_summary_counts_pairs_by_direction():
    parent = [record(83.0, 1.0), record(84.0, 1.0), record(82.0, 1.0), record(83.5, 0.5, 1)]
    change = [record(75.0, 1.0), record(85.0, 1.0), record(82.0, 0.5, 2, 6), record(75.5, 1.0)]
    out = bench_pairs.summary(parent, change, END_TO_END)
    rss = out["peak_rss_mb"]
    assert rss["parent_median"] == 83.25 and rss["change_median"] == 78.75
    assert rss["parent_quartiles"] == [82.75, 83.625]
    assert rss["change_quartiles"] == [75.375, 82.75]
    # lower is better: pairs 1 and 4 won, 2 lost, 3 tied
    assert (rss["change_better_pairs"], rss["change_worse_pairs"], rss["pairs"]) == (2, 1, 4)
    assert rss["parent_runs"] == [83.0, 84.0, 82.0, 83.5]
    ok = out["ok_frac"]
    # higher is better: pair 3 lost, pair 4 won
    assert (ok["change_better_pairs"], ok["change_worse_pairs"]) == (1, 1)
    assert out["failed_ops"] == {
        "parent": 1, "change": 2, "attempted_parent": 32, "attempted_change": 30
    }


def test_summary_needs_every_metric():
    with pytest.raises(KeyError):
        bench_pairs.summary([record(1.0, 1.0)], [{"metrics": {}}], END_TO_END)
