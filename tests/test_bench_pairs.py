"""The statistics of scripts/bench_pairs.py, on fixed numbers and with no
subprocess."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_pairs(monkeypatch):
    """scripts/bench_pairs.py, imported without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles_interpolate_as_numpys_percentile(bench_pairs):
    q = bench_pairs.quartiles([6.0, 1.0, 5.0, 2.0, 4.0, 3.0])
    assert (q["q1"], q["median"], q["q3"]) == (2.25, 3.5, 4.75)
    q = bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (q["q1"], q["median"], q["q3"]) == (2.0, 3.0, 4.0)
    q = bench_pairs.quartiles([7.0])
    assert (q["q1"], q["median"], q["q3"]) == (7.0, 7.0, 7.0)


def test_lower_is_better(bench_pairs):
    rev = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    new = [0.5, 1.5, 3.0, 3.0, 4.0, 6.5]  # won, won, tie, won, won, lost
    m = bench_pairs.compare(rev, new, "lower", 0.25)
    assert m["pairs"] == 6 and m["won"] == 4
    assert m["rev"]["samples"] == rev and m["new"]["median"] == 3.0
    assert m["median_gap"] == -0.5 and m["parent_iqr"] == 2.5
    assert not m["gap_exceeds_parent_iqr"]
    assert not m["worse_beyond_bound"]


def test_higher_is_better(bench_pairs):
    rev = [10.0, 10.0, 10.0, 11.0]
    new = [12.0, 12.0, 9.0, 12.0]
    m = bench_pairs.compare(rev, new, "higher", 0.1)
    assert m["won"] == 3
    assert m["median_gap"] == 2.0 and m["parent_iqr"] == 0.25
    assert m["gap_exceeds_parent_iqr"] and not m["worse_beyond_bound"]
    m = bench_pairs.compare(new, rev, "higher", 0.1)
    assert m["won"] == 1 and m["gap_exceeds_parent_iqr"] and m["worse_beyond_bound"]


def test_bound_is_a_fraction_of_the_parent_median(bench_pairs):
    rev = [1.0, 1.0, 1.0]
    assert not bench_pairs.compare(rev, [1.25] * 3, "lower", 0.25)["worse_beyond_bound"]
    assert bench_pairs.compare(rev, [1.26] * 3, "lower", 0.25)["worse_beyond_bound"]
    assert not bench_pairs.compare(rev, [0.5] * 3, "lower", 0.25)["worse_beyond_bound"]


def test_pairs_alternate_and_failed_runs_drop_their_pair(bench_pairs, monkeypatch):
    calls = []

    def run_side(side, workload, seconds):
        calls.append(side)
        value = float(len(calls))
        if len(calls) == 3:  # pair 2's first run ("new")
            return {"correct": False, "failed": None, "exit": 1, "error": "boom"}
        metrics = {"pipeline_s": {"value": value, "unit": "s"}}
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    declared = [{"name": "pipeline_s", "unit": "s", "better": "lower", "bound": 0.25}]
    doc = bench_pairs.bench_workload(
        {"rev": "rev", "new": "new"}, "hires-rays", 3, 1.0, declared
    )
    assert calls == ["rev", "new", "new", "rev", "rev", "new"]
    assert [(r["pair"], r["side"]) for r in doc["runs"]] == [
        (1, "rev"), (1, "new"), (2, "new"), (2, "rev"), (3, "rev"), (3, "new")
    ]
    m = doc["metrics"]["pipeline_s"]
    assert m["pairs"] == 2
    assert m["rev"]["samples"] == [1.0, 5.0] and m["new"]["samples"] == [2.0, 6.0]
    assert m["won"] == 0


def test_ratio_cancels_load_that_drifts_across_pairs(bench_pairs):
    # From pair 5 on, both sides run 2x slower; pair 4 straddles the slowdown
    # (its "new" run is already slow). Every other pair reads new / rev = 1.1.
    rev = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    new = [1.1 * x for x in rev]
    new[3] = 2.2
    m = bench_pairs.compare(rev, new, "lower", 0.25)
    assert m["rev"]["median"] == 1.0 and m["new"]["median"] == 2.2
    assert m["median_gap"] > 1.0 and m["worse_beyond_bound"]
    assert m["ratio"]["samples"] == [1.1, 1.1, 1.1, 2.2, 1.1, 1.1, 1.1]
    assert m["ratio"]["q1"] == m["ratio"]["median"] == m["ratio"]["q3"] == 1.1
