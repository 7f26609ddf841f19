import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from oodsynth.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pair_stats_of_a_lower_is_better_metric(bench_pairs):
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [9.0, 11.5, 11.0, 12.0, 10.0]
    got = bench_pairs.pair_stats(parent, change, "lower")
    assert got == {
        "parent_median": 12.0,
        "change_median": 11.0,
        "parent_iqr": 2.0,  # quartiles 11 and 13
        "change_iqr": 1.5,  # quartiles 10 and 11.5
        "ratio": 11.0 / 12.0,
        "wins": 4,  # the tied third pair is not a win
        "pairs": 5,
        "gain_beyond_noise": False,  # 4 of 5 wins, and a gain of 1 inside the IQR of 2
    }


def test_pair_stats_of_a_higher_is_better_metric(bench_pairs):
    parent = [1.0, 1.1, 1.2, 1.0, 1.1, 1.0, 1.2, 1.1, 1.0, 1.1]
    change = [p + 0.5 for p in parent]
    got = bench_pairs.pair_stats(parent, change, "higher")
    assert got["wins"] == 10 and got["ratio"] == pytest.approx(1.6 / 1.1)
    assert got["gain_beyond_noise"] is True
    assert bench_pairs.pair_stats(parent, change, "lower")["wins"] == 0
    # nine of ten wins still count as a gain, eight do not
    change[0] = parent[0]
    assert bench_pairs.pair_stats(parent, change, "higher")["gain_beyond_noise"] is True
    change[1] = parent[1]
    assert bench_pairs.pair_stats(parent, change, "higher")["gain_beyond_noise"] is False
    with pytest.raises(ValueError, match="better"):
        bench_pairs.pair_stats(parent, change, "faster")


def test_artifacts_that_differ_only_in_timings_are_identical(bench_pairs, tmp_path):
    parent = tmp_path / "parent" / "run"
    assert main(["run", "--iterations", "1", "--out-dir", str(parent)]) == 0
    change = tmp_path / "change" / "run"
    shutil.copytree(parent, change)
    (change / "timings.json").write_text(json.dumps({"synth_time_ms": [-1.0]}))
    assert bench_pairs.compare_artifacts(parent.parent, change.parent) == "identical"
    with open(change / "metrics.csv", "a") as fh:
        fh.write("\n")
    (parent / "scores_final.json").unlink()
    got = bench_pairs.compare_artifacts(parent.parent, change.parent)
    assert got == ["run/metrics.csv", "run/scores_final.json"]
