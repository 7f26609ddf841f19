import contextlib
import json
import shutil

import pytest

import bench_pairs
from oodsynth.cli import main


def test_pair_stats_of_a_lower_is_better_metric():
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


def test_pair_stats_of_a_higher_is_better_metric():
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


def test_artifacts_that_differ_only_in_timings_are_identical(tmp_path):
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


def _result(correct=True, failed=0):
    """A ``perfbench/run.py`` result of ten ops, every end-to-end metric 1.0."""
    names = ("setup_s", "op_s_p50", "cpu_s_p50", "items_per_s", "peak_rss_mb")
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": 1.0} for name in names}}


@pytest.mark.parametrize(
    "wrong, want",
    [
        ({}, []),
        ({("train_loop", "parent", 1): _result(correct=False)},
         ["train_loop: the parent run of pair 1 reported correct: false"]),
        ({("synth_d128", "change", 0): _result(failed=2)},  # failed ops yet correct: true
         ["synth_d128: the change failed 10.000% of its ops against the parent's 0.000%,"
          " in pairs [0]"]),
    ],
)
def test_a_wrong_run_exits_1_after_writing_the_results(monkeypatch, tmp_path, capsys, wrong, want):
    monkeypatch.setattr(bench_pairs, "parent_tree", lambda rev: contextlib.nullcontext("parent"))
    monkeypatch.setattr(bench_pairs, "run_artifacts", lambda tree, out: None)
    monkeypatch.setattr(bench_pairs, "compare_artifacts", lambda parent, change: "identical")
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "bench_run", lambda tree, workload, seed, seconds: (
        wrong.get((workload, "parent" if tree == "parent" else "change", seed), _result()), {}
    ))
    out = tmp_path / "BENCH.json"
    argv = ["--base", "HEAD", "--pairs", "2", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == (1 if want else 0)
    doc = json.loads(out.read_text())
    assert [line for report in doc["workloads"].values() for line in report["problems"]] == want
    assert [line[10:] for line in capsys.readouterr().err.splitlines()
            if line.startswith("rejected: ")] == want


@pytest.mark.parametrize("seconds", [[], ["--seconds", "-1"]])
def test_no_pairs_compares_the_artifacts_alone(monkeypatch, tmp_path, seconds):
    ran = []
    monkeypatch.setattr(bench_pairs, "parent_tree", lambda rev: contextlib.nullcontext("parent"))
    monkeypatch.setattr(bench_pairs, "run_artifacts", lambda tree, out: ran.append(tree))
    monkeypatch.setattr(bench_pairs, "compare_artifacts", lambda parent, change: ["a/metrics.csv"])
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "")
    monkeypatch.setattr(bench_pairs, "bench_run", lambda *args: pytest.fail("ran a benchmark"))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--base", "HEAD", "--pairs", "0", "--out", str(out), *seconds]) == 0
    doc = json.loads(out.read_text())
    assert ran == ["parent", bench_pairs.ROOT]
    assert doc["artifacts"] == ["a/metrics.csv"] and doc["workloads"] == {}


@pytest.mark.parametrize("argv", [["--pairs", "-1"], ["--pairs", "1"],
                                  ["--pairs", "1", "--seconds", "0"]])
def test_negative_pairs_and_pairs_without_seconds_are_usage_errors(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--base", "HEAD", "--out", str(tmp_path / "BENCH.json"), *argv])
    assert exc.value.code == 2 and not (tmp_path / "BENCH.json").exists()
