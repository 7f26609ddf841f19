"""Tests of the benchmark's own logic: statistics, checks, tracing, metric lists."""

import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, run, stats  # noqa: E402
from perfbench.spans import ROOT as ROOT_SPAN  # noqa: E402
from perfbench.spans import Tracer, Wrap  # noqa: E402
from perfbench.workloads import WORKLOADS, SynthD128, TrainLoop  # noqa: E402

# -- percentiles and the sample-count rule ------------------------------------


@pytest.mark.parametrize(
    "n, p, expected",
    [(100, 90, 10), (99, 90, 9), (20, 50, 10), (1000, 99, 10), (7, 50, 3)],
)
def test_samples_beyond_percentile(n, p, expected):
    assert stats.beyond(n, p) == expected


@pytest.mark.parametrize("n, expected", [(1, None), (20, None), (21, 52), (100, 90), (200, 95), (1000, 99)])
def test_highest_tail_keeps_ten_samples_beyond(n, expected):
    assert stats.highest_tail(n) == expected


def test_tail_needs_ten_samples_beyond():
    values = list(range(100))
    assert stats.tail(values, 90) == pytest.approx(np.percentile(values, 90))
    assert stats.tail(values[:99], 90) is None


def test_median_of_no_samples_raises():
    with pytest.raises(ValueError):
        stats.median([])


# -- output checks and error counting -------------------------------------------


class _Flaky:
    """Op i raises when i % 3 == 1; its output fails the check when i % 3 == 2."""

    name = "flaky"

    def __init__(self, seed=0, workdir=None):
        self.seed, self.workdir = seed, workdir

    def setup(self):
        pass

    def op(self, index):
        time.sleep(0.002)
        if index % 3 == 1:
            raise RuntimeError("deliberate")
        return index

    def items(self, output):
        return 1

    def check(self, index, output):
        return (["corrupted"] if index % 3 == 2 else []), {}


def test_failed_ops_and_failed_checks_are_counted(capsys):
    bench_run = run.Run(_Flaky(), seconds=0.05, trace=False)
    bench_run.measure()
    capsys.readouterr()
    samples = bench_run.samples
    assert len(samples) >= 3
    failed = [not s["ok"] for s in samples]
    assert failed == [s["index"] % 3 != 0 for s in samples]
    assert len(bench_run.problems) == sum(failed)
    assert len(bench_run.setup_times) == run.SETUP_REPEATS


def test_reference_mismatch_fails_the_op():
    bench_run = run.Run(_Flaky(), seconds=0.0, trace=False)
    bench_run.reference = {"0": {"batch_size": 3}}
    bench_run.measure()
    assert not bench_run.samples[0]["ok"]


def test_reference_matching_tolerance():
    assert run.matches_reference({"a": [1, 2], "b": 0.5}, {"a": [1, 2], "b": 0.5 + 1e-9})
    assert not run.matches_reference([1, 2], [1, 3])
    assert not run.matches_reference(0.5, 0.51)
    assert not run.matches_reference({"b": 0.5}, {"b": 0.51})
    assert not run.matches_reference({}, {"b": 0.5})


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    workload = SynthD128(seed=0, workdir=tmp_path_factory.mktemp("synth"))
    workload.setup()
    return workload


def test_synth_check_passes_then_catches_corruption(synth):
    batch = synth.op(0)
    problems, digest = synth.check(0, batch)
    assert problems == [] and digest == {"batch_size": len(batch)}
    for sample in batch.samples:
        sample.position = 2.0 * sample.position  # off the sphere
    problems, _ = synth.check(0, batch)
    assert any("norm deviates" in p for p in problems)
    batch.chains[0].accepted += 1
    problems, _ = synth.check(0, batch)
    assert any("chains accepted" in p for p in problems)


@pytest.mark.parametrize("corruption", ["none", "auroc", "scores", "artifact"])
def test_train_check_catches_bad_metrics_and_missing_artifacts(tmp_path, capsys, corruption):
    from oodsynth import cli

    out = tmp_path / "run"
    assert cli.main(["run", "--out-dir", str(out), "--iterations", "1"]) == 0
    capsys.readouterr()
    if corruption == "auroc":
        scores = json.loads((out / "scores_final.json").read_text())
        scores["auroc"] = 1.5
        (out / "scores_final.json").write_text(json.dumps(scores))
    elif corruption == "scores":
        scores = json.loads((out / "scores_final.json").read_text())
        scores["id_scores"] = [s - 0.5 for s in scores["id_scores"]]
        (out / "scores_final.json").write_text(json.dumps(scores))
    elif corruption == "artifact":
        (out / "store.idstore").unlink()
    problems, _ = TrainLoop(seed=0, workdir=tmp_path).check(0, (0, out))
    expected = {
        "none": None,
        "auroc": "auroc=1.5",
        "scores": "pairwise count",
        "artifact": "missing artifacts",
    }[corruption]
    assert problems == [] if expected is None else any(expected in p for p in problems)
    assert not out.exists()  # the check removes the run's directory


# -- tracing ----------------------------------------------------------------------


@pytest.fixture
def toy_module(monkeypatch):
    mod = types.ModuleType("perfbench_toy")

    def inner():
        time.sleep(0.002)
        return [1, 2, 3]

    def outer():
        time.sleep(0.002)
        return mod.inner() + mod.inner()

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "perfbench_toy", mod)
    return mod


def test_self_times_partition_the_op(toy_module):
    tracer = Tracer()
    wraps = [
        Wrap("perfbench_toy:outer", "toy.outer"),
        Wrap("perfbench_toy:inner", "toy.inner", lambda args, kwargs, result: {"toy.items": len(result)}),
    ]
    original = toy_module.inner
    t0 = time.perf_counter()
    with tracer.recording(0, wraps):
        toy_module.outer()
    wall = time.perf_counter() - t0
    assert toy_module.inner is original  # wraps are removed after the op
    summary = tracer.summary([0])
    assert summary["toy.inner.calls"] == 2 and summary["toy.outer.calls"] == 1
    assert summary["toy.items"] == 6
    assert summary["toy.inner.s"] >= 0.004 and summary["toy.outer.s"] >= 0.002
    self_total = sum(v for k, v in summary.items() if k.endswith(".s"))
    root = [s for s in tracer.spans if s[3] == ROOT_SPAN][0]
    assert self_total == pytest.approx((root[5] - root[4]) / 1e9, abs=1e-9)
    assert self_total <= wall
    assert {s[0] for s in tracer.spans} == {0}  # every span carries the op id


def test_missing_wraps_are_reported_absent_not_fatal(toy_module):
    tracer = Tracer()

    def drifted(args, kwargs, result):
        return {"toy.rows": result.no_such_field}

    wraps = [
        Wrap("perfbench_toy:renamed_away", "toy.gone"),
        Wrap("perfbench_no_such_module:f", "toy.nomodule"),
        Wrap("perfbench_toy:outer", "toy.outer", drifted),
    ]
    with tracer.recording(0, wraps):
        assert toy_module.outer() == [1, 2, 3, 1, 2, 3]
    assert tracer.absent == {
        "perfbench_toy:renamed_away",
        "perfbench_no_such_module:f",
        "perfbench_toy:outer (counters)",
    }
    assert tracer.summary([0])["toy.outer.calls"] == 1


def test_exceptions_close_spans_and_are_counted(toy_module):
    def boom():
        raise KeyError("x")

    toy_module.outer = boom
    tracer = Tracer()
    with pytest.raises(KeyError), tracer.recording(0, [Wrap("perfbench_toy:outer", "toy.outer")]):
        toy_module.outer()
    assert tracer.summary([0])["toy.outer.raised.KeyError"] == 1
    assert tracer._stack == []


def test_method_classmethod_and_staticmethod_wraps(toy_module):
    class Box:
        def __init__(self, items):
            self.items = items

        def size(self):
            return len(self.items)

        @classmethod
        def make(cls, n):
            return cls(list(range(n)))

        @staticmethod
        def twice(x):
            return 2 * x

    toy_module.Box = Box
    wraps = [
        Wrap("perfbench_toy:Box.size", "toy.size"),
        Wrap("perfbench_toy:Box.make", "toy.make", lambda args, kwargs, result: {"toy.rows": args[1]}),
        Wrap("perfbench_toy:Box.twice", "toy.twice"),
    ]
    tracer = Tracer()
    with tracer.recording(0, wraps):
        assert Box.make(3).size() == 3 and Box.twice(4) == 8
    summary = tracer.summary([0])
    assert summary["toy.make.calls"] == summary["toy.size.calls"] == summary["toy.twice.calls"] == 1
    assert summary["toy.rows"] == 3  # the classmethod's wrapper gets the class first
    assert isinstance(Box.__dict__["make"], classmethod)
    assert isinstance(Box.__dict__["twice"], staticmethod)
    assert Box.__dict__["size"].__name__ == "size" and not tracer.absent


# -- the metric lists match BENCHMARK.json -------------------------------------------


def test_benchmark_json_matches_the_metrics_produced():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]
    values = layers.per_layer_metrics({}, {}, 1.0, 2.0, 1.0, 0)
    assert set(values) == {name for name, _, _ in layers.PER_LAYER}
