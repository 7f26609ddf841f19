import csv
import dataclasses
import importlib.util
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oodsynth.bench import (
    BenchConfig,
    OodTestSpec,
    SweepRow,
    ablation_sweep,
    diversity_stds,
    generate_synthetic_id,
    run_experiment,
    sample_vmf,
    uniform_sphere,
)
import oodsynth
from oodsynth import cli
from oodsynth.cli import main
from oodsynth.errors import BadArgError, BadConfigError, ZeroVectorError
from oodsynth.samplers import HmcConfig, SamplerVariant
from oodsynth.sphere import normalize
from oodsynth.store import IdStore

SMALL = BenchConfig(
    dim=6,
    num_classes=2,
    points_per_class=40,
    cluster_kappa=12.0,
    knn_k=5,
    k_detect=5,
    n_adj=1,
    iterations=1,
    insert_per_class=4,
    id_test_per_class=30,
    ood=OodTestSpec(n_uniform=60, n_midpoint=40, midpoint_kappa=30.0),
)


# -- synthetic generators -------------------------------------------------------


def test_vmf_huge_concentration_hugs_the_mean():
    rng = np.random.default_rng(0)
    mu = normalize(np.ones(8))
    pts = sample_vmf(mu, 1e6, 200, rng)
    angles = np.degrees(np.arccos(np.clip(pts @ mu, -1, 1)))
    assert angles.max() <= 1.0


def test_vmf_zero_concentration_is_uniform():
    rng = np.random.default_rng(1)
    pts = sample_vmf(np.eye(8)[0], 0.0, 10_000, rng)
    assert np.linalg.norm(pts.mean(axis=0)) <= 0.05


def test_vmf_unit_norm_and_determinism():
    mu = normalize(np.arange(1.0, 6.0))
    a = sample_vmf(mu, 25.0, 50, np.random.default_rng(7))
    b = sample_vmf(mu, 25.0, 50, np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert np.abs(np.linalg.norm(a, axis=1) - 1.0).max() <= 1e-9


@pytest.mark.parametrize("kappa", [math.nan, math.inf, -1.0])
def test_vmf_rejects_negative_or_non_finite_concentration(kappa):
    # a NaN kappa would loop forever in the rejection sampler
    with pytest.raises(BadArgError):
        sample_vmf(np.eye(4)[0], kappa, 3, np.random.default_rng(0))


def test_uniform_sphere_norms():
    pts = uniform_sphere(100, 5, np.random.default_rng(2))
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-12


def test_generate_synthetic_id_deterministic():
    a = generate_synthetic_id(SMALL).snapshot()
    b = generate_synthetic_id(SMALL).snapshot()
    for c in range(SMALL.num_classes):
        assert np.array_equal(a.class_embeddings(c), b.class_embeddings(c))
        assert np.array_equal(a.prototype(c), b.prototype(c))


# -- config ----------------------------------------------------------------------


def test_config_json_round_trip(tmp_path):
    cfg = dataclasses.replace(
        SMALL, hmc=HmcConfig(leapfrog_steps=2, step_size=0.2, variant=SamplerVariant.MALA)
    )
    path = tmp_path / "config.json"
    cfg.save_json(path)
    assert BenchConfig.load_json(path) == cfg


def test_config_validation():
    with pytest.raises(BadConfigError):
        BenchConfig(num_classes=1)
    with pytest.raises(BadConfigError):
        BenchConfig(kappa=0.0)
    with pytest.raises(BadConfigError):
        BenchConfig(grad_mode="nonsense")
    with pytest.raises(BadConfigError, match="midpoint_kappa"):
        OodTestSpec(midpoint_kappa=-1.0)


def test_effective_clipping():
    cfg = dataclasses.replace(SMALL, knn_k=10_000, n_adj=99)
    store = generate_synthetic_id(cfg).snapshot()
    assert cfg.effective_k(store) == cfg.points_per_class
    assert cfg.effective_n_adj() == cfg.num_classes - 1
    three = generate_synthetic_id(dataclasses.replace(cfg, num_classes=3)).snapshot()
    assert cfg.effective_n_adj(three) == 2


# -- experiment loop ---------------------------------------------------------------


def test_minimal_run_completes_and_writes_artifacts(tmp_path):
    cfg = dataclasses.replace(SMALL, out_dir=str(tmp_path / "run"))
    art = run_experiment(cfg, trace=True)
    assert len(art.iterations) == 1
    assert len(art.iterations[0].batch) > 0
    for name in (
        "config.json", "metrics.csv", "batches.jsonl", "scores_final.json",
        "timings.json", "store.idstore", "trace.jsonl",
    ):
        assert (art.out_dir / name).exists(), name
    lines = (art.out_dir / "batches.jsonl").read_text().splitlines()
    batches = [json.loads(line) for line in lines]
    assert len(batches) == 1
    assert len(batches[0]["samples"]) == len(art.iterations[0].batch)
    report = art.iterations[-1].report
    assert 0.0 <= report.auroc <= 1.0


def test_metrics_csv_counts_why_rounds_were_rejected(tmp_path):
    cfg = dataclasses.replace(SMALL, iterations=2, out_dir=str(tmp_path / "run"))
    art = run_experiment(cfg)
    with open(art.out_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row, res in zip(rows, art.iterations):
        chains = len(res.batch.chains)
        counts = [
            int(row[key])
            for key in ("batch_size", "mh_rejections", "margin_rejections", "degenerate_rejections")
        ]
        assert sum(counts) == chains * cfg.hmc.rounds
        assert int(row["skipped_pairs"]) == len(res.batch.skipped) == 0
        margin = sum(r.mh_accept and not r.margin_pass for c in res.batch.chains for r in c.records)
        assert int(row["margin_rejections"]) == margin


def test_config_echo_reproduces_config(tmp_path):
    cfg = dataclasses.replace(SMALL, out_dir=str(tmp_path / "run"))
    art = run_experiment(cfg)
    assert BenchConfig.load_json(art.out_dir / "config.json") == cfg


def test_partial_artifacts_flushed_on_abort(tmp_path, monkeypatch):
    import oodsynth.bench as bench_mod

    real = bench_mod.synthesize_batch
    calls = {"n": 0}

    def failing(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise RuntimeError("disk full")
        return real(*args, **kwargs)

    monkeypatch.setattr(bench_mod, "synthesize_batch", failing)
    cfg = dataclasses.replace(SMALL, iterations=3, out_dir=str(tmp_path / "run"))
    with pytest.raises(RuntimeError):
        run_experiment(cfg)
    # the completed first iteration is on disk despite the abort
    metrics = (tmp_path / "run" / "metrics.csv").read_text().strip().splitlines()
    assert len(metrics) == 2  # header + one row
    assert (tmp_path / "run" / "config.json").exists()


def test_round_scores_after_an_abort_are_the_scores_of_their_batch(tmp_path, monkeypatch):
    import oodsynth.bench as bench_mod

    real = bench_mod.synthesize_batch
    calls = {"n": 0}

    def failing(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise RuntimeError("disk full")
        return real(*args, **kwargs)

    monkeypatch.setattr(bench_mod, "synthesize_batch", failing)
    # the aborted iteration has already replaced every buffered embedding
    cfg = dataclasses.replace(SMALL, iterations=2, insert_per_class=40, out_dir=str(tmp_path))
    with pytest.raises(RuntimeError):
        run_experiment(cfg)
    with open(tmp_path / "metrics.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    with open(tmp_path / "round_scores.csv", newline="") as fh:
        rounds = list(csv.DictReader(fh))
    total = sum(int(r["count"]) * float(r["mean"]) for r in rounds)
    mean = total / sum(int(r["count"]) for r in rounds)
    assert math.isclose(mean, float(row["batch_score_mean"]), rel_tol=1e-12)


def test_abort_in_first_iteration_leaves_empty_metrics_csv(tmp_path, monkeypatch):
    import oodsynth.bench as bench_mod

    def failing(*args, **kwargs):
        raise RuntimeError("disk full")

    monkeypatch.setattr(bench_mod, "synthesize_batch", failing)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "metrics.csv").write_text("stale\n")
    with pytest.raises(RuntimeError):
        run_experiment(dataclasses.replace(SMALL, out_dir=str(run_dir)))
    assert (run_dir / "metrics.csv").read_bytes() == b""
    assert not (run_dir / "scores_final.json").exists()


def test_run_with_an_empty_batch_writes_nan_batch_scores(tmp_path):
    # a zero step never leaves the midpoint, and delta = 0 rejects the midpoint
    cfg = dataclasses.replace(
        SMALL, delta=0.0, hmc=HmcConfig(step_size=0.0), out_dir=str(tmp_path)
    )
    (res,) = run_experiment(cfg).iterations
    assert len(res.batch) == 0 and res.batch_scores.shape == (0,)
    with open(tmp_path / "metrics.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["batch_score_mean"] == row["batch_score_std"] == "nan"
    assert not (tmp_path / "round_scores.csv").exists()


def test_import_loads_no_scipy():
    code = "import sys, oodsynth; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = os.environ | {"PYTHONPATH": str(Path(oodsynth.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_bad_config_files_raise_config_errors(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(BadConfigError):
        BenchConfig.load_json(broken)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"no_such_field": 1}))
    with pytest.raises(BadConfigError):
        BenchConfig.load_json(unknown)
    with pytest.raises(BadConfigError):
        BenchConfig.from_dict({"hmc": {"variant": "bogus"}})


def test_runs_are_bit_exact(tmp_path):
    cfg_a = dataclasses.replace(SMALL, iterations=2, out_dir=str(tmp_path / "a"))
    cfg_b = dataclasses.replace(SMALL, iterations=2, out_dir=str(tmp_path / "b"))
    art_a = run_experiment(cfg_a)
    art_b = run_experiment(cfg_b)
    for name in (
        "metrics.csv", "batches.jsonl", "scores_final.json", "round_scores.csv", "store.idstore"
    ):
        assert (art_a.out_dir / name).read_bytes() == (art_b.out_dir / name).read_bytes(), name


def test_detector_separates_synthetic_ood():
    cfg = dataclasses.replace(SMALL, num_classes=4, n_adj=2, iterations=2, cluster_kappa=50.0)
    art = run_experiment(cfg)
    assert art.iterations[-1].report.auroc >= 0.9  # uniform OOD is far from tight clusters


def test_sweep_single_value_matches_run(tmp_path):
    rows = ablation_sweep(SMALL, "eps", [SMALL.hmc.step_size])
    art = run_experiment(SMALL)
    assert rows[0].fpr95 == art.iterations[-1].report.fpr95
    assert rows[0].auroc == art.iterations[-1].report.auroc


def test_sweep_writes_merged_csv(tmp_path):
    rows = ablation_sweep(SMALL, "L", [1, 3], out_dir=tmp_path / "sweep")
    with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        lines = list(reader)
    assert reader.fieldnames == [f.name for f in dataclasses.fields(SweepRow)]
    assert len(lines) == len(rows) == 2
    assert [lines[0]["axis"], lines[0]["value"]] == ["L", "1"]
    for line, row in zip(lines, rows):
        assert [line["axis"], line["value"]] == [row.axis, row.value]
        assert int(line["batch_size"]) == row.batch_size
        for name in ("fpr95", "auroc", "aupr", "mh_acceptance", "synth_time_ms"):
            assert float(line[name]) == getattr(row, name), name


def test_sweep_rejects_unknown_axis():
    from oodsynth.errors import BadArgError

    with pytest.raises(BadArgError):
        ablation_sweep(SMALL, "gamma", [1])


def test_diversity_helper_returns_positive_stds():
    cfg = dataclasses.replace(SMALL, num_classes=4, n_adj=2)
    std_h, std_g = diversity_stds(cfg, seed=0)
    assert std_h > 0.0 and std_g > 0.0


def test_diversity_comparison_script_writes_one_row_per_seed(tmp_path):
    path = Path(__file__).resolve().parents[1] / "scripts" / "diversity_comparison.py"
    spec = importlib.util.spec_from_file_location("diversity_comparison", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "tmp" / "d.csv"
    script.main(["--seeds", "1", "--out", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["seed", "hmc_score_std", "gaussian_score_std"]
    assert len(rows) == 2 and rows[1][0] == "0"
    assert float(rows[1][1]) > 0.0 and float(rows[1][2]) > 0.0


def test_variant_sweep_smoke_every_variant():
    variants = [v.value for v in SamplerVariant]
    rows = ablation_sweep(SMALL, "variant", variants)
    assert [r.value for r in rows] == variants
    for r in rows:
        assert np.isfinite(r.auroc) and r.synth_time_ms > 0.0


def test_default_benchmark_ten_iterations_under_a_minute():
    import time

    t0 = time.perf_counter()
    art = run_experiment(BenchConfig())  # C=10, d=16, B=500, 10 iterations
    elapsed = time.perf_counter() - t0
    assert len(art.iterations) == 10
    assert elapsed < 60.0


# -- CLI -----------------------------------------------------------------------------


def test_timings_hold_one_synth_and_one_score_time_per_iteration(tmp_path):
    cfg = dataclasses.replace(SMALL, iterations=3, out_dir=str(tmp_path / "run"))
    art = run_experiment(cfg)
    timings = json.loads((art.out_dir / "timings.json").read_text())
    for key in ("synth_time_ms", "score_time_ms"):
        assert len(timings[key]) == cfg.iterations, key
        assert all(ms > 0.0 for ms in timings[key]), key


def small_cli_flags(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    SMALL.save_json(cfg_path)
    return ["--config", str(cfg_path)]


def test_cli_gen_synth_score_round_trip(tmp_path, capsys):
    flags = small_cli_flags(tmp_path)
    store_path = tmp_path / "store.idstore"
    assert main(["gen", *flags, "--out", str(store_path)]) == 0
    assert store_path.exists()
    loaded = IdStore.load(store_path)
    assert loaded.num_classes == SMALL.num_classes

    batch_path = tmp_path / "batch.json"
    trace_path = tmp_path / "trace.jsonl"
    code = main(
        ["synth", *flags, "--store", str(store_path), "--out", str(batch_path), "--trace", str(trace_path)]
    )
    assert code == 0
    doc = json.loads(batch_path.read_text())
    assert len(doc["samples"]) > 0
    assert trace_path.exists()

    id_file = tmp_path / "id.json"
    ood_file = tmp_path / "ood.json"
    rng = np.random.default_rng(0)
    id_file.write_text(json.dumps((rng.standard_normal(100) + 3).tolist()))
    ood_file.write_text(json.dumps(rng.standard_normal(100).tolist()))
    report_path = tmp_path / "report.json"
    code = main(
        ["score", "--id-scores", str(id_file), "--ood-scores", str(ood_file), "--out", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["auroc"] > 0.9
    out = capsys.readouterr().out
    assert "auroc" in out


def test_cli_run_and_csv_batch(tmp_path):
    flags = small_cli_flags(tmp_path)
    run_dir = tmp_path / "run"
    assert main(["run", *flags, "--out-dir", str(run_dir)]) == 0
    assert (run_dir / "metrics.csv").exists()
    batch_csv = tmp_path / "batch.csv"
    assert main(["synth", *flags, "--out", str(batch_csv)]) == 0
    assert batch_csv.read_text().startswith("chain_index,")


def test_cli_score_accepts_csv_columns(tmp_path):
    rng = np.random.default_rng(3)
    id_csv = tmp_path / "id.csv"
    ood_csv = tmp_path / "ood.csv"
    id_csv.write_text("score\n" + "\n".join(str(v) for v in rng.standard_normal(40) + 2))
    ood_csv.write_text("score\n" + "\n".join(str(v) for v in rng.standard_normal(40)))
    out = tmp_path / "rep.json"
    assert main(["score", "--id-scores", str(id_csv), "--ood-scores", str(ood_csv), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["auroc"] > 0.8


def test_cli_config_error_exit_code(tmp_path):
    assert main(["gen", "--classes", "1", "--out", str(tmp_path / "s.idstore")]) == 2
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text("{oops")
    assert main(["gen", "--config", str(bad_cfg), "--out", str(tmp_path / "s2.idstore")]) == 2


def test_cli_corrupt_store_exit_code(tmp_path):
    bad_store = tmp_path / "bad.idstore"
    bad_store.write_bytes(b"garbage")
    batch = tmp_path / "b.json"
    assert main(["synth", "--store", str(bad_store), "--out", str(batch)]) == 3


def _prototype(doc, class_id):
    return doc["classes"][class_id]["prototype"]


def _corrupt_json(edit):
    def write(doc, raw):
        edit(doc)
        return ".json", json.dumps(doc).encode()

    return write


def _corrupt_binary(fmt, offset, value):
    def write(doc, raw):
        raw = bytearray(raw)
        struct.pack_into(fmt, raw, offset, value)
        return ".idstore", bytes(raw)

    return write


# binary layout: 8-byte magic, header uint32 C at 8, d at 12, B at 16, float64
# gamma at 20; class 0's uint32 count and uint8 flag, then its prototype at 33
_CORRUPT_STORES = {
    "json-extra-class": _corrupt_json(lambda doc: doc["classes"].append(doc["classes"][0])),
    "json-missing-class": _corrupt_json(lambda doc: doc["classes"].pop()),
    "json-one-class": _corrupt_json(lambda doc: doc.update(num_classes=1)),
    "json-gamma-one": _corrupt_json(lambda doc: doc.update(ema_factor=1.0)),
    "json-nan-prototype": _corrupt_json(lambda doc: _prototype(doc, 0).__setitem__(0, math.nan)),
    # d = 4, so a broadcast would turn [0.5] into a unit vector
    "json-short-prototype": _corrupt_json(lambda doc: doc["classes"][1].update(prototype=[0.5])),
    "json-scaled-prototype": _corrupt_json(lambda doc: _prototype(doc, 0).__setitem__(0, 2.0)),
    "binary-one-class": _corrupt_binary("<I", 8, 1),
    "binary-dim-one": _corrupt_binary("<I", 12, 1),
    "binary-capacity-zero": _corrupt_binary("<I", 16, 0),
    "binary-gamma-zero": _corrupt_binary("<d", 20, 0.0),
    "binary-gamma-nan": _corrupt_binary("<d", 20, math.nan),
    "binary-nan-prototype": _corrupt_binary("<d", 33, math.nan),
    "binary-off-unit-prototype": _corrupt_binary("<d", 33, 0.75),
}


@pytest.mark.parametrize("case", list(_CORRUPT_STORES))
def test_cli_synth_corrupt_store_files_exit_3(tmp_path, capsys, case):
    store = IdStore(2, 4, capacity=3)
    rows = normalize(np.array([[1.0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]))
    store.insert_batch(rows, [0, 0, 1, 1])
    for c in range(2):
        store.update_prototype(c, rows[2 * c])
    store.save(tmp_path / "good.json")
    store.save(tmp_path / "good.idstore")
    suffix, data = _CORRUPT_STORES[case](
        json.loads((tmp_path / "good.json").read_text()), (tmp_path / "good.idstore").read_bytes()
    )
    path = tmp_path / f"bad{suffix}"
    path.write_bytes(data)
    argv = ["synth", "--store", str(path), "--k", "1", "--n-adj", "1"]
    assert main([*argv, "--out", str(tmp_path / "b.json")]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(path) in err


def test_cli_run_missing_config_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["run", "--config", str(missing), "--out-dir", str(tmp_path / "run")]) == 2
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize(
    "axis, value",
    [("k", "abc"), ("L", "2.5"), ("variant", "bogus"), ("variant", "rmhmc"), ("eps", ",")],
)
def test_cli_sweep_bad_axis_value_exit_code(tmp_path, capsys, axis, value):
    argv = ["sweep", "--axis", axis, "--values", value, "--sweep-dir", str(tmp_path / "sweep")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(axis) in err and repr(value) in err


def _flag_value(default, kwargs):
    """A value for a flag that differs from its field's default."""
    if "choices" in kwargs:
        return next(c for c in kwargs["choices"] if c != getattr(default, "value", default))
    if kwargs.get("type") is int:
        return default + 1
    if kwargs.get("type") is float:
        return default / 2
    return "elsewhere"


@pytest.mark.parametrize("flag", cli._CONFIG_FLAGS, ids=lambda flag: flag[0][-1])
def test_each_config_flag_sets_its_field(flag):
    flags, section, field, kwargs = flag
    base = BenchConfig()
    owner = getattr(base, section) if section else base
    value = _flag_value(getattr(owner, field), kwargs)
    for option in flags:
        args = cli.make_parser().parse_args(["gen", "--out", "x", option, str(value)])
        cfg = cli.build_config(args)
        got_owner = getattr(cfg, section) if section else cfg
        got = getattr(got_owner, field)
        assert getattr(got, "value", got) == value, option
        # nothing else moved
        assert dataclasses.replace(got_owner, **{field: getattr(owner, field)}) == owner
        if section:
            assert dataclasses.replace(cfg, **{section: owner}) == base


def test_cli_synth_missing_store_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.idstore"
    assert main(["synth", "--store", str(missing), "--out", str(tmp_path / "b.json")]) == 3
    assert str(missing) in capsys.readouterr().err


def test_cli_synth_clips_n_adj_by_the_store_classes(tmp_path):
    store_path = tmp_path / "s.idstore"
    gen = ["gen", "--classes", "3", "--points-per-class", "20", "--out", str(store_path)]
    assert main(gen) == 0
    batch_path = tmp_path / "b.json"
    assert main(["synth", "--store", str(store_path), "--k", "5", "--out", str(batch_path)]) == 0
    doc = json.loads(batch_path.read_text())
    assert doc["n_adj"] == 2
    assert len(doc["chains"]) + len(doc["skipped"]) == 3 * 2


@pytest.mark.parametrize(
    "command, option, target",
    [
        ("gen", "--out", "missing/x.idstore"),
        ("synth", "--out", "missing/b.json"),
        ("synth", "--trace", "missing/t.jsonl"),
        ("score", "--out", "missing/r.json"),
        ("score", "--csv", "missing/r.csv"),
        ("run", "--out-dir", "file/run"),
        ("sweep", "--sweep-dir", "file/sw"),
    ],
)
def test_cli_unwritable_output_exit_code(tmp_path, capsys, command, option, target):
    (tmp_path / "file").write_text("")
    id_file, ood_file = tmp_path / "id.json", tmp_path / "ood.json"
    id_file.write_text(json.dumps((np.arange(40.0) + 30).tolist()))
    ood_file.write_text(json.dumps(np.arange(40.0).tolist()))
    flags = small_cli_flags(tmp_path)
    base = {
        "gen": flags,
        "synth": [*flags, "--out", str(tmp_path / "b.json")],
        "score": ["--id-scores", str(id_file), "--ood-scores", str(ood_file)],
        "run": flags,
        "sweep": [*flags, "--axis", "k", "--values", "5"],
    }[command]
    bad = tmp_path / target
    assert main([command, *base, option, str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(bad) in err


def test_cli_old_config_with_history_window_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps({"hmc": {"history_window": 2}}))
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "history_window" in err


@pytest.mark.parametrize(
    "command, option, value, name",
    [
        ("run", "--cluster-kappa", "nan", "cluster_kappa"),
        ("run", "--ood-midpoint-kappa", "nan", "midpoint_kappa"),
        ("gen", "--cluster-kappa", "nan", "cluster_kappa"),
        ("gen", "--cluster-kappa", "inf", "cluster_kappa"),
        ("run", "--step-size", "nan", "step_size"),
        ("run", "--step-size", "inf", "step_size"),
        ("run", "--kappa", "nan", "kappa"),
        ("run", "--delta", "nan", "delta"),
        ("run", "--lambda-d", "nan", "lambda_d"),
        ("run", "--loss-kappa", "inf", "loss_kappa"),
        ("run", "--ood-uniform", "-5", "n_uniform"),
        ("run", "--ood-midpoint", "-3", "n_midpoint"),
        pytest.param("synth", "--config", '{"kappa": NaN}', "kappa", id="synth-config-kappa-NaN"),
        ("run", "--seed", "-1", "seed"),
        ("run", "--sampler-seed", "-3", "rng_seed"),
        ("run", "--id-test-per-class", "-1", "id_test_per_class"),
        *(
            pytest.param("run", "--config", doc, name, id=f"run-config-{name}-{value}")
            for doc, name, value in (
                ('{"iterations": 2.5}', "iterations", "2.5"),
                ('{"dim": 2.5}', "dim", "2.5"),
                ('{"hmc": {"rounds": 1.5}}', "rounds", "1.5"),
                ('{"ood": {"n_uniform": 1e400}}', "n_uniform", "1e400"),
                ('{"seed": 1.5}', "seed", "1.5"),
                ('{"knn_k": true}', "knn_k", "true"),
            )
        ),
        pytest.param(
            "run", "--config", '{"hmc": {"variant": "mmala"}}', "mmala", id="run-config-mmala"
        ),
        pytest.param("run", "--config", '{"out_dir": 5}', "out_dir", id="run-config-out_dir-5"),
        pytest.param("run", "--out-dir", "", "out_dir", id="run-out-dir-empty"),
    ],
)
def test_cli_malformed_config_value_exit_code(tmp_path, capsys, command, option, value, name):
    # the error names the offending field, or the value when it is a removed variant
    if option == "--config":
        (tmp_path / "bad.json").write_text(value)
        value = str(tmp_path / "bad.json")
    out = {"run": "--out-dir", "gen": "--out", "synth": "--out"}[command]
    argv = [command, option, value]
    if option != out:  # a later --out-dir would override the value under test
        argv += [out, str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and re.search(rf"\b{name}\b", err), err


def test_cli_removed_variant_flag_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--variant", "rmhmc"])
    assert exc.value.code == 2
    assert "invalid choice: 'rmhmc'" in capsys.readouterr().err


def test_cli_data_error_exit_code(tmp_path):
    id_file = tmp_path / "id.json"
    ood_file = tmp_path / "ood.json"
    id_file.write_text(json.dumps([1.0, 2.0, 3.0]))  # too few for calibration
    ood_file.write_text(json.dumps([0.0] * 30))
    assert main(["score", "--id-scores", str(id_file), "--ood-scores", str(ood_file)]) == 3


def test_cli_score_unreadable_inputs_exit_code(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps([0.5] * 30))
    no_key = tmp_path / "no_key.json"
    no_key.write_text(json.dumps({"ood_scores": [0.5] * 30}))
    words = tmp_path / "words.json"
    words.write_text(json.dumps(["high", "low"]))
    nested = tmp_path / "nested.json"
    nested.write_text(json.dumps([[0.5, 0.5], [0.5]]))
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps([[0.5, 0.5]] * 30))
    for bad in (tmp_path / "missing.json", tmp_path / "missing.csv", no_key, words, nested, matrix):
        assert main(["score", "--id-scores", str(bad), "--ood-scores", str(good)]) == 3, bad.name
        assert "data error" in capsys.readouterr().err


def test_cli_score_non_finite_scores_exit_code(tmp_path):
    id_csv = tmp_path / "id.csv"
    ood_csv = tmp_path / "ood.csv"
    id_csv.write_text("\n".join(["1.5"] * 30 + ["nan"]))
    ood_csv.write_text("\n".join(["0.5"] * 30))
    assert main(["score", "--id-scores", str(id_csv), "--ood-scores", str(ood_csv)]) == 3
    id_csv.write_text("\n".join(["1.5"] * 30 + ["inf"]))
    assert main(["score", "--id-scores", str(id_csv), "--ood-scores", str(ood_csv)]) == 3


def test_cli_score_csv_rejects_unparseable_row_after_header(tmp_path, capsys):
    id_csv = tmp_path / "id.csv"
    ood_csv = tmp_path / "ood.csv"
    id_csv.write_text("score\n" + "\n".join(["1.5"] * 30) + "\noops\n1.5\n")
    ood_csv.write_text("score\n" + "\n".join(["0.5"] * 30))
    assert main(["score", "--id-scores", str(id_csv), "--ood-scores", str(ood_csv)]) == 3
    assert "line 32" in capsys.readouterr().err


def test_cli_numerical_error_exit_code(monkeypatch, tmp_path):
    # no CLI path reaches a NumericalError organically (degenerate pairs are
    # skipped, degenerate proposals rejected), so force one to pin the mapping
    import oodsynth.cli as cli_mod

    def boom(args):
        raise ZeroVectorError("forced")

    monkeypatch.setattr(cli_mod, "cmd_gen", boom)
    assert main(["gen", "--out", str(tmp_path / "x.idstore")]) == 4


def test_cli_flag_overrides_config_file(tmp_path):
    flags = small_cli_flags(tmp_path)
    out = tmp_path / "s.idstore"
    assert main(["gen", *flags, "--classes", "3", "--out", str(out)]) == 0
    assert IdStore.load(out).num_classes == 3
