import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import diversity_comparison
from conftest import class_rows
from oodsynth.bench import (
    MAX_ITERATIONS,
    VMF_MAX_KAPPA,
    BenchConfig,
    SWEEP_COLUMNS,
    OodTestSpec,
    ablation_sweep,
    build_inputs,
    diversity_stds,
    generate_synthetic_id,
    make_ood_test_set,
    run_experiment,
    sample_vmf,
    uniform_sphere,
)
import oodsynth
from oodsynth import bench, blas, cli
from oodsynth.cli import main
from oodsynth.errors import (
    AntipodalPrototypesError,
    BadArgError,
    BadConfigError,
    ZeroVectorError,
)
from oodsynth.samplers import MAX_STEP_SIZE, HmcConfig, SamplerVariant
from oodsynth.sphere import normalize
from oodsynth.store import MAX_CLASSES, MAX_DIM, MAX_PROTOTYPE_ENTRIES, IdStore
from oodsynth.synthesis import round_summary, synthesize_batch

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


@pytest.mark.parametrize("dim", [2, 16])
@pytest.mark.parametrize("kappa", [1e16, 1e17, 1e200])
def test_vmf_rejects_concentration_above_its_bound(dim, kappa):
    # above the bound the sampler raised ValueError or OverflowError (d = 2),
    # or never accepted a draw (d = 128 at 1e17)
    with pytest.raises(BadArgError, match="kappa"):
        sample_vmf(np.eye(dim)[0], kappa, 3, np.random.default_rng(0))


@pytest.mark.parametrize("dim", [2, 3, 16, 128, 1024])
def test_vmf_at_the_concentration_bound_hugs_the_mean(dim):
    mu = np.eye(dim)[0]
    pts = sample_vmf(mu, VMF_MAX_KAPPA, 20, np.random.default_rng(0))
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-12
    assert (pts @ mu).min() >= 1.0 - 1e-9


def _sample_vmf_oracle(mu, kappa, n, rng, blas_products=False):
    """``sample_vmf`` as first written: its output bits and draw order are the data contract.

    The tangent projection takes numpy's row sums of ``tangent * mu``, as
    ``sample_vmf`` does. ``blas_products=True`` gives the BLAS GEMV
    ``tangent @ mu`` and the BLAS dot of ``np.linalg.norm(mu)`` that the
    sampler used before, whose bits depend on the OpenBLAS kernel.
    """
    if not 0.0 <= kappa <= VMF_MAX_KAPPA:
        raise BadArgError(f"vMF kappa must be in [0, {VMF_MAX_KAPPA:g}], got {kappa}")
    mu = np.asarray(mu, dtype=float)
    mu = mu / np.linalg.norm(mu) if blas_products else normalize(mu)
    d = mu.size
    if kappa == 0.0:
        return uniform_sphere(n, d, rng)
    dm = d - 1
    b = dm / (math.sqrt(4.0 * kappa**2 + dm**2) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    c = kappa * x0 + dm * (math.log(2.0 * b / (1.0 + b)) + math.log1p(x0))
    ws = np.empty(n)
    for i in range(n):
        while True:
            beta = rng.beta(dm / 2.0, dm / 2.0)
            w = (1.0 - (1.0 + b) * beta) / (1.0 - (1.0 - b) * beta)
            if kappa * w + dm * math.log1p(-x0 * w) - c >= math.log(rng.uniform()):
                ws[i] = w
                break
    tangent = rng.standard_normal((n, d))
    tangent -= np.outer(tangent @ mu if blas_products else (tangent * mu).sum(axis=1), mu)
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    out = ws[:, None] * mu + np.sqrt(np.maximum(0.0, 1.0 - ws**2))[:, None] * tangent
    return out / np.linalg.norm(out, axis=1, keepdims=True)


# d = 2 and d = 3 take numpy's Johnk path for beta(a, a) with a <= 1
@pytest.mark.parametrize("dim", [2, 3, 4, 16, 128])
@pytest.mark.parametrize("kappa", [0.0, 1e-3, 1.0, 20.0, 60.0, 1e4, VMF_MAX_KAPPA])
def test_vmf_draws_the_bits_and_the_stream_of_the_oracle(dim, kappa):
    # every data digest rests on these bits, and every later draw on the generator state
    mu = normalize(np.arange(1.0, dim + 1.0) * (-1.0) ** np.arange(dim))
    for seed in (0, 1, 2):
        for n in (0, 1, 37):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_vmf(mu, kappa, n, rng)
            want = _sample_vmf_oracle(mu, kappa, n, oracle_rng)
            assert got.shape == want.shape == (n, dim)
            assert got.tobytes() == want.tobytes(), (seed, n)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state, (seed, n)


# at d = 2 and 3 a normal draw nearly parallel to mu leaves a tiny tangent,
# whose normalization magnifies any rounding; the bit test above covers them
@pytest.mark.parametrize("dim", [16, 128])
@pytest.mark.parametrize("kappa", [1.0, 20.0, 60.0, 1e4])
def test_vmf_agrees_with_the_blas_products_to_a_few_ulps(dim, kappa):
    # the BLAS GEMV and dot rounded per OpenBLAS kernel; numpy's row sums
    # move each unit-vector coordinate by a few ulps of 1 and draw the same stream
    mu = np.arange(1.0, dim + 1.0) * (-1.0) ** np.arange(dim)
    for seed in (0, 1, 2):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_vmf(mu, kappa, 200, rng)
        want = _sample_vmf_oracle(mu, kappa, 200, oracle_rng, blas_products=True)
        assert np.abs(got - want).max() <= 4 * np.finfo(float).eps, seed
        assert rng.bit_generator.state == oracle_rng.bit_generator.state, seed


# d = 128 makes row blocks of 512: n = 1300 ends in a block of 276 rows
@pytest.mark.parametrize("dim", [3, 128])
@pytest.mark.parametrize("kappa", [0.0, 60.0, VMF_MAX_KAPPA])
@pytest.mark.parametrize("n", [0, 1, 1300])
def test_vmf_into_out_draws_the_bits_and_the_stream_of_the_oracle(dim, kappa, n):
    mu = normalize(np.arange(1.0, dim + 1.0) * (-1.0) ** np.arange(dim))
    assert n % max(1, bench.VMF_BLOCK_ELEMENTS // dim) or n < 2
    rngs = [np.random.default_rng(5) for _ in range(3)]
    want = _sample_vmf_oracle(mu, kappa, n, rngs[0])
    returned = sample_vmf(mu, kappa, n, rngs[1])
    out = np.full((n + 2, dim), 7.0)
    inner = out[1 : n + 1]
    got = sample_vmf(mu, kappa, n, rngs[2], out=inner)
    assert got is inner
    assert got.tobytes() == returned.tobytes() == want.tobytes()
    assert (out[0] == 7.0).all() and (out[-1] == 7.0).all()  # no write outside ``out``
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state == rngs[2].bit_generator.state


@pytest.mark.parametrize(
    "out", [np.empty((4, 5)), np.empty((3, 6)), np.empty((3, 5), np.float32), np.empty((5, 3)).T]
)
def test_vmf_rejects_an_out_of_another_shape_dtype_or_layout(out):
    with pytest.raises(BadArgError, match="out"):
        sample_vmf(np.eye(5)[0], 10.0, 3, np.random.default_rng(0), out=out)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak


CRITERION_10 = BenchConfig(dim=128, points_per_class=1000, cluster_kappa=60.0)


def test_generating_the_criterion_10_store_copies_no_rows():
    # the samples are drawn into the store's one row buffer, which the
    # snapshot hands out: no per-class copy, no (n, d) sampler temporary
    # and no concatenation in snapshot()
    rows_bytes = 10_000 * 128 * 8
    generate_synthetic_id(CRITERION_10)  # the first call's one-time allocations are not its own
    assert _traced_peak(lambda: generate_synthetic_id(CRITERION_10)) < 1.2 * rows_bytes
    assert _traced_peak(lambda: generate_synthetic_id(CRITERION_10).snapshot()) < 1.2 * rows_bytes


def test_a_generated_store_is_built_on_one_buffer_that_its_snapshot_shares():
    store = generate_synthetic_id(SMALL)
    snap = store.snapshot()
    assert snap.embeddings.flags.c_contiguous and not snap.embeddings.flags.writeable
    for buf in store._bufs:
        assert np.shares_memory(buf, snap.embeddings) and not buf.flags.writeable
    # the prototypes are the normalized means of the class slices
    for c in range(SMALL.num_classes):
        assert np.array_equal(snap.prototypes[c], normalize(class_rows(snap, c).mean(axis=0)))


def test_cli_huge_cluster_kappa_exits_2_without_hanging(tmp_path):
    # a subprocess with a timeout, so a sampler that never returns fails the test;
    # the config rejects the concentration, naming its field, before the run
    # creates its output directory
    env = os.environ | {"PYTHONPATH": str(Path(oodsynth.__file__).resolve().parents[1])}
    cases = (
        ("--cluster-kappa", "1e17", "cluster_kappa"),
        ("--ood-midpoint-kappa", "1e200", "midpoint_kappa"),
    )
    for option, value, name in cases:
        out_dir = tmp_path / name
        argv = ["run", "--iterations", "1", "--dim", "128", option, value]
        proc = subprocess.run(
            [sys.executable, "-m", "oodsynth", *argv, "--out-dir", str(out_dir)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert name in proc.stderr
        assert not out_dir.exists()


def test_cli_out_of_range_loss_kappa_and_step_size_exit_2(tmp_path):
    # at the parent both ran to exit 0: the loss kappa with a NaN objective and
    # infinite losses, the step size with every proposal degenerate, each after
    # numpy warnings
    env = os.environ | {"PYTHONPATH": str(Path(oodsynth.__file__).resolve().parents[1])}
    cases = (
        ("--loss-kappa", "1e308", "loss_kappa"),
        ("--step-size", "1e160", "step_size"),
        ("--step-size", "1e300", "step_size"),
    )
    for option, value, name in cases:
        out_dir = tmp_path / f"{name}_{value}"
        proc = subprocess.run(
            [sys.executable, "-m", "oodsynth", "run", "--iterations", "1", option, value]
            + ["--out-dir", str(out_dir)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
        assert name in proc.stderr
        assert not out_dir.exists()


@pytest.mark.parametrize("variant", list(SamplerVariant))
def test_runs_at_the_loss_kappa_and_step_size_bounds_are_finite(variant):
    # pytest turns every warning into an error, so no numpy warning is raised
    hmc = HmcConfig(step_size=MAX_STEP_SIZE, variant=variant)
    # lambda_d at its bound too: it had none, and 1e308 wrote combined_objective = -inf
    cfg = BenchConfig(iterations=1, loss_kappa=VMF_MAX_KAPPA, lambda_d=VMF_MAX_KAPPA, hmc=hmc)
    (res,) = run_experiment(cfg)
    losses = ("ood_disc_loss", "dispersion_loss", "compactness_loss", "combined_objective")
    # HMC and MALA reject every step this long: an empty batch has no discernment loss
    absent = () if len(res.batch) else ("ood_disc_loss", "combined_objective")
    assert all(res.row[name] is None if name in absent else math.isfinite(res.row[name])
               for name in losses)
    assert round_summary(res.batch)["degenerate_rejections"] == 0
    with pytest.raises(BadConfigError, match="loss_kappa"):
        dataclasses.replace(cfg, loss_kappa=math.nextafter(VMF_MAX_KAPPA, math.inf))
    with pytest.raises(BadConfigError, match="lambda_d"):
        dataclasses.replace(cfg, lambda_d=math.nextafter(VMF_MAX_KAPPA, math.inf))
    with pytest.raises(BadConfigError, match="step_size"):
        HmcConfig(step_size=math.nextafter(MAX_STEP_SIZE, math.inf))


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "option, value, name",
    [
        ("--ema-factor", "1.5", "ema_factor"),
        ("--ema-factor", "1", "ema_factor"),
        ("--ema-factor", "0", "ema_factor"),
        ("--ema-factor", "-0.1", "ema_factor"),
        ("--lambda-d", "1e308", "lambda_d"),
    ],
)
def test_cli_ema_factor_and_lambda_d_out_of_range_exit_2_before_the_out_dir(
    tmp_path, capsys, command, option, value, name
):
    # ema_factor was checked only by the store, after the run had made its out dir
    out_dir = tmp_path / "out"
    argv = [command, "--iterations", "1", option, value, "--out-dir", str(out_dir)]
    if command == "sweep":
        argv += ["--axis", "L", "--values", "1,3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and name in err
    assert not out_dir.exists()


def test_cli_dim_above_the_store_bound_exits_2_before_the_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["run", "--iterations", "1", "--dim", str(MAX_DIM + 1), "--out-dir", str(out_dir)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "dim" in err
    assert not out_dir.exists()


def test_cli_classes_times_dim_above_the_store_bound_exits_2_before_the_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "out"
    for classes, dim, message in (
        (MAX_PROTOTYPE_ENTRIES // MAX_DIM + 1, MAX_DIM, "num_classes x dim"),
        (MAX_CLASSES + 1, 16, f"num_classes must be <= {MAX_CLASSES}"),  # the class count alone
    ):
        argv = ["run", "--classes", str(classes), "--dim", str(dim), "--out-dir", str(out_dir)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and message in err
        assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "gen"])
@pytest.mark.parametrize(
    "option, value, name",
    [
        ("--points-per-class", "10000000000", "points_per_class"),
        ("--id-test-per-class", "10000000000", "id_test_per_class"),
        ("--ood-uniform", "100000000000", "n_uniform"),
        ("--rounds", "100000000000", "rounds"),
        ("--insert-per-class", "1000000000000", "insert_per_class"),
        ("--iterations", str(MAX_ITERATIONS + 1), "iterations"),
    ],
)
def test_cli_oversized_fields_exit_2_before_the_out_dir(tmp_path, capsys, command, option,
                                                        value, name):
    # run used to pass each size to numpy: a MemoryError traceback, exit 1,
    # and its empty output directory left behind; gen checks the same config
    out = tmp_path / "out"
    argv = [command, option, value, "--out-dir" if command == "run" else "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and name in err
    assert not out.exists()


def test_grad_mode_takes_only_the_analytic_gradient(tmp_path, capsys):
    small = ["--dim", "4", "--classes", "3", "--points-per-class", "30", "--iterations", "1"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grad_mode": "scaled"}))
    for command, extra in (("run", []), ("sweep", ["--axis", "L", "--values", "1,3"])):
        out_dir = tmp_path / command
        argv = [command, "--config", str(config), *small, "--out-dir", str(out_dir), *extra]
        assert main(argv) == 2
        assert "grad_mode" in capsys.readouterr().err
        assert not out_dir.exists()
    config.write_text(json.dumps({"grad_mode": "analytic"}))
    out_dir = tmp_path / "analytic"
    assert main(["run", "--config", str(config), *small, "--out-dir", str(out_dir)]) == 0
    assert json.loads((out_dir / "config.json").read_text())["grad_mode"] == "analytic"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--grad-mode", "analytic", "--out-dir", str(tmp_path / "flag")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grad-mode" in capsys.readouterr().err


def test_uniform_sphere_norms():
    pts = uniform_sphere(100, 5, np.random.default_rng(2))
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() <= 1e-12


def test_ood_test_set_blobs_sit_at_the_chain_starts(monkeypatch):
    cfg = BenchConfig(num_classes=5, dim=6, points_per_class=30, n_adj=3)
    store = generate_synthetic_id(cfg)
    centers = []

    def record(mu, kappa, n, rng, out=None):
        centers.append(mu)
        return sample_vmf(mu, kappa, n, rng, out=out)

    monkeypatch.setattr(bench, "sample_vmf", record)
    ood = make_ood_test_set(cfg, store, np.random.default_rng(0))
    assert ood.shape == (cfg.ood.n_uniform + cfg.ood.n_midpoint, cfg.dim)
    batch = synthesize_batch(store.snapshot(), cfg.hmc, k=5, delta=0.1, kappa=2.0, n_adj=3)
    assert len(centers) == len(batch.chains) == 15
    assert np.array_equal(np.array(centers), batch.chains.start)


# sha256 prefixes of the stock run's inputs at seed 0 and of its store after the
# first refresh; the draw order of ``sample_vmf`` is the data contract, so only
# a change that reorders its draws on purpose re-records them
STOCK_INPUTS = {
    "store": "912c345352eb05a9",
    "prototypes": "e809dafe97a07873",
    "centers": "1ac911ee33d69c7b",
    "id_test": "c866428d730561d0",
    "id_labels": "bbdaed34ddb84891",
    "ood_test": "4f6e880adcf27146",
    "refreshed store": "3b32f468de8c6059",
    "refreshed prototypes": "0bab9d4302e0ce64",
}


@pytest.mark.parametrize(
    "ood, changed",
    [
        (OodTestSpec(), {}),
        # 7 blobs over 40 midpoints: most midpoints draw no point
        (OodTestSpec(n_midpoint=7), {"ood_test": "74a9572f77a46a3f"}),
    ],
)
def test_the_run_inputs_keep_their_bits(ood, changed):
    cfg = BenchConfig(ood=ood)
    store, centers, id_test, id_labels, ood_test = build_inputs(cfg)
    arrays = {"store": store.snapshot().embeddings, "prototypes": store.snapshot().prototypes,
              "centers": centers, "id_test": id_test, "id_labels": id_labels, "ood_test": ood_test}
    first_seed = np.random.SeedSequence(cfg.seed + 1).spawn(3)[2]  # iteration 1's, as the run spawns it
    bench._refresh(store, centers, cfg.cluster_kappa, cfg.insert_per_class,
                   np.random.default_rng(first_seed))
    arrays["refreshed store"] = store.snapshot().embeddings
    arrays["refreshed prototypes"] = store.snapshot().prototypes
    got = {name: hashlib.sha256(a.tobytes()).hexdigest()[:16] for name, a in arrays.items()}
    assert got == STOCK_INPUTS | changed


def test_ood_test_set_raises_on_an_antipodal_pair():
    cfg = BenchConfig(num_classes=2, dim=3, points_per_class=1)
    store = IdStore(2, 3, capacity=1)
    for c, mu in enumerate((np.eye(3)[0], -np.eye(3)[0])):
        store.insert(c, mu)
        store.update_prototype(c, mu)
    with pytest.raises(AntipodalPrototypesError, match="classes 0 and 1"):
        make_ood_test_set(cfg, store, np.random.default_rng(0))
    # with no midpoint blob there is no pair to take a midpoint of
    no_blobs = dataclasses.replace(cfg, ood=OodTestSpec(n_midpoint=0))
    assert make_ood_test_set(no_blobs, store, np.random.default_rng(0)).shape == (500, 3)


def test_generate_synthetic_id_deterministic():
    a = generate_synthetic_id(SMALL).snapshot()
    b = generate_synthetic_id(SMALL).snapshot()
    for c in range(SMALL.num_classes):
        assert np.array_equal(class_rows(a, c), class_rows(b, c))
        assert np.array_equal(a.prototypes[c], b.prototypes[c])


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
    with pytest.raises(BadConfigError, match="no samples"):
        OodTestSpec(n_uniform=0, n_midpoint=0)


def test_cli_ood_spec_with_no_samples_exits_2_before_creating_the_out_dir(tmp_path, capsys):
    # the empty spec used to fail only once the run had created its output directory
    out_dir = tmp_path / "run"
    argv = ["run", "--iterations", "1", "--ood-uniform", "0", "--ood-midpoint", "0"]
    assert main(argv + ["--out-dir", str(out_dir)]) == 2
    assert "OOD test spec generates no samples" in capsys.readouterr().err
    assert not out_dir.exists()


def test_effective_clipping():
    cfg = dataclasses.replace(SMALL, knn_k=10_000, n_adj=99)
    store = generate_synthetic_id(cfg).snapshot()
    assert cfg.effective_k(store) == cfg.points_per_class
    assert cfg.effective_n_adj() == cfg.num_classes - 1
    three = generate_synthetic_id(dataclasses.replace(cfg, num_classes=3)).snapshot()
    assert cfg.effective_n_adj(three) == 2


# -- experiment loop ---------------------------------------------------------------


def test_minimal_run_completes_and_writes_artifacts(tmp_path):
    run_dir = tmp_path / "run"
    results = run_experiment(dataclasses.replace(SMALL, out_dir=str(run_dir)), trace=True)
    assert len(results) == 1
    assert len(results[0].batch) > 0
    for name in (
        "config.json", "metrics.csv", "batches.jsonl", "scores_final.json",
        "timings.json", "store.idstore", "trace.jsonl",
    ):
        assert (run_dir / name).exists(), name
    lines = (run_dir / "batches.jsonl").read_text().splitlines()
    batches = [json.loads(line) for line in lines]
    assert len(batches) == 1
    assert len(batches[0]["samples"]) == len(results[0].batch)
    report = results[-1].report
    assert 0.0 <= report.auroc <= 1.0


def test_metrics_csv_counts_why_rounds_were_rejected(tmp_path):
    cfg = dataclasses.replace(SMALL, iterations=2, out_dir=str(tmp_path))
    results = run_experiment(cfg, trace=True)
    with open(tmp_path / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row, res in zip(rows, results):
        chains = len(res.batch.chains)
        counts = [
            int(row[key])
            for key in ("batch_size", "mh_rejections", "margin_rejections", "degenerate_rejections")
        ]
        assert sum(counts) == chains * cfg.hmc.rounds
        assert int(row["skipped_pairs"]) == len(res.batch.skipped) == 0
    # the trace of the last batch gives the same counts as its metrics row
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    trace = [json.loads(line) for line in lines]
    assert len(trace) == len(results[-1].batch.chains) * cfg.hmc.rounds
    degenerate = [t["h_init"] is None for t in trace]
    want = {
        "batch_size": sum(t["accepted"] for t in trace),
        "mh_rejections": sum(not t["mh_accept"] and not d for t, d in zip(trace, degenerate)),
        "margin_rejections": sum(t["mh_accept"] and not t["margin_pass"] for t in trace),
        "degenerate_rejections": sum(degenerate),
    }
    assert {key: int(rows[-1][key]) for key in want} == want


def test_config_echo_reproduces_config(tmp_path):
    cfg = dataclasses.replace(SMALL, out_dir=str(tmp_path))
    run_experiment(cfg)
    assert BenchConfig.load_json(tmp_path / "config.json") == cfg


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


def test_run_with_an_empty_batch_writes_empty_batch_score_cells(tmp_path):
    # a zero step never leaves the midpoint, and delta = 0 rejects the midpoint
    cfg = dataclasses.replace(
        SMALL, delta=0.0, hmc=HmcConfig(step_size=0.0), out_dir=str(tmp_path)
    )
    (res,) = run_experiment(cfg)
    assert len(res.batch) == 0 and res.batch_scores.shape == (0,)
    with open(tmp_path / "metrics.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["batch_score_mean"] == row["batch_score_std"] == ""
    # no discernment loss either: a 0 would read below every real batch's, at least log C
    assert row["ood_disc_loss"] == row["combined_objective"] == ""
    assert res.row["ood_disc_loss"] is res.row["combined_objective"] is None
    assert not (tmp_path / "round_scores.csv").exists()


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
    run_experiment(cfg_a, trace=True)
    run_experiment(cfg_b, trace=True)
    for name in (
        "metrics.csv", "batches.jsonl", "scores_final.json", "round_scores.csv", "store.idstore",
        "trace.jsonl",
    ):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_detector_separates_synthetic_ood():
    cfg = dataclasses.replace(SMALL, num_classes=4, n_adj=2, iterations=2, cluster_kappa=50.0)
    assert run_experiment(cfg)[-1].report.auroc >= 0.9  # uniform OOD is far from tight clusters


def test_sweep_single_value_matches_run():
    rows = ablation_sweep(SMALL, "eps", [SMALL.hmc.step_size])
    last = run_experiment(SMALL)[-1]
    assert rows[0]["fpr95"] == last.report.fpr95
    assert rows[0]["auroc"] == last.report.auroc


def test_sweep_writes_merged_csv(tmp_path):
    out_dir = tmp_path / "sweep"
    rows = ablation_sweep(dataclasses.replace(SMALL, out_dir=str(out_dir)), "L", [1, 3])
    for steps in (1, 3):
        doc = json.loads((out_dir / f"L_{steps}" / "config.json").read_text())
        assert doc["hmc"]["leapfrog_steps"] == steps
    with open(out_dir / "sweep.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        lines = list(reader)
    assert reader.fieldnames == list(SWEEP_COLUMNS)
    assert len(lines) == len(rows) == 2
    assert [lines[0]["axis"], lines[0]["value"]] == ["L", "1"]
    for line, row in zip(lines, rows):
        assert [line["axis"], line["value"]] == [row["axis"], row["value"]]
        assert int(line["batch_size"]) == row["batch_size"]
        for name in ("fpr95", "auroc", "aupr", "mh_acceptance", "synth_time_ms"):
            assert float(line[name]) == row[name], name


def test_sweep_without_values_writes_the_header_alone(tmp_path):
    out_dir = tmp_path / "sweep"
    assert ablation_sweep(dataclasses.replace(SMALL, out_dir=str(out_dir)), "L", []) == []
    header = b"axis,value,fpr95,auroc,aupr,batch_size,mh_acceptance,synth_time_ms\r\n"
    assert (out_dir / "sweep.csv").read_bytes() == header


@pytest.mark.parametrize("out_dir", [None, "sweep"])
@pytest.mark.parametrize("values", [[1, 1], [3, "1", 1]])
def test_sweep_rejects_a_repeated_value_before_the_first_run(tmp_path, out_dir, values):
    # both runs of a repeated value used to write one directory, the second overwriting the first
    cfg = dataclasses.replace(SMALL, out_dir=out_dir and str(tmp_path / out_dir))
    with pytest.raises(BadConfigError, match="repeats the value '1'"):
        ablation_sweep(cfg, "L", values)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "axis, values, spelling",
    [("eps", [0.1, "0.10"], "0.10"), ("eps", ["1e-1", "0.1"], "0.1"), ("L", ["3", "03"], "03")],
)
def test_sweep_rejects_two_spellings_of_one_value_before_the_first_run(
    tmp_path, axis, values, spelling
):
    # the parsed values are compared: eps_0.1/ and eps_0.10/ used to run one config twice
    cfg = dataclasses.replace(SMALL, out_dir=str(tmp_path / "sweep"))
    with pytest.raises(BadConfigError, match=f"repeats the value {spelling!r}"):
        ablation_sweep(cfg, axis, values)
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_unknown_axis():
    from oodsynth.errors import BadArgError

    with pytest.raises(BadArgError):
        ablation_sweep(SMALL, "gamma", [1])


def test_diversity_helper_returns_positive_stds():
    cfg = dataclasses.replace(SMALL, num_classes=4, n_adj=2)
    std_h, std_g = diversity_stds(cfg, seed=0)
    assert std_h > 0.0 and std_g > 0.0


def test_diversity_comparison_script_writes_one_row_per_seed(tmp_path):
    out = tmp_path / "tmp" / "d.csv"
    diversity_comparison.main(["--seeds", "1", "--out", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["seed", "hmc_score_std", "gaussian_score_std"]
    assert len(rows) == 2 and rows[1][0] == "0"
    assert float(rows[1][1]) > 0.0 and float(rows[1][2]) > 0.0


def test_variant_sweep_smoke_every_variant():
    variants = [v.value for v in SamplerVariant]
    rows = ablation_sweep(SMALL, "variant", variants)
    assert [r["value"] for r in rows] == variants
    for r in rows:
        assert np.isfinite(r["auroc"]) and r["synth_time_ms"] > 0.0


def test_default_benchmark_ten_iterations_under_a_minute():
    import time

    t0 = time.perf_counter()
    results = run_experiment(BenchConfig())  # C=10, d=16, B=500, 10 iterations
    elapsed = time.perf_counter() - t0
    assert len(results) == 10
    assert elapsed < 60.0


# -- CLI -----------------------------------------------------------------------------


def test_timings_hold_one_synth_and_one_score_time_per_iteration(tmp_path):
    cfg = dataclasses.replace(SMALL, iterations=3, out_dir=str(tmp_path))
    run_experiment(cfg)
    timings = json.loads((tmp_path / "timings.json").read_text())
    for key in ("synth_time_ms", "score_time_ms"):
        assert len(timings[key]) == cfg.iterations, key
        assert all(ms > 0.0 for ms in timings[key]), key


def test_timings_name_the_blas_core_its_threads_and_numpy(tmp_path):
    # timings.json is the one artifact that may differ between runs of one config
    run_experiment(dataclasses.replace(SMALL, out_dir=str(tmp_path)))
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert timings["numpy"] == np.__version__
    assert timings["blas_core"] == blas.core_name()
    assert timings["blas_threads"] == blas.thread_count()
    assert timings["blas_core"] is None or timings["blas_core"].isalnum()


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


def _corrupt_binary(fmt, offset, value, keep=None):
    """Pack ``value`` at ``offset`` of a store file cut to its first ``keep`` bytes."""

    def write(raw):
        raw = bytearray(raw[:keep])
        struct.pack_into(fmt, raw, offset, value)
        return bytes(raw)

    return write


# binary layout: 8-byte magic, header uint32 C at 8, d at 12, B at 16, float64
# gamma at 20; class 0's uint32 count and uint8 flag, then its prototype at 33
# and its two rows; class 1's count at 129, its flag, prototype and rows to 230
_CORRUPT_STORES = {
    "binary-one-class": _corrupt_binary("<I", 8, 1),
    "binary-dim-one": _corrupt_binary("<I", 12, 1),
    "binary-capacity-zero": _corrupt_binary("<I", 16, 0),
    "binary-gamma-zero": _corrupt_binary("<d", 20, 0.0),
    "binary-gamma-nan": _corrupt_binary("<d", 20, math.nan),
    "binary-nan-prototype": _corrupt_binary("<d", 33, math.nan),
    "binary-off-unit-prototype": _corrupt_binary("<d", 33, 0.75),
    # class 1 keeps its prototype, and its count and rows go; update_prototype
    # never leaves this, and it would clip k to 0
    "binary-prototype-without-rows": _corrupt_binary("<I", 129, 0, keep=230 - 64),
}
# headers the class records contradict; a store built from one would hold a
# million buffers (211 MB) or rows of d = 2^32 - 1 floats
_HUGE_HEADERS = {
    "binary-million-classes": _corrupt_binary("<I", 8, 10**6),
    "binary-huge-dim": _corrupt_binary("<I", 12, 2**32 - 1),
}


def _write_corrupt_store(tmp_path, corrupt):
    store = IdStore(2, 4, capacity=3)
    rows = normalize(np.array([[1.0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]))
    for c in range(2):
        store.insert(c, rows[2 * c : 2 * c + 2])
        store.update_prototype(c, rows[2 * c])
    store.save(tmp_path / "good.idstore")
    assert len((tmp_path / "good.idstore").read_bytes()) == 230
    path = tmp_path / "bad.idstore"
    path.write_bytes(corrupt((tmp_path / "good.idstore").read_bytes()))
    return path


@pytest.mark.parametrize("case", list(_HUGE_HEADERS))
def test_cli_synth_huge_store_header_exits_3_before_building_the_store(
    tmp_path, capsys, monkeypatch, case
):
    path = _write_corrupt_store(tmp_path, _HUGE_HEADERS[case])

    def build(*args):
        raise AssertionError("store built from a header its class records contradict")

    monkeypatch.setattr(IdStore, "__init__", build)
    argv = ["synth", "--store", str(path), "--out", str(tmp_path / "b.json")]
    assert main(argv) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("case", list(_CORRUPT_STORES))
def test_cli_synth_corrupt_store_files_exit_3(tmp_path, capsys, case):
    path = _write_corrupt_store(tmp_path, _CORRUPT_STORES[case])
    argv = ["synth", "--store", str(path), "--k", "1", "--n-adj", "1"]
    assert main([*argv, "--out", str(tmp_path / "b.json")]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(path) in err


def test_cli_store_files_are_binary_only(tmp_path, capsys):
    json_store = tmp_path / "s.json"
    assert main(["gen", "--classes", "2", "--out", str(json_store)]) == 2
    assert "IDSTORE1" in capsys.readouterr().err
    assert not json_store.exists()
    json_store.write_text(json.dumps({"num_classes": 2, "dim": 16, "classes": []}))
    assert main(["synth", "--store", str(json_store), "--out", str(tmp_path / "b.json")]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "IDSTORE1" in err and str(json_store) in err


def test_cli_run_missing_config_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["run", "--config", str(missing), "--out-dir", str(tmp_path / "run")]) == 2
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize(
    "axis, value",
    [("k", "abc"), ("L", "2.5"), ("variant", "bogus"), ("variant", "rmhmc"), ("eps", ",")],
)
def test_cli_sweep_bad_axis_value_exit_code(tmp_path, capsys, axis, value):
    argv = ["sweep", "--axis", axis, "--values", value, "--out-dir", str(tmp_path / "sweep")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(axis) in err and repr(value) in err


def test_cli_sweep_rejects_two_spellings_of_one_value(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--axis", "eps", "--values", "0.1,0.10", "--iterations", "1"]
    assert main(argv + ["--out-dir", str(out_dir)]) == 2
    assert "repeats the value '0.10'" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("values", ["1,x", "1,0", "1,1"])
def test_cli_sweep_checks_every_value_before_the_first_run(tmp_path, capsys, values):
    # a bad second value used to fail only after the first value's run was written
    out_dir = tmp_path / "sweep"
    argv = ["sweep", "--axis", "L", "--values", values, "--iterations", "1"]
    assert main(argv + ["--out-dir", str(out_dir)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out_dir.exists()


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
    flags, field, kwargs = flag
    base = BenchConfig()
    sections = {f.name: s for s in ("hmc", "ood") for f in dataclasses.fields(getattr(base, s))}
    section = sections.get(field)
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
        ("sweep", "--out-dir", "file/sw"),
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--variant", "rmhmc"], "invalid choice: 'rmhmc'"),
        (["sweep", "--axis", "L", "--values", "1", "--sweep-dir", "X"], "--sweep-dir"),
    ],
    ids=["variant-rmhmc", "sweep-dir"],
)
def test_cli_removed_variant_flag_exit_code(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


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


def test_cli_score_rejects_bool_and_string_scores(tmp_path, capsys):
    # numpy reads true as 1.0 and "0.1" as 0.1: both files used to score
    # as auroc=1.0000 and exit 0
    id_bools = tmp_path / "id_bools.json"
    id_bools.write_text(json.dumps({"id_scores": [True] * 15 + [0.5] * 15}))
    ood_strings = tmp_path / "ood_strings.json"
    ood_strings.write_text(json.dumps({"ood_scores": ["0.1"] * 30}))
    id_good = tmp_path / "id_good.json"
    id_good.write_text(json.dumps({"id_scores": [1.5] * 30}))
    ood_good = tmp_path / "ood_good.json"
    ood_good.write_text(json.dumps({"ood_scores": [0.1] * 30}))
    for id_file, ood_file, bad in (
        (id_bools, ood_good, id_bools),
        (id_good, ood_strings, ood_strings),
        (id_bools, ood_strings, id_bools),
    ):
        assert main(["score", "--id-scores", str(id_file), "--ood-scores", str(ood_file)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and bad.name in err
    assert main(["score", "--id-scores", str(id_good), "--ood-scores", str(ood_good)]) == 0


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


def test_config_field_names_are_unique_across_the_sections():
    # BenchConfig.with_fields places a field by its name alone
    names = [
        f.name
        for config in (BenchConfig, HmcConfig, OodTestSpec)
        for f in dataclasses.fields(config)
        if f.name not in ("hmc", "ood")
    ]
    assert len(names) == len(set(names))


def test_cli_flag_keeps_the_config_file_fields_of_its_section(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"hmc": {"leapfrog_steps": 1, "rounds": 2}}))
    args = cli.make_parser().parse_args(
        ["run", "--config", str(cfg_path), "--step-size", "0.05"]
    )
    hmc = cli.build_config(args).hmc
    assert (hmc.leapfrog_steps, hmc.rounds, hmc.step_size) == (1, 2, 0.05)


def test_cli_flag_overrides_config_file(tmp_path):
    flags = small_cli_flags(tmp_path)
    out = tmp_path / "s.idstore"
    assert main(["gen", *flags, "--classes", "3", "--out", str(out)]) == 0
    assert IdStore.load(out).num_classes == 3
