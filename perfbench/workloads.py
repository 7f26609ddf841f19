"""The two closed-loop workloads: one client, one op at a time.

Each workload is built from a workload seed. Set-up draws its inputs from
stream 0 of that seed and op ``i`` draws its data and sampler seeds from
stream ``i + 1``, so the same seed always gives the same inputs. Ops call
the library through module and class attributes looked up at call time,
which is where the traced run installs its wrappers.

``check`` runs outside the timed region. It returns the problems found in
an op's output (empty when correct) and a digest that is compared with the
recorded reference for seeds listed in ``reference.json``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from oodsynth import bench, cli, energy, synthesis
from oodsynth.store import IdStore

# The store of acceptance criterion 10: C=10, B=1000, d=128.
CRITERION_10 = {"dim": 128, "num_classes": 10, "points_per_class": 1000, "cluster_kappa": 60.0}
UNIT_TOL = 1e-9
CHECKED_SAMPLES = 8  # outliers re-verified per op


def stream_seeds(seed: int, stream: int) -> tuple[int, int]:
    """(data seed, sampler seed) of one stream of a workload seed."""
    data, sampler = np.random.SeedSequence([seed, stream]).generate_state(2)
    return int(data), int(sampler)


def _unit_norm_problems(what: str, points: np.ndarray) -> list[str]:
    if points.size == 0:
        return []
    worst = float(np.abs(np.linalg.norm(points, axis=1) - 1.0).max())
    return [f"{what}: norm deviates from 1 by {worst:.3g}"] if worst > UNIT_TOL else []


class _Workload:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir


class TrainLoop(_Workload):
    """``oodsynth run`` in-process at the stock config, artifacts to a fresh dir.

    The op builds its own inputs, so set-up times that same input build
    (stock ID store plus held-out OOD set) on its own.
    """

    name = "train_loop"
    op_name = "run_s"
    items_name = "iterations_per_s"
    ARTIFACTS = (
        "config.json",
        "metrics.csv",
        "batches.jsonl",
        "scores_final.json",
        "timings.json",
        "store.idstore",
    )

    def setup(self) -> None:
        data_seed, ood_seed = stream_seeds(self.seed, 0)
        cfg = bench.BenchConfig(seed=data_seed)
        store = bench.generate_synthetic_id(cfg)
        bench.make_ood_test_set(cfg, store, np.random.default_rng(ood_seed))

    def warm_up(self) -> None:
        shutil.rmtree(self.op(-1)[1])

    def op(self, index: int):
        data_seed, sampler_seed = stream_seeds(self.seed, index + 1)
        out = self.workdir / f"run-{index}"
        argv = ["run", "--out-dir", str(out), "--seed", str(data_seed)]
        argv += ["--sampler-seed", str(sampler_seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, out

    def items(self, output) -> int:
        return bench.BenchConfig().iterations if output[0] == 0 else 0

    def check(self, index: int, output) -> tuple[list[str], dict]:
        code, out = output
        try:
            return self._check(code, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, code: int, out: Path) -> tuple[list[str], dict]:
        if code != 0:
            return [f"exit code {code}"], {}
        missing = [name for name in self.ARTIFACTS if not (out / name).is_file()]
        if missing:
            return [f"missing artifacts {missing}"], {}
        problems = []
        scores = json.loads((out / "scores_final.json").read_text())
        for key in ("fpr95", "auroc", "aupr"):
            value = scores.get(key)
            if not (isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"{key}={value!r} is not a finite value in [0, 1]")
        iterations = json.loads((out / "config.json").read_text())["iterations"]
        batches = [json.loads(line) for line in (out / "batches.jsonl").read_text().splitlines()]
        if len(batches) != iterations:
            problems.append(f"{len(batches)} batches for {iterations} iterations")
        for t, batch in enumerate(batches, start=1):
            positions = np.array([s["position"] for s in batch["samples"]], dtype=float)
            problems += _unit_norm_problems(f"iteration {t} batch", positions)
            accepted = sum(chain["accepted"] for chain in batch["chains"])
            if len(batch["samples"]) != accepted:
                problems.append(f"iteration {t}: {len(batch['samples'])} samples, {accepted} accepted")
        if batches and batches[-1]["samples"] and not (out / "round_scores.csv").is_file():
            problems.append("missing artifact round_scores.csv")
        id_scores = np.asarray(scores.get("id_scores", []), dtype=float)
        ood_scores = np.asarray(scores.get("ood_scores", []), dtype=float)
        if id_scores.size == 0 or ood_scores.size == 0:
            problems.append("scores_final.json holds no ID or no OOD scores")
        else:
            diff = id_scores[:, None] - ood_scores[None, :]
            pairwise = float(np.mean((diff > 0) + 0.5 * (diff == 0)))
            if abs(pairwise - scores["auroc"]) > 1e-12:
                problems.append(f"auroc {scores['auroc']!r} but pairwise count gives {pairwise!r}")
        digest = {"batch_sizes": [len(b["samples"]) for b in batches]}
        digest |= {key: scores.get(key) for key in ("fpr95", "auroc", "aupr")}
        return problems, digest


class SynthD128(_Workload):
    """One ``synthesize_batch`` on a frozen criterion-10 snapshot, fresh sampler seed.

    Set-up writes the store to a binary file and loads it back before it
    takes the snapshot, so store save and load are part of set-up.
    """

    name = "synth_d128"
    op_name = "batch_s"
    items_name = "outliers_per_s"

    def setup(self) -> None:
        data_seed, _ = stream_seeds(self.seed, 0)
        self.cfg = bench.BenchConfig(seed=data_seed, **CRITERION_10)
        path = self.workdir / "synth.idstore"
        bench.generate_synthetic_id(self.cfg).save(path)
        self.snapshot = IdStore.load(path).snapshot()
        path.unlink()
        self.k = self.cfg.effective_k(self.snapshot)

    def warm_up(self) -> None:
        self.op(-1)

    def op(self, index: int):
        _, sampler_seed = stream_seeds(self.seed, index + 1)
        return synthesis.synthesize_batch(
            self.snapshot,
            dataclasses.replace(self.cfg.hmc, rng_seed=sampler_seed),
            k=self.k,
            delta=self.cfg.delta,
            kappa=self.cfg.kappa,
            n_adj=self.cfg.effective_n_adj(),
            grad_mode=self.cfg.grad_mode,
        )

    def items(self, batch) -> int:
        return len(batch)

    def check(self, index: int, batch) -> tuple[list[str], dict]:
        problems = []
        accepted = sum(chain.accepted for chain in batch.chains)
        if len(batch) != accepted:
            problems.append(f"batch of {len(batch)} but chains accepted {accepted}")
        t_minus = {chain.chain_index: chain.t_minus for chain in batch.chains}
        rng = np.random.default_rng(index)
        picks = rng.choice(len(batch), size=min(CHECKED_SAMPLES, len(batch)), replace=False)
        for i in picks:
            sample = batch.samples[i]
            problems += _unit_norm_problems(f"sample {i}", sample.position[None, :])
            if not energy.passes_margin(
                self.snapshot, sample.position, self.cfg.kappa, t_minus[sample.chain_index]
            ):
                problems.append(f"sample {i} fails its chain's margin")
        return problems, {"batch_size": len(batch)}


WORKLOADS = {w.name: w for w in (TrainLoop, SynthD128)}
