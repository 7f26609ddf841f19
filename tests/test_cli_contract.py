"""The CLI's artifact contract, end to end, on a numpy-only install and any OpenBLAS.

``scripts/bench_pairs.py``'s ``ARTIFACT_COMMANDS`` runs once per environment,
each command a ``python -m oodsynth`` subprocess that finds a ``scipy`` whose
import fails first on ``PYTHONPATH`` and fails on any numpy RuntimeWarning: a
numpy-only install. One BLAS thread and the Haswell and Sandybridge kernels must
write the stock bytes, but for each chain's ``t_minus`` on Sandybridge, whose
KDE GEMM rounds without FMA. The module imports neither scipy nor hypothesis.
Tests in ``tests/test_bench.py`` hold the rest of the contract: exit 2 before any
output for an out-of-range option or sweep value (``test_cli_*_exit_2*``,
``test_cli_sweep_*``), exit 3 for bool scores, exit 2 for a ``.json`` store path,
and what a sweep and the diversity script write.
"""

import csv
import hashlib
import json
import subprocess
from pathlib import Path

import pytest

import bench_pairs
from oodsynth import blas
from oodsynth.bench import BenchConfig
from oodsynth.digest import artifact_digests
from oodsynth.store import IdStore

ENVIRONMENTS = {
    "stock": {},
    "one-thread": {"OPENBLAS_NUM_THREADS": "1"},
    "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "Sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """environment name -> the directory the command list wrote under it, run on first use.

    A list that failed is not run again: every later test of that environment
    fails with the first run's error.
    """
    shadow, made = tmp_path_factory.mktemp("shadow"), {}
    (shadow / "scipy").mkdir()
    (shadow / "scipy" / "__init__.py").write_text('raise ImportError("no scipy here")\n')
    numpy_only = {"PYTHONPATH": str(shadow), "PYTHONWARNINGS": "error::RuntimeWarning"}

    def get(name: str) -> Path:
        if "OPENBLAS_CORETYPE" in ENVIRONMENTS[name] and blas.core_name() is None:
            pytest.skip("no OpenBLAS found, so no kernel can be chosen")
        if name not in made:
            out = tmp_path_factory.mktemp(name)
            try:
                bench_pairs.run_artifacts(bench_pairs.ROOT, out, numpy_only | ENVIRONMENTS[name])
            except subprocess.CalledProcessError as err:
                made[name] = err
            else:
                made[name] = out
        if isinstance(made[name], subprocess.CalledProcessError):
            pytest.fail(f"the command list failed under {name}: {made[name]}", pytrace=False)
        return made[name]

    return get


@pytest.fixture(params=list(ENVIRONMENTS))
def out(request, artifacts) -> Path:
    return artifacts(request.param)


def _digests_without_t_minus(root: Path) -> dict[str, str]:
    """``artifact_digests``, with each batch's ``chains[].t_minus`` dropped first."""
    digests = artifact_digests(root)
    for name in [n for n in digests if n.endswith(("batches.jsonl", "batch.json"))]:
        docs = [json.loads(line) for line in (root / name).read_text().splitlines()]
        for chain in (chain for doc in docs for chain in doc["chains"]):
            del chain["t_minus"]
        digests[name] = hashlib.sha256(json.dumps(docs).encode()).hexdigest()
    return digests


@pytest.mark.parametrize("name", ["one-thread", "Haswell", "Sandybridge"])
def test_the_blas_thread_count_and_kernel_leave_the_stock_bytes(artifacts, name):
    digests = _digests_without_t_minus if name == "Sandybridge" else artifact_digests
    assert digests(artifacts(name)) == digests(artifacts("stock"))


def test_another_seed_writes_other_bytes_in_every_artifact(out):
    seed0, seed1 = artifact_digests(out / "run-seed0"), artifact_digests(out / "run-seed1")
    assert [name for name in seed1 if seed0[name] == seed1[name]] == []


def test_no_metrics_cell_reads_nan(out):
    for run in sorted(out.glob("run-*")):
        with open(run / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all("nan" not in row.values() for row in rows), run.name
        if run.name == "run-empty":  # its batch has no score and no loss, so those cells are empty
            cells = ("batch_size", "batch_score_mean", "ood_disc_loss", "combined_objective")
            assert [tuple(r[c] for c in cells) for r in rows] == [("0", "", "", "")]


def test_the_rescored_metrics_equal_the_runs_own(out):
    run = json.loads((out / "run-seed0" / "scores_final.json").read_text())
    rescored = json.loads((out / "run-seed0" / "rescored.json").read_text())
    assert [m for m in ("fpr95", "auroc", "aupr") if rescored[m] != run[m]] == []


def test_a_loaded_store_synthesizes_what_the_generated_one_does(out):
    batch = (out / "synth" / "batch.json").read_bytes()
    assert (out / "gen-synth" / "batch.json").read_bytes() == batch


@pytest.mark.parametrize("name", ["gen-synth", "c10"])
def test_a_loaded_store_saves_back_to_its_own_bytes(out, tmp_path, name):
    IdStore.load(out / name / "store.idstore").save(tmp_path / "again.idstore")
    assert (tmp_path / "again.idstore").read_bytes() == (out / name / "store.idstore").read_bytes()


def test_the_batch_csv_rows_equal_the_json_samples(out):
    samples = json.loads((out / "synth" / "batch.json").read_text())["samples"]
    with open(out / "synth" / "batch.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    parsed = [[int(v) for v in row[:4]] + [float(v) for v in row[4:]] for row in rows]
    expected = [[s["chain_index"], *s["pair"], s["round"], *s["position"]] for s in samples]
    assert header[:4] == ["chain_index", "class_u", "class_v", "round"]
    assert samples and parsed == expected


@pytest.mark.parametrize("name", ["c10", "synth-random_walk"])
def test_chains_are_in_class_and_rank_order_and_agree_with_the_trace(out, name):
    # a chain's place in that order picks its RNG stream
    batch = json.loads((out / name / "batch.json").read_text())
    trace = [json.loads(line) for line in (out / name / "trace.jsonl").read_text().splitlines()]
    chains = batch["chains"]
    keys = [(c["class_id"], c["rank"]) for c in chains]
    assert keys == sorted(set(keys)) and all(c["pair"][0] == c["class_id"] for c in chains)
    assert len(chains) + len(batch["skipped"]) == BenchConfig().num_classes * batch["n_adj"]
    counts = [sum(t["accepted"] for t in trace if t["chain_index"] == c["chain_index"])
              for c in chains]
    assert len(trace) == len(chains) * batch["config"]["rounds"]
    assert counts == [c["accepted"] for c in chains]
    assert sum(counts) == len(batch["samples"]) > 0
