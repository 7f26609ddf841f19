"""Benchmark a change against a parent revision in alternating pairs.

    python3 scripts/bench_pairs.py --base REV --pairs 10 --seconds 20 --out BENCH_36.json
    python3 scripts/bench_pairs.py --base REV --pairs 0 --out artifacts.json

Run from the root of a source checkout. The change is this checkout's
working tree; the parent is REV, checked out with ``git worktree add``
under ``.perfbench_tmp/`` and removed afterwards (no network is needed).

1. Both trees run ``ARTIFACT_COMMANDS``, each command a subprocess on
   that tree's ``src/``, and the two output directories are compared
   with ``oodsynth digest`` (``oodsynth.digest``): the report is
   "identical" or the list of files that differ.
2. For each workload of ``BENCHMARK.json``, N pairs of
   ``perfbench/run.py --trace 0``, each run a subprocess. Pair i runs
   both trees at seed i (seeds 0-9 also check ``perfbench/reference.json``),
   the parent first in even pairs and the change first in odd ones; the
   last line of each run's output is its result.
3. Per end-to-end metric of ``BENCHMARK.json``, the JSON written to
   ``--out`` holds every run's value, the parent and change medians,
   their interquartile ranges, the ratio of the medians, the change's
   wins ("better" as ``BENCHMARK.json`` reads it) and whether the gain is
   beyond noise: won in at least 9 of 10 pairs, with the medians further
   apart than the parent's interquartile range. It also records the
   environment of the change's first run, the OpenBLAS core and ``--note``.
4. After writing ``--out`` it exits 1, printing each problem, when any run
   reported ``correct: false`` or the change failed a larger share of ops.

With ``--pairs 0`` it runs step 1 alone: ``--out`` holds the artifacts
report and no workload (``"workloads": {}``), ``--seconds`` is not needed,
and it exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TMP_DIR = ROOT / ".perfbench_tmp"
sys.path.insert(0, str(ROOT / "src"))

from oodsynth import blas  # noqa: E402
from oodsynth.digest import artifact_digests  # noqa: E402

C10 = ["--dim", "128", "--points-per-class", "1000", "--cluster-kappa", "60"]
# output directory -> the ``python -m oodsynth`` commands that fill it ("{out}" is its path)
RUN = ["run", "--out-dir", "{out}"]
ARTIFACT_COMMANDS = {
    "run-seed0": [
        [*RUN, "--trace", "--seed", "0"],
        # the run's detection metrics, recomputed from its own score file
        ["score", "--id-scores", "{out}/scores_final.json",
         "--ood-scores", "{out}/scores_final.json", "--out", "{out}/rescored.json"],
    ],
    "run-seed1": [[*RUN, "--trace", "--seed", "1"]],
    "run-seed2": [[*RUN, "--trace", "--seed", "2"]],
    # one iteration per other sampler, and one whose step of 1e77 MH-rejects every proposal
    "run-random_walk": [[*RUN, "--iterations", "1", "--variant", "random_walk"]],
    "run-mala": [[*RUN, "--iterations", "1", "--variant", "mala"]],
    "run-empty": [[*RUN, "--iterations", "1", "--step-size", "1e77"]],
    "gen-synth": [
        ["gen", "--out", "{out}/store.idstore"],
        ["synth", "--store", "{out}/store.idstore", "--out", "{out}/batch.json"],
    ],
    "synth": [["synth", "--out", "{out}/batch.json"], ["synth", "--out", "{out}/batch.csv"]],
    "synth-random_walk": [["synth", "--seed", "2", "--variant", "random_walk",
                           "--out", "{out}/batch.json", "--trace", "{out}/trace.jsonl"]],
    "c10": [
        ["gen", *C10, "--out", "{out}/store.idstore"],
        ["synth", *C10, "--store", "{out}/store.idstore", "--out", "{out}/batch.json",
         "--trace", "{out}/trace.jsonl"],
    ],
}
MIN_WIN_SHARE = 0.9  # a gain must win at least 9 of 10 pairs


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


@contextlib.contextmanager
def parent_tree(rev: str):
    """A detached worktree of ``rev`` under ``.perfbench_tmp/``, removed on exit."""
    path = TMP_DIR / "bench_pairs-parent"
    remove_worktree(path)  # one left by an interrupted run
    TMP_DIR.mkdir(exist_ok=True)
    _git("worktree", "add", "--detach", str(path), rev)
    try:
        yield path
    finally:
        remove_worktree(path)


def remove_worktree(path: Path) -> None:
    git = ["git", "worktree", "remove", "--force", str(path)]
    subprocess.run(git, cwd=ROOT, capture_output=True)  # fails when there is none
    shutil.rmtree(path, ignore_errors=True)
    _git("worktree", "prune")


def run_artifacts(tree: Path, out: Path, env: dict[str, str] | None = None) -> None:
    """Every ``ARTIFACT_COMMANDS`` entry on ``tree``'s library, into ``out/<name>``.

    ``env`` is merged into each subprocess's environment; a ``PYTHONPATH``
    there goes before ``tree``'s ``src/``.
    """
    path = [p for p in [(env or {}).get("PYTHONPATH"), str(tree / "src")] if p]
    env = os.environ | (env or {}) | {"PYTHONPATH": os.pathsep.join(path)}
    for name, commands in ARTIFACT_COMMANDS.items():
        target = out / name
        target.mkdir(parents=True)
        for argv in commands:
            argv = [arg.replace("{out}", str(target)) for arg in argv]
            subprocess.run(
                [sys.executable, "-m", "oodsynth", *argv],
                env=env, check=True, stdout=subprocess.DEVNULL,
            )


def compare_artifacts(parent_dir: Path, change_dir: Path) -> str | list[str]:
    """The string "identical" when both directories digest alike, else the files that differ."""
    parent, change = artifact_digests(parent_dir), artifact_digests(change_dir)
    names = parent.keys() | change.keys()
    return sorted(name for name in names if parent.get(name) != change.get(name)) or "identical"


def pair_stats(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, interquartile ranges, ratio and wins of paired runs of one metric.

    Pair i is ``(parent[i], change[i])``; the change wins it when its
    value is strictly better, lower or higher as ``better`` says.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    p, c = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    p_med, c_med = float(np.median(p)), float(np.median(c))
    p_q1, p_q3 = np.percentile(p, [25, 75])
    c_q1, c_q3 = np.percentile(c, [25, 75])
    wins = int(np.sum(c < p if better == "lower" else c > p))
    gain = p_med - c_med if better == "lower" else c_med - p_med
    parent_iqr = float(p_q3 - p_q1)
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "parent_iqr": parent_iqr,
        "change_iqr": float(c_q3 - c_q1),
        "ratio": c_med / p_med if p_med else None,
        "wins": wins,
        "pairs": len(p),
        "gain_beyond_noise": wins >= math.ceil(MIN_WIN_SHARE * len(p)) and gain > parent_iqr,
    }


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result, environment) of one ``perfbench/run.py --trace 0`` subprocess on ``tree``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, check=True, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    env = next(line.split(" ", 1)[1] for line in lines if line.startswith("environment "))
    return json.loads(lines[-1]), json.loads(env)


def run_problems(workload: str, results: dict[str, list[dict]]) -> list[str]:
    """Why one workload's runs ``results[side][pair]`` reject the change: each incorrect
    run, and a change that failed a larger share of its ops than the parent."""
    problems = [
        f"{workload}: the {side} run of pair {i} reported correct: false"
        for side, runs in results.items() for i, result in enumerate(runs) if not result["correct"]
    ]
    share = {side: sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
             for side, runs in results.items()}
    if share["change"] > share["parent"]:
        pairs = [i for i, result in enumerate(results["change"]) if result["failed"]]
        problems.append(f"{workload}: the change failed {share['change']:.3%} of its ops against"
                        f" the parent's {share['parent']:.3%}, in pairs {pairs}")
    return problems


def bench_workload(
    trees: dict[str, Path], workload: str, metrics: list[dict], pairs: int, seconds: float
) -> tuple[dict, dict]:
    """(report, change environment) of ``pairs`` alternating pairs of one workload."""
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    env = None
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result, run_env = bench_run(trees[side], workload, i, seconds)
            results[side].append(result)
            if side == "change" and env is None:
                env = run_env
            value = result["metrics"]
            print(f"{workload} pair {i} {side}: " + " ".join(
                f"{m['name']}={value[m['name']]['value']:.4g}" for m in metrics
            ), file=sys.stderr, flush=True)
    report = {
        "seeds": list(range(pairs)),
        "correct": {side: all(r["correct"] for r in runs) for side, runs in results.items()},
        "failed_ops": {side: sum(r["failed"] for r in runs) for side, runs in results.items()},
        "problems": run_problems(workload, results),
        "metrics": {},
    }
    for m in metrics:
        values = {
            side: [r["metrics"][m["name"]]["value"] for r in runs] for side, runs in results.items()
        }
        report["metrics"][m["name"]] = {
            "unit": m["unit"], "better": m["better"],
            **pair_stats(values["parent"], values["change"], m["better"]),
            **values,
        }
    return report, env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--pairs", type=int, required=True, help="0 compares artifacts alone")
    parser.add_argument("--seconds", type=float, help="per run.py run; needed with pairs")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<PR>.json to write")
    parser.add_argument("--note", default=None, help="a remark recorded with the results")
    args = parser.parse_args(argv)
    if args.pairs < 0 or (args.pairs > 0 and (args.seconds is None or args.seconds <= 0)):
        parser.error("need --pairs >= 0, and --seconds > 0 with pairs")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = {
        "base": {"rev": args.base, "commit": _git("rev-parse", args.base)},
        "change": {
            "commit": _git("rev-parse", "HEAD"),
            # uncommitted edits to what the benchmark runs
            "dirty": bool(_git("status", "--porcelain", "--", "src", "perfbench")),
        },
        "pairs": args.pairs,
        "seconds": args.seconds,
        "note": args.note,
    }
    with parent_tree(args.base) as parent:
        trees = {"parent": parent, "change": ROOT}
        out = TMP_DIR / "bench_pairs-artifacts"
        shutil.rmtree(out, ignore_errors=True)
        try:
            for side, tree in trees.items():
                run_artifacts(tree, out / side)
            doc["artifacts"] = compare_artifacts(out / "parent", out / "change")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        print(f"artifacts: {doc['artifacts']}", file=sys.stderr, flush=True)
        doc["workloads"] = {}
        for workload in benchmark["workloads"] if args.pairs else []:
            name = workload["name"]
            doc["workloads"][name], env = bench_workload(
                trees, name, benchmark["end_to_end"], args.pairs, args.seconds
            )
            doc.setdefault("environment", env)
    doc.setdefault("environment", {})["blas_core"] = blas.core_name()
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    problems = [line for report in doc["workloads"].values() for line in report["problems"]]
    for line in problems:
        print(f"rejected: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
