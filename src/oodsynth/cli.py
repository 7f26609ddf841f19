"""Command-line interface.

Subcommands:
    gen     generate a synthetic ID store and write it to disk
    synth   synthesize one outlier batch and export it
    run     full experiment loop with artifacts
    sweep   ablation sweep over one config axis
    score   detection metrics from score files
    digest  sha256 of each deterministic artifact under a directory, then of all

Every flag mirrors a BenchConfig field; ``--config FILE`` supplies a JSON
document with any subset of fields, and explicit flags override the file.
``--out-dir`` (the ``out_dir`` field) is where ``run`` writes its artifacts
(default ``runs/latest``) and where ``sweep`` writes one run directory per
value, named ``{axis}_{value}``, plus ``sweep.csv`` (default ``runs/sweep``).
Exit codes: 0 success, 2 config error (including an output path that
cannot be written), 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .bench import (
    SWEEP_AXES,
    BenchConfig,
    _synthesize,
    ablation_sweep,
    generate_synthetic_id,
    run_experiment,
)
from .digest import artifact_digests, combined_digest
from .errors import BadConfigError, ConfigError, DataError, NumericalError
from .metrics import score_report
from .samplers import SamplerVariant
from .store import IdStore
from .synthesis import write_batch_csv, write_batch_json, write_trace_jsonl

# One row per config flag: (option strings, config field, add_argument
# keywords). ``BenchConfig.with_fields`` places each field in its section.
_CONFIG_FLAGS = (
    (("--dim",), "dim", {"type": int}),
    (("--classes",), "num_classes", {"type": int}),
    (("--points-per-class",), "points_per_class", {"type": int}),
    (("--cluster-kappa",), "cluster_kappa", {"type": float}),
    (("--seed",), "seed", {"type": int}),
    (("--k",), "knn_k", {"type": int, "help": "k for the synthesis OOD-ness distance"}),
    (("--k-detect",), "k_detect", {"type": int, "help": "k for the inference-time detector"}),
    (("--delta",), "delta", {"type": float, "help": "hard margin"}),
    (("--kappa",), "kappa", {"type": float, "help": "vMF KDE bandwidth"}),
    (("--loss-kappa",), "loss_kappa", {"type": float}),
    (("--lambda-d",), "lambda_d", {"type": float}),
    (("--n-adj",), "n_adj", {"type": int}),
    (("--ema-factor",), "ema_factor", {"type": float}),
    (("--iterations",), "iterations", {"type": int}),
    (("--insert-per-class",), "insert_per_class", {"type": int}),
    (("--id-test-per-class",), "id_test_per_class", {"type": int}),
    (("--out-dir",), "out_dir", {}),
    (("--leapfrog-steps", "-L"), "leapfrog_steps", {"type": int}),
    (("--step-size",), "step_size", {"type": float}),
    (("--rounds", "-R"), "rounds", {"type": int}),
    (("--variant",), "variant", {"choices": [v.value for v in SamplerVariant]}),
    (("--sampler-seed",), "rng_seed", {"type": int}),
    (("--ood-uniform",), "n_uniform", {"type": int}),
    (("--ood-midpoint",), "n_midpoint", {"type": int}),
    (("--ood-midpoint-kappa",), "midpoint_kappa", {"type": float}),
)


def _dest(flags: tuple[str, ...]) -> str:
    """The attribute argparse stores a flag under: its long name, dashes to underscores."""
    return flags[0][2:].replace("-", "_")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON file with BenchConfig fields")
    g = parser.add_argument_group("config overrides")
    for flags, _, kwargs in _CONFIG_FLAGS:
        g.add_argument(*flags, dest=_dest(flags), **kwargs)


def build_config(args: argparse.Namespace) -> BenchConfig:
    cfg = BenchConfig.load_json(args.config) if args.config is not None else BenchConfig()
    given = {field: getattr(args, _dest(flags), None) for flags, field, _ in _CONFIG_FLAGS}
    return cfg.with_fields(**{field: value for field, value in given.items() if value is not None})


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    store = generate_synthetic_id(cfg)
    store.save(args.out)
    shape = f"{cfg.num_classes} classes x {cfg.points_per_class} points"
    print(f"wrote store with {shape} to {args.out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    store = IdStore.load(args.store) if args.store else generate_synthetic_id(cfg)
    batch = _synthesize(cfg, store.snapshot(), cfg.hmc)
    out = Path(args.out)
    if out.suffix == ".csv":
        write_batch_csv(batch, out)
    else:
        write_batch_json(batch, out)
    if args.trace:
        write_trace_jsonl(batch, args.trace)
    print(f"synthesized {len(batch)} outliers over {len(batch.chains)} chains -> {out}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    if cfg.out_dir is None:
        cfg = cfg.with_fields(out_dir="runs/latest")
    last = run_experiment(cfg, trace=args.trace)[-1]
    print(
        f"run complete: {cfg.iterations} iterations, final fpr95={last.report.fpr95:.4f} "
        f"auroc={last.report.auroc:.4f} aupr={last.report.aupr:.4f} -> {cfg.out_dir}"
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise BadConfigError(f"sweep axis {args.axis!r} got no values from {args.values!r}")
    if cfg.out_dir is None:
        cfg = cfg.with_fields(out_dir="runs/sweep")
    rows = ablation_sweep(cfg, args.axis, values)
    for r in rows:
        print(
            f"{r['axis']}={r['value']}: fpr95={r['fpr95']:.4f} auroc={r['auroc']:.4f} "
            f"aupr={r['aupr']:.4f} synth={r['synth_time_ms']:.1f}ms"
        )
    print(f"sweep table -> {Path(cfg.out_dir) / 'sweep.csv'}")
    return 0


def _read_scores(path: Path, key: str) -> np.ndarray:
    """Scores from a JSON array, a JSON object's ``key`` array, or a CSV first column.

    A JSON element that is a bool or a string is an error, not a score. A
    CSV file may start with one header line; any later row whose first
    cell is not a number is an error, never a silently dropped score.
    """
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read score file {path}: {err}") from err
    if path.suffix == ".json":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise DataError(f"{path} is not valid JSON: {err}") from err
        if isinstance(doc, dict):
            if key not in doc:
                raise DataError(f"{path} has no {key!r} key")
            doc = doc[key]
        # numpy would read true as 1.0 and "0.1" as 0.1
        for value in doc if isinstance(doc, list) else ():
            if isinstance(value, (bool, str)):
                raise DataError(f"{path}: {key} holds {json.dumps(value)}, not a number")
        try:
            scores = np.asarray(doc, dtype=float)
        except (TypeError, ValueError, OverflowError) as err:  # OverflowError: an int past 1e308
            raise DataError(f"{path}: {key} is not a numeric array") from err
        if scores.ndim != 1:
            raise DataError(f"{path}: {key} is not a flat array of scores")
        return scores
    values = []
    for line_no, row in enumerate(csv.reader(text.splitlines()), start=1):
        if not row:
            continue
        try:
            values.append(float(row[0]))
        except ValueError:
            if line_no == 1:
                continue  # header line
            raise DataError(f"{path} line {line_no}: {row[0]!r} is not a number") from None
    return np.asarray(values)


def cmd_score(args: argparse.Namespace) -> int:
    id_scores = _read_scores(Path(args.id_scores), "id_scores")
    ood_scores = _read_scores(Path(args.ood_scores), "ood_scores")
    report = score_report(id_scores, ood_scores)
    if args.out:
        report.save_json(args.out, include_scores=False)
    if args.csv:
        report.save_csv(args.csv)
    print(
        f"fpr95={report.fpr95:.4f} auroc={report.auroc:.4f} "
        f"aupr={report.aupr:.4f} threshold={report.threshold:.4f}"
    )
    return 0


def cmd_digest(args: argparse.Namespace) -> int:
    digests = artifact_digests(args.dir)
    for name, digest in digests.items():
        print(f"{digest}  {name}")
    print(f"{combined_digest(digests)}  (all {len(digests)} artifacts)")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oodsynth",
        description="Hyperspherical virtual-outlier synthesis and OOD evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic ID store")
    _add_config_flags(p_gen)
    p_gen.add_argument("--out", required=True, help="store file, binary IDSTORE1 format")
    p_gen.set_defaults(func=cmd_gen)

    p_synth = sub.add_parser("synth", help="synthesize one outlier batch")
    _add_config_flags(p_synth)
    p_synth.add_argument(
        "--store", help="existing IDSTORE1 store file; default: generate from config"
    )
    p_synth.add_argument("--out", required=True, help="batch file (.json or .csv)")
    p_synth.add_argument("--trace", help="write per-transition JSON lines here")
    p_synth.set_defaults(func=cmd_synth)

    p_run = sub.add_parser("run", help="run the full experiment loop")
    _add_config_flags(p_run)
    p_run.add_argument("--trace", action="store_true", help="emit trace.jsonl for the last batch")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="ablation sweep over one axis")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_score = sub.add_parser("score", help="compute metrics from score files")
    p_score.add_argument("--id-scores", required=True)
    p_score.add_argument("--ood-scores", required=True)
    p_score.add_argument("--out", help="write report JSON here")
    p_score.add_argument("--csv", help="write metric,value CSV here")
    p_score.set_defaults(func=cmd_score)

    p_digest = sub.add_parser(
        "digest", help="sha256 of each deterministic artifact under a directory, then of all"
    )
    p_digest.add_argument("dir", help="a run, synth or sweep output directory")
    p_digest.set_defaults(func=cmd_digest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 4
    except OSError as err:  # inputs raise DataError or ConfigError; this is an output
        print(f"config error: cannot write output: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
