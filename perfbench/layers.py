"""The wrap sites of the traced run and the per-layer metrics built from them.

FLOP and byte counts are computed from argument shapes, not measured.
They count a kNN or KDE query as inner products against the reference
(2 * rows * N * d flops) and its bytes as the compulsory traffic: the
reference and the query rows read once, 8 bytes per float64. A single-row
query therefore has about 0.25 flop/byte whatever kernel runs it.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .spans import ROOT, Wrap


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _query_cost(prefix, rows, n, d):
    return {
        f"{prefix}.gflop": 2.0 * rows * n * d / 1e9,
        f"{prefix}.gbytes": 8.0 * (n * d + rows * d) / 1e9,
    }


def _rows(points):
    shape = np.shape(points)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _knn_distance(args, kwargs, result):
    store, z = args[0], _arg(args, kwargs, 2, "z")
    n = store.count(_arg(args, kwargs, 1, "class_id"))
    return _query_cost("store.knn_distance", _rows(z), n, np.shape(z)[-1])


def _class_densities(args, kwargs, result):
    store, z = _arg(args, kwargs, 0, "store"), _arg(args, kwargs, 1, "z")
    n = int(store.class_offsets()[-1])
    return _query_cost("energy.log_class_densities", _rows(z), n, np.shape(z)[-1])


def _knn_scores(args, kwargs, result):
    n, d = np.shape(_arg(args, kwargs, 0, "reference"))
    rows = len(result)
    return {"metrics.knn_scores.queries": rows} | _query_cost("metrics.knn_scores", rows, n, d)


def _file_mb(name):
    def count(args, kwargs, result):  # args[0] is the store, or its class for load
        return {f"{name}.mb": os.path.getsize(_arg(args, kwargs, 1, "path")) / 1e6}

    return count


def _transition(args, kwargs, result):
    _, rec = result
    return {
        "samplers.transitions": 1,
        "samplers.mh_accept": rec.mh_accept,
        "samplers.margin_pass": rec.margin_pass,
        "samplers.accepted": rec.accepted,
        # a round whose momentum retries all hit a degenerate point
        "samplers.degenerate_rejections": math.isnan(rec.h_init),
    }


def _batch(args, kwargs, result):
    return {"synthesis.chains": len(result.chains), "synthesis.skipped_pairs": len(result.skipped)}


def _vmf(args, kwargs, result):
    return {"bench.sample_vmf.samples": len(result)}


# Functions imported by name are wrapped in the importing module, where the
# caller looks them up; a function with two callers is wrapped at both.
WRAPS = (
    Wrap("oodsynth.store:IdStore.knn_distance", "store.knn_distance", _knn_distance),
    Wrap("oodsynth.store:IdStore.insert", "store.insert"),
    Wrap("oodsynth.store:IdStore.update_prototype", "store.update_prototype"),
    Wrap("oodsynth.store:IdStore.snapshot", "store.snapshot"),
    Wrap("oodsynth.store:IdStore.all_embeddings", "store.all_embeddings"),
    Wrap("oodsynth.store:IdStore.save", "store.save", _file_mb("store.save")),
    Wrap("oodsynth.store:IdStore.load", "store.load", _file_mb("store.load")),
    Wrap("oodsynth.energy:EnergyContext.value_and_grad", "energy.value_and_grad"),
    Wrap("oodsynth.energy:EnergyContext.margin_exceeds", "energy.margin_exceeds"),
    Wrap("oodsynth.synthesis:hard_margin_threshold", "energy.hard_margin_threshold"),
    Wrap("oodsynth.energy:neg_log_max_id_prob", "energy.neg_log_max_id_prob"),
    Wrap("oodsynth.energy:log_class_densities", "energy.log_class_densities", _class_densities),
    Wrap("oodsynth.synthesis:transition", "samplers.transition", _transition),
    Wrap("oodsynth.samplers:geodesic_step", "sphere.geodesic_step"),
    Wrap("oodsynth.bench:synthesize_batch", "synthesis.synthesize_batch", _batch),
    Wrap("oodsynth.synthesis:synthesize_batch", "synthesis.synthesize_batch", _batch),
    Wrap("oodsynth.bench:round_wise_scores", "synthesis.round_wise_scores"),
    Wrap("oodsynth.bench:batch_to_dict", "synthesis.batch_to_dict"),
    Wrap("oodsynth.bench:ood_discernment_loss", "objectives.ood_discernment_loss"),
    Wrap("oodsynth.bench:cider_losses", "objectives.cider_losses"),
    Wrap("oodsynth.bench:knn_scores", "metrics.knn_scores", _knn_scores),
    Wrap("oodsynth.metrics:knn_scores", "metrics.knn_scores", _knn_scores),
    Wrap("oodsynth.synthesis:knn_score", "metrics.knn_score"),
    Wrap("oodsynth.bench:score_report", "metrics.score_report"),
    Wrap("oodsynth.metrics:score_report", "metrics.score_report"),
    Wrap("oodsynth.metrics:auroc", "metrics.auroc"),
    Wrap("oodsynth.metrics:aupr", "metrics.aupr"),
    Wrap("oodsynth.bench:hypersphere_quality", "metrics.hypersphere_quality"),
    Wrap("oodsynth.bench:sample_vmf", "bench.sample_vmf", _vmf),
    Wrap("oodsynth.bench:generate_synthetic_id", "bench.generate_synthetic_id"),
    Wrap("oodsynth.bench:make_ood_test_set", "bench.make_ood_test_set"),
    Wrap("oodsynth.cli:run_experiment", "bench.run_experiment"),
    Wrap("oodsynth.cli:main", "cli.main"),
)

# Per-op metrics read straight from the span summary: (name, unit).
_OP_METRICS = [
    ("store.knn_distance.calls", "count"),
    ("store.knn_distance.s", "s"),
    ("store.knn_distance.gflop", "GFLOP"),
    ("store.knn_distance.gbytes", "GB"),
    ("store.insert.s", "s"),
    ("store.update_prototype.s", "s"),
    ("store.snapshot.s", "s"),
    ("store.all_embeddings.s", "s"),
    ("store.save.s", "s"),
    ("store.save.mb", "MB"),
    ("store.load.s", "s"),
    ("store.load.mb", "MB"),
    ("energy.value_and_grad.calls", "count"),
    ("energy.value_and_grad.s", "s"),
    ("energy.margin_exceeds.calls", "count"),
    ("energy.margin_exceeds.s", "s"),
    ("energy.hard_margin_threshold.calls", "count"),
    ("energy.hard_margin_threshold.s", "s"),
    ("energy.neg_log_max_id_prob.s", "s"),
    ("energy.log_class_densities.s", "s"),
    ("energy.log_class_densities.gflop", "GFLOP"),
    ("energy.log_class_densities.gbytes", "GB"),
    ("samplers.transition.calls", "count"),
    ("samplers.transition.s", "s"),
    ("samplers.degenerate_rejections", "count"),
    ("sphere.geodesic_step.calls", "count"),
    ("sphere.geodesic_step.s", "s"),
    ("synthesis.synthesize_batch.s", "s"),
    ("synthesis.chains", "count"),
    ("synthesis.skipped_pairs", "count"),
    ("synthesis.round_wise_scores.s", "s"),
    ("synthesis.batch_to_dict.s", "s"),
    ("objectives.ood_discernment_loss.s", "s"),
    ("objectives.cider_losses.s", "s"),
    ("metrics.knn_scores.queries", "count"),
    ("metrics.knn_scores.s", "s"),
    ("metrics.knn_scores.gflop", "GFLOP"),
    ("metrics.knn_scores.gbytes", "GB"),
    ("metrics.knn_score.calls", "count"),
    ("metrics.knn_score.s", "s"),
    ("metrics.score_report.s", "s"),
    ("metrics.auroc.s", "s"),
    ("metrics.aupr.s", "s"),
    ("metrics.hypersphere_quality.s", "s"),
    ("bench.sample_vmf.samples", "count"),
    ("bench.sample_vmf.s", "s"),
    ("bench.generate_synthetic_id.s", "s"),
    ("bench.make_ood_test_set.s", "s"),
    ("bench.run_experiment.s", "s"),
    ("cli.main.s", "s"),
    (ROOT + ".s", "s"),
]

# Set-up is traced once per traced run, apart from the ops.
_SETUP_METRICS = [
    ("bench.generate_synthetic_id.s", "s"),
    ("bench.sample_vmf.s", "s"),
    ("bench.make_ood_test_set.s", "s"),
    ("store.insert.s", "s"),
    ("store.update_prototype.s", "s"),
    ("store.snapshot.s", "s"),
    ("store.save.s", "s"),
    ("store.save.mb", "MB"),
    ("store.load.s", "s"),
    ("store.load.mb", "MB"),
    (ROOT + ".s", "s"),
]

# samplers ratio -> counter it divides by the transition count
_RATIOS = {
    "samplers.mh_accept_ratio": "samplers.mh_accept",
    "samplers.margin_pass_ratio": "samplers.margin_pass",
    "samplers.accept_ratio": "samplers.accepted",
}

_DERIVED = [
    ("samplers.mh_accept_ratio", "ratio", "higher"),
    ("samplers.margin_pass_ratio", "ratio", "higher"),
    ("samplers.accept_ratio", "ratio", "higher"),
    ("energy.degenerate.count", "count", "lower"),
    ("setup.s", "s", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.absent", "count", "lower"),
]


def _better(unit: str) -> str:
    return "higher" if unit == "ratio" else "lower"


# Every per-layer metric the traced run reports: (name, unit, better).
PER_LAYER = (
    [(name, unit, _better(unit)) for name, unit in _OP_METRICS]
    + [(f"setup.{name}", unit, _better(unit)) for name, unit in _SETUP_METRICS]
    + _DERIVED
)


def per_layer_metrics(
    ops: dict[str, float],
    setup: dict[str, float],
    setup_s: float,
    traced_op_s: float,
    untraced_op_s: float,
    absent: int,
) -> dict[str, float]:
    """Assemble every PER_LAYER value from per-op and set-up span summaries.

    A layer that no op called reads 0.
    """
    out = {name: ops.get(name, 0.0) for name, _ in _OP_METRICS}
    out |= {f"setup.{name}": setup.get(name, 0.0) for name, _ in _SETUP_METRICS}
    transitions = ops.get("samplers.transitions", 0.0)
    for name, key in _RATIOS.items():
        out[name] = ops.get(key, 0.0) / transitions if transitions else 0.0
    out["energy.degenerate.count"] = ops.get(
        "energy.value_and_grad.raised.DegenerateDensityError", 0.0
    )
    out["setup.s"] = setup_s
    out["trace.op_s"] = traced_op_s
    out["trace.overhead_ratio"] = traced_op_s / untraced_op_s
    out["trace.absent"] = float(absent)
    return out
