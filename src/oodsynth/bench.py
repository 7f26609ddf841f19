"""Desk-scale experiment harness: synthetic ID clusters, runs, and sweeps.

Synthetic von Mises-Fisher clusters stand in for trained-backbone
embeddings, so every experiment runs in seconds on one core. An
experiment iterates the full loop at embedding scale: refresh the ID
buffers, EMA-update the prototypes, synthesize an outlier batch, compute
the training losses, and score a held-out OOD set (uniform-on-sphere
samples plus vMF clusters centered at pair midpoints, exercising the far
and near OOD regimes).

Reproducibility contract: a run is fully determined by its BenchConfig
(including seeds). Deterministic artifacts (config echo, metric tables,
batch dumps, score files) are byte-identical across invocations;
wall-clock timings are reported separately in ``timings.json`` and are
the only non-deterministic output.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import BadArgError, BadConfigError, require_field_types
from .metrics import (
    QualityAngles,
    ScoreReport,
    hypersphere_quality,
    knn_scores,
    score_report,
    write_csv,
)
from .objectives import (
    cider_losses,
    combined_objective,
    ood_discernment_loss,
    temperature_from_kappa,
)
from .samplers import HmcConfig, SamplerVariant
from .sphere import normalize
from .store import ClusterPair, IdSnapshot, IdStore
from .synthesis import (
    OutlierBatch,
    batch_to_dict,
    gaussian_baseline_batch,
    round_wise_scores,
    synthesize_batch,
    write_trace_jsonl,
)


@dataclass
class OodTestSpec:
    """Held-out OOD generator: uniform sphere plus midpoint-centered vMF blobs."""

    n_uniform: int = 500
    n_midpoint: int = 500
    midpoint_kappa: float = 50.0

    def __post_init__(self):
        require_field_types(self)
        for name in ("n_uniform", "n_midpoint", "midpoint_kappa"):
            if getattr(self, name) < 0:
                raise BadConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class BenchConfig:
    """Everything a run needs; defaults give the standard synthetic benchmark."""

    dim: int = 16
    num_classes: int = 10
    points_per_class: int = 500
    cluster_kappa: float = 20.0
    seed: int = 0
    hmc: HmcConfig = field(default_factory=HmcConfig)
    knn_k: int = 200  # clipped to the smallest buffer at synthesis time
    k_detect: int = 50
    delta: float = 0.1
    kappa: float = 2.0  # KDE bandwidth
    loss_kappa: float = 2.0  # loss temperature is 1 / loss_kappa
    lambda_d: float = 0.1
    n_adj: int = 4  # effective value is min(n_adj, num_classes - 1)
    ema_factor: float = 0.95
    grad_mode: str = "analytic"
    iterations: int = 10
    insert_per_class: int = 32
    id_test_per_class: int = 100
    ood: OodTestSpec = field(default_factory=OodTestSpec)
    out_dir: str | None = None

    def __post_init__(self):
        require_field_types(self)
        if self.num_classes < 2 or self.dim < 2:
            raise BadConfigError("need num_classes >= 2 and dim >= 2")
        if self.seed < 0:
            raise BadConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("points_per_class", "knn_k", "k_detect", "id_test_per_class"):
            if getattr(self, name) < 1:
                raise BadConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.cluster_kappa < 0 or self.kappa <= 0 or self.loss_kappa <= 0:
            raise BadConfigError("cluster_kappa must be >= 0; kappa and loss_kappa > 0")
        if self.delta < 0 or self.lambda_d < 0:
            raise BadConfigError("delta and lambda_d must be nonnegative")
        if self.iterations < 1 or self.insert_per_class < 1:
            raise BadConfigError("iterations and insert_per_class must be >= 1")
        if not 1 <= self.effective_n_adj() <= self.num_classes - 1:
            raise BadConfigError(f"n_adj={self.n_adj} leaves no valid adjacent cluster")
        if self.grad_mode not in ("analytic", "scaled"):
            raise BadConfigError(f"unknown grad_mode {self.grad_mode!r}")

    def effective_n_adj(self, store: IdSnapshot | None = None) -> int:
        """n_adj clipped to the classes of ``store``, or of this config without one."""
        classes = self.num_classes if store is None else store.num_classes
        return min(self.n_adj, classes - 1)

    def effective_k(self, store: IdSnapshot) -> int:
        return min(self.knn_k, min(store.count(c) for c in range(store.num_classes)))

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["hmc"]["variant"] = self.hmc.variant.value
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchConfig":
        doc = dict(doc)
        try:
            hmc_doc = dict(doc.pop("hmc", {}))
            if "variant" in hmc_doc:
                hmc_doc["variant"] = SamplerVariant(hmc_doc["variant"])
            ood_doc = dict(doc.pop("ood", {}))
            return cls(hmc=HmcConfig(**hmc_doc), ood=OodTestSpec(**ood_doc), **doc)
        except (TypeError, ValueError) as err:
            raise BadConfigError(f"invalid config document: {err}") from err

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=2))

    @classmethod
    def load_json(cls, path: str | Path) -> "BenchConfig":
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as err:
            raise BadConfigError(f"cannot read config file {path}: {err}") from err
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as err:
            raise BadConfigError(f"config file {path} is not valid JSON: {err}") from err
        if not isinstance(doc, dict):
            raise BadConfigError(f"config file {path} must hold a JSON object")
        return cls.from_dict(doc)


# -- synthetic data ---------------------------------------------------------


def uniform_sphere(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n points drawn uniformly on the unit sphere in R^dim."""
    g = rng.standard_normal((n, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def sample_vmf(mu: np.ndarray, kappa: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n von Mises-Fisher samples around mean direction mu.

    The cosine of the angle to mu is drawn with the classic rejection
    scheme for the radial component; the remaining direction is uniform in
    the tangent hyperplane. kappa = 0 degenerates to the uniform sphere.
    The log-space acceptance test keeps the scheme stable up to very large
    concentrations (1e6 and beyond). A negative or non-finite kappa is a
    BadArgError.
    """
    if not 0.0 <= kappa < math.inf:
        raise BadArgError(f"vMF kappa must be finite and >= 0, got {kappa}")
    mu = normalize(mu)
    d = mu.size
    if kappa == 0.0:
        return uniform_sphere(n, d, rng)
    dm = d - 1
    b = dm / (math.sqrt(4.0 * kappa**2 + dm**2) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    # log(1 - x0^2) assembled from b to stay finite as x0 -> 1
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
    tangent -= np.outer(tangent @ mu, mu)
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    out = ws[:, None] * mu + np.sqrt(np.maximum(0.0, 1.0 - ws**2))[:, None] * tangent
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def generate_synthetic_id(cfg: BenchConfig) -> IdStore:
    """Seeded synthetic store: uniform prototypes, vMF clusters, full buffers."""
    proto_seed, data_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    proto_rng = np.random.default_rng(proto_seed)
    data_rng = np.random.default_rng(data_seed)
    centers = uniform_sphere(cfg.num_classes, cfg.dim, proto_rng)
    store = IdStore(cfg.num_classes, cfg.dim, cfg.points_per_class, cfg.ema_factor)
    for c in range(cfg.num_classes):
        points = sample_vmf(centers[c], cfg.cluster_kappa, cfg.points_per_class, data_rng)
        store.insert_batch(points, np.full(len(points), c))
        store.update_prototype(c, points.mean(axis=0))
    return store


def _cluster_centers(cfg: BenchConfig) -> np.ndarray:
    proto_seed, _ = np.random.SeedSequence(cfg.seed).spawn(2)
    return uniform_sphere(cfg.num_classes, cfg.dim, np.random.default_rng(proto_seed))


def make_ood_test_set(cfg: BenchConfig, store: IdStore, rng: np.random.Generator) -> np.ndarray:
    """Held-out OOD points: uniform sphere plus vMF blobs at pair midpoints."""
    snapshot = store.snapshot()
    parts = []
    if cfg.ood.n_uniform > 0:
        parts.append(uniform_sphere(cfg.ood.n_uniform, cfg.dim, rng))
    if cfg.ood.n_midpoint > 0:
        midpoints = []
        for c in range(cfg.num_classes):
            for j in snapshot.adjacent_clusters(c, cfg.effective_n_adj()):
                midpoints.append(snapshot.midpoint(ClusterPair(c, j)))
        counts = np.bincount(
            np.arange(cfg.ood.n_midpoint) % len(midpoints), minlength=len(midpoints)
        )
        for b, cnt in zip(midpoints, counts):
            if cnt:
                parts.append(sample_vmf(b, cfg.ood.midpoint_kappa, int(cnt), rng))
    if not parts:
        raise BadConfigError("OOD test spec generates no samples")
    return np.concatenate(parts, axis=0)


# -- experiment loop --------------------------------------------------------


@dataclass
class IterationResult:
    iteration: int
    batch: OutlierBatch
    report: ScoreReport
    quality: QualityAngles
    losses: dict[str, float]
    mh_acceptance: float
    batch_scores: np.ndarray  # detection score of each batch sample, in batch order
    synth_time_ms: float
    score_time_ms: float


@dataclass
class RunArtifacts:
    iterations: list[IterationResult]
    out_dir: Path | None


def _rejection_counts(batch: OutlierBatch) -> dict[str, int]:
    """Why rounds produced no outlier, counted over the batch's transition records.

    A NaN ``h_init`` marks a degenerate rejection (the proposal met a
    degenerate point); otherwise a failed MH test is an MH rejection, and a
    passed MH test with a failed margin test is a margin rejection.
    """
    records = [rec for chain in batch.chains for rec in chain.records]
    degenerate = [math.isnan(rec.h_init) for rec in records]
    return {
        "mh_rejections": sum(
            not rec.mh_accept and not bad for rec, bad in zip(records, degenerate)
        ),
        "margin_rejections": sum(rec.mh_accept and not rec.margin_pass for rec in records),
        "degenerate_rejections": sum(degenerate),
        "skipped_pairs": len(batch.skipped),
    }


def _iteration_row(res: IterationResult) -> dict:
    row = {
        "iteration": res.iteration,
        "batch_size": len(res.batch),
        "mh_acceptance": res.mh_acceptance,
        **_rejection_counts(res.batch),
        "batch_score_mean": float(res.batch_scores.mean()) if len(res.batch) else math.nan,
        "batch_score_std": float(res.batch_scores.std()) if len(res.batch) else math.nan,
        "fpr95": res.report.fpr95,
        "auroc": res.report.auroc,
        "aupr": res.report.aupr,
        "threshold": res.report.threshold,
        "separation_deg": res.quality.separation_deg,
        "dispersion_deg": res.quality.dispersion_deg,
        "compactness_deg": res.quality.compactness_deg,
    }
    row.update(res.losses)
    return row


def run_experiment(cfg: BenchConfig, trace: bool = False) -> RunArtifacts:
    """Execute the full loop for ``cfg.iterations`` iterations.

    When ``cfg.out_dir`` is set, artifacts are written there; whatever has
    been produced is flushed even if an iteration aborts.
    """
    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    store = generate_synthetic_id(cfg)
    centers = _cluster_centers(cfg)
    ss = np.random.SeedSequence(cfg.seed + 1)
    id_test_seed, ood_seed, *iter_seeds = ss.spawn(2 + cfg.iterations)
    id_rng = np.random.default_rng(id_test_seed)
    id_test = np.concatenate(
        [
            sample_vmf(centers[c], cfg.cluster_kappa, cfg.id_test_per_class, id_rng)
            for c in range(cfg.num_classes)
        ]
    )
    id_labels = np.repeat(np.arange(cfg.num_classes), cfg.id_test_per_class)
    ood_test = make_ood_test_set(cfg, store, np.random.default_rng(ood_seed))
    tau = temperature_from_kappa(cfg.loss_kappa)

    results: list[IterationResult] = []
    try:
        for t in range(1, cfg.iterations + 1):
            iter_rng = np.random.default_rng(iter_seeds[t - 1])
            for c in range(cfg.num_classes):
                fresh = sample_vmf(centers[c], cfg.cluster_kappa, cfg.insert_per_class, iter_rng)
                store.insert_batch(fresh, np.full(len(fresh), c))
                store.update_prototype(c, fresh.mean(axis=0))
            snapshot = store.snapshot()
            hmc_cfg = dataclasses.replace(cfg.hmc, rng_seed=cfg.hmc.rng_seed + t - 1)
            t0 = time.perf_counter()
            batch = synthesize_batch(
                snapshot,
                hmc_cfg,
                k=cfg.effective_k(snapshot),
                delta=cfg.delta,
                kappa=cfg.kappa,
                n_adj=cfg.effective_n_adj(),
                grad_mode=cfg.grad_mode,
            )
            synth_ms = (time.perf_counter() - t0) * 1000.0
            prototypes = snapshot.prototypes
            if len(batch):
                ood_disc = ood_discernment_loss(batch.positions(), prototypes, tau)
            else:
                ood_disc = 0.0  # empty batch: the discernment term is skipped
            l_disp, l_comp = cider_losses(id_test, id_labels, prototypes, tau)
            losses = {
                "ood_disc_loss": ood_disc,
                "dispersion_loss": l_disp,
                "compactness_loss": l_comp,
                "combined_objective": combined_objective(
                    0.0, l_disp + l_comp, ood_disc, cfg.lambda_d
                ),
            }
            reference = snapshot.embeddings
            k_det = min(cfg.k_detect, reference.shape[0])
            t0 = time.perf_counter()
            id_scores = knn_scores(reference, id_test, k_det)
            ood_scores = knn_scores(reference, ood_test, k_det)
            report = score_report(id_scores, ood_scores)
            batch_scores = knn_scores(reference, batch.positions(), k_det)
            score_ms = (time.perf_counter() - t0) * 1000.0
            quality = hypersphere_quality(ood_test, id_test, id_labels, prototypes)
            records = [rec for chain in batch.chains for rec in chain.records]
            mh_rate = (
                float(np.mean([rec.mh_accept for rec in records])) if records else float("nan")
            )
            results.append(
                IterationResult(
                    iteration=t,
                    batch=batch,
                    report=report,
                    quality=quality,
                    losses=losses,
                    mh_acceptance=mh_rate,
                    batch_scores=batch_scores,
                    synth_time_ms=synth_ms,
                    score_time_ms=score_ms,
                )
            )
    finally:
        if out_dir:
            _flush_artifacts(cfg, results, out_dir, store, trace)
    return RunArtifacts(iterations=results, out_dir=out_dir)


def _flush_artifacts(
    cfg: BenchConfig,
    results: list[IterationResult],
    out_dir: Path,
    store: IdStore,
    trace: bool,
) -> None:
    cfg.save_json(out_dir / "config.json")
    rows = [_iteration_row(r) for r in results]
    if rows:
        write_csv(out_dir / "metrics.csv", list(rows[0]), [row.values() for row in rows])
    else:  # the first iteration aborted
        (out_dir / "metrics.csv").write_text("")
    with open(out_dir / "batches.jsonl", "w") as fh:
        for r in results:
            fh.write(json.dumps(batch_to_dict(r.batch), sort_keys=True) + "\n")
    if results:
        last = results[-1]
        last.report.save_json(out_dir / "scores_final.json")
        if len(last.batch):
            rws = round_wise_scores(last.batch, last.batch_scores)
            write_csv(
                out_dir / "round_scores.csv",
                ["round", "count", "mean", "std", "min", "max"],
                [[r.round, len(r.scores), r.mean, r.std, r.min, r.max] for r in rws],
            )
        if trace:
            write_trace_jsonl(last.batch, out_dir / "trace.jsonl")
    timings = {
        "synth_time_ms": [r.synth_time_ms for r in results],
        "score_time_ms": [r.score_time_ms for r in results],
    }
    (out_dir / "timings.json").write_text(json.dumps(timings))
    store.save(out_dir / "store.idstore")


# -- ablation sweeps --------------------------------------------------------

# sweep axis -> (nested config holding the field, or None; field; value type)
_SWEEP_FIELDS = {
    "lambda_d": (None, "lambda_d", float),
    "k": (None, "knn_k", int),
    "delta": (None, "delta", float),
    "L": ("hmc", "leapfrog_steps", int),
    "eps": ("hmc", "step_size", float),
    "n_adj": (None, "n_adj", int),
    "R": ("hmc", "rounds", int),
    "variant": ("hmc", "variant", SamplerVariant),
}
SWEEP_AXES = tuple(_SWEEP_FIELDS)


def _apply_axis(cfg: BenchConfig, axis: str, value) -> BenchConfig:
    if axis not in _SWEEP_FIELDS:
        raise BadArgError(f"unknown sweep axis {axis!r}; valid axes: {SWEEP_AXES}")
    section, name, kind = _SWEEP_FIELDS[axis]
    try:
        value = kind(value)
    except ValueError as err:
        raise BadConfigError(f"sweep axis {axis!r} cannot take the value {value!r}") from err
    if section == "hmc":
        return dataclasses.replace(cfg, hmc=dataclasses.replace(cfg.hmc, **{name: value}))
    return dataclasses.replace(cfg, **{name: value})


@dataclass
class SweepRow:
    axis: str
    value: str
    fpr95: float
    auroc: float
    aupr: float
    batch_size: int
    mh_acceptance: float
    synth_time_ms: float


def ablation_sweep(
    cfg: BenchConfig, axis: str, values, out_dir: str | Path | None = None
) -> list[SweepRow]:
    """One run per axis value under a shared seed; returns the merged table."""
    rows: list[SweepRow] = []
    out_dir = Path(out_dir) if out_dir else None
    for value in values:
        sub = _apply_axis(cfg, axis, value)
        if out_dir:
            sub = dataclasses.replace(sub, out_dir=str(out_dir / f"{axis}_{value}"))
        art = run_experiment(sub)
        last = art.iterations[-1]
        rows.append(
            SweepRow(
                axis=axis,
                value=str(value),
                fpr95=last.report.fpr95,
                auroc=last.report.auroc,
                aupr=last.report.aupr,
                batch_size=len(last.batch),
                mh_acceptance=last.mh_acceptance,
                synth_time_ms=float(
                    np.mean([r.synth_time_ms for r in art.iterations])
                ),
            )
        )
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        names = [f.name for f in dataclasses.fields(SweepRow)]
        write_csv(out_dir / "sweep.csv", names, ([getattr(r, n) for n in names] for r in rows))
    return rows


# -- diversity comparison ----------------------------------------------------


def diversity_stds(cfg: BenchConfig, seed: int) -> tuple[float, float]:
    """Detection-score spread of HMC synthesis vs the Gaussian baseline.

    The baseline uses sigma equal to the sampler step size and is truncated
    to the same sample count as the synthesized batch.
    """
    cfg = dataclasses.replace(
        cfg, seed=seed, hmc=dataclasses.replace(cfg.hmc, rng_seed=seed)
    )
    store = generate_synthetic_id(cfg)
    snapshot = store.snapshot()
    batch = synthesize_batch(
        snapshot,
        cfg.hmc,
        k=cfg.effective_k(snapshot),
        delta=cfg.delta,
        kappa=cfg.kappa,
        n_adj=cfg.effective_n_adj(),
        grad_mode=cfg.grad_mode,
    )
    if not len(batch):
        raise BadArgError(f"synthesis produced an empty batch at seed {seed}")
    n_pairs = len(batch.chains)
    per_pair = math.ceil(len(batch) / n_pairs)
    baseline = gaussian_baseline_batch(
        snapshot, sigma=cfg.hmc.step_size, count_per_pair=per_pair, n_adj=cfg.effective_n_adj(), seed=seed
    )
    base_positions = baseline.positions()[: len(batch)]
    reference = snapshot.embeddings
    k_det = min(cfg.k_detect, reference.shape[0])
    std_h = float(knn_scores(reference, batch.positions(), k_det).std())
    std_g = float(knn_scores(reference, base_positions, k_det).std())
    return std_h, std_g
