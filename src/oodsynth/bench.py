"""Desk-scale experiment harness: synthetic ID clusters, runs, and sweeps.

Synthetic von Mises-Fisher clusters stand in for trained-backbone
embeddings, so every experiment runs in seconds on one core. An
experiment iterates the full loop at embedding scale: refresh the ID
buffers, EMA-update the prototypes, synthesize an outlier batch, compute
the training losses, and score a held-out OOD set (uniform-on-sphere
samples plus vMF clusters centered at pair midpoints, exercising the far
and near OOD regimes).

Reproducibility contract: a run is fully determined by its BenchConfig
(including seeds), at any BLAS thread count and on any OpenBLAS kernel
(``OPENBLAS_CORETYPE``) but for one field. Deterministic artifacts (config
echo, metric tables, batch dumps, score files) are byte-identical across
invocations; wall-clock timings are reported separately in
``timings.json`` and are the only non-deterministic output. Data
generation, the losses and the quality angles take their norms and dot
products from numpy's own reductions, never from BLAS, and the kNN
rankings select exactly on any kernel. Only the KDE GEMM, and so each
chain's written ``t_minus``, rounds per kernel: a kernel without FMA
(Sandybridge) changes it in its last bits.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import blas
from .errors import AntipodalPrototypesError, BadArgError, BadConfigError, require_field_types
from .metrics import (
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
from .store import MAX_CLASSES, MAX_DIM, MAX_PROTOTYPE_ENTRIES, IdSnapshot, IdStore
from .synthesis import (
    OutlierBatch,
    batch_to_dict,
    gaussian_baseline_batch,
    round_summary,
    round_wise_scores,
    synthesize_batch,
    write_trace_jsonl,
)

# beyond it the vMF radial scheme fails in math.log or never accepts; it also
# bounds loss_kappa, whose logits (at most loss_kappa) then stay finite in the
# losses, and lambda_d, whose product with the discernment loss then stays finite
VMF_MAX_KAPPA = 1e15
# elements per row block of sample_vmf's in-place tangent tail: a block's
# temporaries stay near 512 KB whatever the sample count
VMF_BLOCK_ELEMENTS = 2**16
# entries of the largest float64 array a config may size (1 GiB): the store's
# rows, the detector's query buffer and the refresh draw
MAX_ARRAY_ENTRIES = 2**27
# a run spawns the seed of every iteration before the first (25 MB at the bound)
MAX_ITERATIONS = 2**16


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
        if self.midpoint_kappa > VMF_MAX_KAPPA:
            raise BadConfigError(
                f"midpoint_kappa must be <= {VMF_MAX_KAPPA:g}, got {self.midpoint_kappa}"
            )
        if self.n_uniform + self.n_midpoint < 1:
            raise BadConfigError("OOD test spec generates no samples")


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
    grad_mode: str = "analytic"  # read by perfbench/workloads.py until ROADMAP item 2
    iterations: int = 10
    insert_per_class: int = 32
    id_test_per_class: int = 100
    ood: OodTestSpec = field(default_factory=OodTestSpec)
    out_dir: str | None = None

    def __post_init__(self):
        require_field_types(self)
        if self.num_classes < 2 or self.dim < 2:
            raise BadConfigError("need num_classes >= 2 and dim >= 2")
        if self.dim > MAX_DIM:
            raise BadConfigError(f"dim must be <= {MAX_DIM}, got {self.dim}")
        if self.num_classes > MAX_CLASSES:
            raise BadConfigError(f"num_classes must be <= {MAX_CLASSES}, got {self.num_classes}")
        if self.num_classes * self.dim > MAX_PROTOTYPE_ENTRIES:
            raise BadConfigError(
                f"num_classes x dim must be <= {MAX_PROTOTYPE_ENTRIES},"
                f" got {self.num_classes} x {self.dim}"
            )
        if self.seed < 0:
            raise BadConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("points_per_class", "knn_k", "k_detect", "id_test_per_class"):
            if getattr(self, name) < 1:
                raise BadConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.cluster_kappa < 0 or self.kappa <= 0 or self.loss_kappa <= 0:
            raise BadConfigError("cluster_kappa must be >= 0; kappa and loss_kappa > 0")
        for name in ("cluster_kappa", "loss_kappa", "lambda_d"):
            if getattr(self, name) > VMF_MAX_KAPPA:
                raise BadConfigError(
                    f"{name} must be <= {VMF_MAX_KAPPA:g}, got {getattr(self, name)}"
                )
        if self.delta < 0 or self.lambda_d < 0:
            raise BadConfigError("delta and lambda_d must be nonnegative")
        if not 0.0 < self.ema_factor < 1.0:
            raise BadConfigError(f"ema_factor must lie in (0, 1), got {self.ema_factor}")
        if self.iterations < 1 or self.insert_per_class < 1:
            raise BadConfigError("iterations and insert_per_class must be >= 1")
        if self.iterations > MAX_ITERATIONS:
            raise BadConfigError(f"iterations must be <= {MAX_ITERATIONS}, got {self.iterations}")
        if not 1 <= self.effective_n_adj() <= self.num_classes - 1:
            raise BadConfigError(f"n_adj={self.n_adj} leaves no valid adjacent cluster")
        C, ood = self.num_classes, self.ood
        rows = {  # the arrays this config sizes, by their rows of ``dim`` entries
            "num_classes x points_per_class x dim": C * self.points_per_class,
            "(num_classes x (id_test_per_class + n_adj x rounds) + n_uniform + n_midpoint)"
            " x dim": C * (self.id_test_per_class + self.effective_n_adj() * self.hmc.rounds)
            + ood.n_uniform + ood.n_midpoint,
            "num_classes x insert_per_class x dim": C * self.insert_per_class,
        }
        for name, count in rows.items():
            if count * self.dim > MAX_ARRAY_ENTRIES:
                raise BadConfigError(
                    f"{name} must be <= {MAX_ARRAY_ENTRIES}, got {count * self.dim}"
                )
        if self.grad_mode != "analytic":
            raise BadConfigError(f"grad_mode must be 'analytic', got {self.grad_mode!r}")

    def effective_n_adj(self, store: IdSnapshot | None = None) -> int:
        """n_adj clipped to the classes of ``store``, or of this config without one."""
        classes = self.num_classes if store is None else store.num_classes
        return min(self.n_adj, classes - 1)

    def effective_k(self, store: IdSnapshot) -> int:
        return min(self.knn_k, min(store.count(c) for c in range(store.num_classes)))

    def with_fields(self, **changes) -> "BenchConfig":
        """This config with each named field replaced, top-level or in ``hmc`` or ``ood``.

        Field names are unique across BenchConfig, HmcConfig and OodTestSpec,
        so a name alone places its field.
        """
        for section in ("hmc", "ood"):
            owner = getattr(self, section)
            names = [f.name for f in dataclasses.fields(owner) if f.name in changes]
            if names:
                mine = {name: changes.pop(name) for name in names}
                changes[section] = dataclasses.replace(owner, **mine)
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchConfig":
        doc = dict(doc)
        try:
            hmc_doc = dict(doc.pop("hmc", {}))
            ood_doc = dict(doc.pop("ood", {}))
            return cls(hmc=HmcConfig(**hmc_doc), ood=OodTestSpec(**ood_doc), **doc)
        except (TypeError, ValueError) as err:
            raise BadConfigError(f"invalid config document: {err}") from err

    def save_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2))

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


def sample_vmf(
    mu: np.ndarray, kappa: float, n: int, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Draw n von Mises-Fisher samples around mean direction mu.

    The cosine of the angle to mu is drawn with the classic rejection
    scheme for the radial component; the remaining direction is uniform in
    the tangent hyperplane. kappa = 0 degenerates to the uniform sphere.
    The log-space acceptance test keeps the scheme stable up to
    ``VMF_MAX_KAPPA``. A negative kappa, or one that is NaN or above that
    bound, is a BadArgError.

    The draw order is part of the data contract: one beta and then one
    uniform per try, until n tries are accepted, then one (n, d) normal
    block for the tangent directions. Every ID store, test set and run
    artifact rests on it, so a reordering changes all of them.

    The samples are written into ``out``, a C-contiguous float64 (n, d)
    array, when one is given (a new array otherwise), and returned. The
    normal block is drawn straight into it, which makes the same draws,
    and the tangent directions become the samples in place, in blocks of
    ``VMF_BLOCK_ELEMENTS``: each float operation keeps its operands, so the
    bits are those of the (n, d) expression, and no (n, d) temporary is made.
    """
    if not 0.0 <= kappa <= VMF_MAX_KAPPA:
        raise BadArgError(f"vMF kappa must be in [0, {VMF_MAX_KAPPA:g}], got {kappa}")
    mu = normalize(mu)
    d = mu.size
    if out is None:
        out = np.empty((n, d))
    elif out.shape != (n, d) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise BadArgError(f"out must be a C-contiguous float64 ({n}, {d}) array")
    ws = None if kappa == 0.0 else _vmf_cosines(kappa, d, n, rng)
    rng.standard_normal(out=out)  # the draws of rng.standard_normal((n, d))
    step = max(1, VMF_BLOCK_ELEMENTS // d)
    for start in range(0, n, step):
        t = out[start : start + step]
        if ws is not None:  # kappa = 0 is the uniform sphere: the normals normalized
            w = ws[start : start + step, None]
            t -= np.outer((t * mu).sum(axis=1), mu)
            t /= np.linalg.norm(t, axis=1, keepdims=True)
            t *= np.sqrt(np.maximum(0.0, 1.0 - w**2))
            t += w * mu
        t /= np.linalg.norm(t, axis=1, keepdims=True)
    return out


def _vmf_cosines(kappa: float, d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The (n,) cosines to the mean direction of ``sample_vmf``'s radial rejection scheme."""
    dm = d - 1
    b = dm / (math.sqrt(4.0 * kappa**2 + dm**2) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    # log(1 - x0^2) assembled from b to stay finite as x0 -> 1
    c = kappa * x0 + dm * (math.log(2.0 * b / (1.0 + b)) + math.log1p(x0))
    ws = np.empty(n)
    # rng.random() reads the double that rng.uniform() returns as 0.0 + 1.0 * x
    beta_draw, uniform, log, log1p = rng.beta, rng.random, math.log, math.log1p
    half, one_plus_b, one_minus_b = dm / 2.0, 1.0 + b, 1.0 - b
    for i in range(n):
        while True:
            beta = beta_draw(half, half)
            w = (1.0 - one_plus_b * beta) / (1.0 - one_minus_b * beta)
            if kappa * w + dm * log1p(-x0 * w) - c >= log(uniform()):
                ws[i] = w
                break
    return ws


def _vmf_blocks(centers: np.ndarray, kappa: float, counts, rng: np.random.Generator) -> np.ndarray:
    """One (sum(counts), d) array of ``counts[i]`` vMF draws around ``centers[i]``, in order,
    each drawn into its rows by one ``sample_vmf`` call (a zero count draws nothing)."""
    stops = np.cumsum(counts)
    rows = np.empty((int(stops[-1]), centers.shape[1]))
    for center, n, stop in zip(centers, counts, stops):
        sample_vmf(center, kappa, int(n), rng, out=rows[stop - n : stop])
    return rows


def _cluster_centers(cfg: BenchConfig) -> np.ndarray:
    proto_seed, _ = np.random.SeedSequence(cfg.seed).spawn(2)
    return uniform_sphere(cfg.num_classes, cfg.dim, np.random.default_rng(proto_seed))


def _refresh(
    store: IdStore, centers: np.ndarray, kappa: float, n: int, rng: np.random.Generator
) -> None:
    """Insert n vMF draws around each center into its class, then EMA-update the prototype."""
    rows = _vmf_blocks(centers, kappa, [n] * len(centers), rng)
    for c, points in enumerate(np.split(rows, len(centers))):
        store.insert(c, points)
        store.update_prototype(c, points.mean(axis=0))


def generate_synthetic_id(cfg: BenchConfig) -> IdStore:
    """Seeded synthetic store: uniform prototypes, vMF clusters, full buffers.

    The classes are drawn into the one buffer that ``IdStore.from_rows``
    keeps and the snapshot hands out; each prototype is its class's mean.
    """
    _, data_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    counts = [cfg.points_per_class] * cfg.num_classes
    rng = np.random.default_rng(data_seed)
    rows = _vmf_blocks(_cluster_centers(cfg), cfg.cluster_kappa, counts, rng)
    store = IdStore.from_rows(rows, counts, cfg.points_per_class, cfg.ema_factor)
    for c, points in enumerate(np.split(rows, cfg.num_classes)):
        store.update_prototype(c, points.mean(axis=0))
    return store


def make_ood_test_set(cfg: BenchConfig, store: IdStore, rng: np.random.Generator) -> np.ndarray:
    """Held-out OOD points: uniform sphere plus vMF blobs at pair midpoints.

    The midpoints are the chain starts of ``synthesize_batch``, read from
    the snapshot's ``pair_table``; an antipodal pair, which has no
    midpoint, is an AntipodalPrototypesError.
    """
    uniform = uniform_sphere(cfg.ood.n_uniform, cfg.dim, rng)  # n_uniform = 0 draws nothing
    if cfg.ood.n_midpoint == 0:
        return uniform
    pairs, midpoints, antipodal = store.snapshot().pair_table(cfg.effective_n_adj())
    if antipodal.any():
        u, v = pairs[antipodal][0].tolist()
        raise AntipodalPrototypesError(f"prototypes of classes {u} and {v} are antipodal")
    counts = np.bincount(np.arange(cfg.ood.n_midpoint) % len(midpoints), minlength=len(midpoints))
    return np.concatenate([uniform, _vmf_blocks(midpoints, cfg.ood.midpoint_kappa, counts, rng)])


# -- experiment loop --------------------------------------------------------


@dataclass
class IterationResult:
    row: dict  # the iteration's metrics.csv row
    batch: OutlierBatch
    report: ScoreReport
    batch_scores: np.ndarray  # detection score of each batch sample, in batch order
    synth_time_ms: float
    score_time_ms: float


def _synthesize(cfg: BenchConfig, snapshot: IdSnapshot, hmc: HmcConfig) -> OutlierBatch:
    """The batch ``cfg`` asks of ``snapshot`` under sampler settings ``hmc``."""
    return synthesize_batch(
        snapshot,
        hmc,
        k=cfg.effective_k(snapshot),
        delta=cfg.delta,
        kappa=cfg.kappa,
        n_adj=cfg.effective_n_adj(snapshot),
    )


def build_inputs(cfg: BenchConfig) -> tuple:
    """The run's fixed inputs: (store, class centres, ID test set, its labels, OOD test set)."""
    store = generate_synthetic_id(cfg)
    centers = _cluster_centers(cfg)
    id_test_seed, ood_seed = np.random.SeedSequence(cfg.seed + 1).spawn(2)
    counts = [cfg.id_test_per_class] * cfg.num_classes
    id_test = _vmf_blocks(centers, cfg.cluster_kappa, counts, np.random.default_rng(id_test_seed))
    id_labels = np.repeat(np.arange(cfg.num_classes), cfg.id_test_per_class)
    ood_test = make_ood_test_set(cfg, store, np.random.default_rng(ood_seed))
    return store, centers, id_test, id_labels, ood_test


def run_experiment(cfg: BenchConfig, trace: bool = False) -> list[IterationResult]:
    """Execute the full loop for ``cfg.iterations`` iterations.

    When ``cfg.out_dir`` is set, artifacts are written there; whatever has
    been produced is flushed even if an iteration aborts.
    """
    if cfg.out_dir:
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    store, centers, id_test, id_labels, ood_test = build_inputs(cfg)
    iter_seeds = np.random.SeedSequence(cfg.seed + 1).spawn(2 + cfg.iterations)[2:]
    # the detector scores both test sets and each batch in one call; one
    # buffer holds the test sets and room for the largest batch (a row per
    # chain and round), so no iteration copies the test sets
    n_id, n_tests = len(id_test), len(id_test) + len(ood_test)
    max_batch = cfg.num_classes * cfg.effective_n_adj() * cfg.hmc.rounds
    queries = np.empty((n_tests + max_batch, cfg.dim))
    queries[:n_id], queries[n_id:n_tests] = id_test, ood_test
    id_test, ood_test = queries[:n_id], queries[n_id:n_tests]
    tau = temperature_from_kappa(cfg.loss_kappa)

    results: list[IterationResult] = []
    try:
        for t, rng in enumerate(map(np.random.default_rng, iter_seeds), start=1):
            _refresh(store, centers, cfg.cluster_kappa, cfg.insert_per_class, rng)
            snapshot = store.snapshot()
            hmc_cfg = dataclasses.replace(cfg.hmc, rng_seed=cfg.hmc.rng_seed + t - 1)
            t0 = time.perf_counter()
            batch = _synthesize(cfg, snapshot, hmc_cfg)
            synth_ms = (time.perf_counter() - t0) * 1000.0
            prototypes = snapshot.prototypes
            positions = batch.samples.position
            empty = not len(batch)  # no score and no discernment loss: empty cells, not nan or 0
            ood_disc = None if empty else ood_discernment_loss(positions, prototypes, tau)
            l_disp, l_comp = cider_losses(id_test, id_labels, prototypes, tau)
            reference = snapshot.embeddings
            k_det = min(cfg.k_detect, reference.shape[0])
            t0 = time.perf_counter()
            queries[n_tests : n_tests + len(batch)] = positions
            scored = queries[: n_tests + len(batch)]
            scores = knn_scores(reference, scored, k_det, snapshot.sq_norms)
            id_scores, ood_scores, batch_scores = np.split(scores, [n_id, n_tests])
            report = score_report(id_scores, ood_scores)
            score_ms = (time.perf_counter() - t0) * 1000.0
            quality = hypersphere_quality(ood_test, id_test, id_labels, prototypes)
            row = {
                "iteration": t,
                "batch_size": len(batch),
                **round_summary(batch),
                "batch_score_mean": None if empty else float(batch_scores.mean()),
                "batch_score_std": None if empty else float(batch_scores.std()),
                **report.to_dict(include_scores=False),
                **dataclasses.asdict(quality),
                "ood_disc_loss": ood_disc,
                "dispersion_loss": l_disp,
                "compactness_loss": l_comp,
                "combined_objective": (
                    None if empty else combined_objective(l_disp + l_comp, ood_disc, cfg.lambda_d)
                ),
            }
            results.append(IterationResult(row, batch, report, batch_scores, synth_ms, score_ms))
    finally:
        if cfg.out_dir:
            _flush_artifacts(cfg, results, store, trace)
    return results


def _flush_artifacts(
    cfg: BenchConfig, results: list[IterationResult], store: IdStore, trace: bool
) -> None:
    out_dir = Path(cfg.out_dir)
    cfg.save_json(out_dir / "config.json")
    if results:
        write_csv(out_dir / "metrics.csv", list(results[0].row), [r.row.values() for r in results])
    else:  # the first iteration aborted
        (out_dir / "metrics.csv").write_text("")
    with open(out_dir / "batches.jsonl", "w") as fh:
        for r in results:
            fh.write(json.dumps(batch_to_dict(r.batch), sort_keys=True) + "\n")
    if results:
        last = results[-1]
        last.report.save_json(out_dir / "scores_final.json")
        if len(last.batch):
            write_csv(
                out_dir / "round_scores.csv",
                ["round", "count", "mean", "std", "min", "max"],
                round_wise_scores(last.batch, last.batch_scores),
            )
        if trace:
            write_trace_jsonl(last.batch, out_dir / "trace.jsonl")
    timings = {
        "synth_time_ms": [r.synth_time_ms for r in results],
        "score_time_ms": [r.score_time_ms for r in results],
        "blas_core": blas.core_name(),
        "blas_threads": blas.thread_count(),
        "numpy": np.__version__,
    }
    (out_dir / "timings.json").write_text(json.dumps(timings))
    store.save(out_dir / "store.idstore")


# -- ablation sweeps --------------------------------------------------------

# sweep axis -> (config field, value type)
_SWEEP_FIELDS = {
    "lambda_d": ("lambda_d", float),
    "k": ("knn_k", int),
    "delta": ("delta", float),
    "L": ("leapfrog_steps", int),
    "eps": ("step_size", float),
    "n_adj": ("n_adj", int),
    "R": ("rounds", int),
    "variant": ("variant", SamplerVariant),
}
SWEEP_AXES = tuple(_SWEEP_FIELDS)
# the sweep.csv header: the axis, the value, five columns of the value's last
# metrics.csv row and the run's mean synthesis time
SWEEP_COLUMNS = (
    "axis", "value", "fpr95", "auroc", "aupr", "batch_size", "mh_acceptance", "synth_time_ms"
)


def _parse_axis(axis: str, value) -> tuple[str, object]:
    """(config field, parsed value) of one sweep value."""
    if axis not in _SWEEP_FIELDS:
        raise BadArgError(f"unknown sweep axis {axis!r}; valid axes: {SWEEP_AXES}")
    name, kind = _SWEEP_FIELDS[axis]
    try:
        return name, kind(value)
    except ValueError as err:
        raise BadConfigError(f"sweep axis {axis!r} cannot take the value {value!r}") from err


def ablation_sweep(cfg: BenchConfig, axis: str, values) -> list[dict]:
    """One run per axis value under a shared seed; returns the sweep.csv rows.

    When ``cfg.out_dir`` is set, the run for value v is written to
    ``cfg.out_dir/{axis}_{v}`` and the table to ``cfg.out_dir/sweep.csv``.
    A value that parses equal to an earlier one, however it is spelled
    ("0.1" and "0.10"), is a BadConfigError.
    """
    # every value is checked before the first run writes anything
    subs, spellings = [], {}
    for value in values:
        field_name, parsed = _parse_axis(axis, value)
        spelling = str(value)
        if parsed in spellings:
            raise BadConfigError(
                f"sweep axis {axis!r} repeats the value {spelling!r}"
                f" (given before as {spellings[parsed]!r})"
            )
        spellings[parsed] = spelling
        subs.append((spelling, cfg.with_fields(**{field_name: parsed})))
    rows = []
    for name, sub in subs:
        if cfg.out_dir:
            sub = sub.with_fields(out_dir=str(Path(cfg.out_dir) / f"{axis}_{name}"))
        results = run_experiment(sub)
        last = results[-1].row
        rows.append(
            {
                "axis": axis,
                "value": name,
                **{column: last[column] for column in SWEEP_COLUMNS[2:-1]},
                "synth_time_ms": float(np.mean([r.synth_time_ms for r in results])),
            }
        )
    if cfg.out_dir:
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, (row.values() for row in rows))
    return rows


# -- diversity comparison ----------------------------------------------------


def diversity_stds(cfg: BenchConfig, seed: int) -> tuple[float, float]:
    """Detection-score spread of HMC synthesis vs the Gaussian baseline.

    The baseline uses sigma equal to the sampler step size and is truncated
    to the same sample count as the synthesized batch.
    """
    cfg = cfg.with_fields(seed=seed, rng_seed=seed)
    store = generate_synthetic_id(cfg)
    snapshot = store.snapshot()
    batch = _synthesize(cfg, snapshot, cfg.hmc)
    if not len(batch):
        raise BadArgError(f"synthesis produced an empty batch at seed {seed}")
    n_pairs = len(batch.chains)
    per_pair = math.ceil(len(batch) / n_pairs)
    baseline = gaussian_baseline_batch(
        snapshot, sigma=cfg.hmc.step_size, count_per_pair=per_pair, n_adj=batch.n_adj, seed=seed
    )
    base_positions = baseline.samples.position[: len(batch)]
    reference = snapshot.embeddings
    k_det = min(cfg.k_detect, reference.shape[0])
    queries = np.concatenate([batch.samples.position, base_positions])
    scores = knn_scores(reference, queries, k_det, snapshot.sq_norms)
    return float(scores[: len(batch)].std()), float(scores[len(batch) :].std())
