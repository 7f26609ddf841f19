"""Inference-time detection scoring and evaluation metrics.

Scores follow the "higher means more in-distribution" convention: the kNN
detector score is the negative k-th-neighbor distance, and the detection
threshold is calibrated so at least 95% of ID scores stay above it.

Conventions pinned down here because the usual definitions leave them
open: AUROC gives half credit to ties (Mann-Whitney), AUPR treats ID as
the positive class and integrates the precision-recall curve with the
trapezoid rule over all observed thresholds.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import blas
from .errors import BadArgError, DataError, InsufficientDataError, TooFewSamplesError

MIN_CALIBRATION_SCORES = 20
# elements per kNN block temporary (512 KB of float64): query rows per block
# = this // N. 2**17 was as fast but raised a stock run's peak RSS by 1-2 MB.
KNN_BLOCK_ELEMENTS = 2**16


def knn_scores(reference: np.ndarray, zs: np.ndarray, k: int) -> np.ndarray:
    """Negative k-th-neighbor distance of every row of ``zs``, computed exactly."""
    return -kth_neighbors(reference, np.atleast_2d(zs), k)[0]


def kth_neighbors(
    reference: np.ndarray, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """k-th nearest reference row of every query row: (distances, indices).

    Neighbors are ranked by (exact distance, reference index), so among
    exact ties the lowest index wins, and each distance has the same bits
    as the k-th smallest of ``norm(reference - q, axis=1)``.

    Query rows go in blocks of at most ``KNN_BLOCK_ELEMENTS // N`` rows.
    Each block ranks the reference through one GEMM and the expansion
    ||r - q||^2 = ||r||^2 - 2 r.q + ||q||^2, leaving out ||q||^2, which
    shifts a whole row and so cannot change its order. The k-th entry of
    each row is selected and that neighbor's distance recomputed directly.
    The expansion can misorder values that lie within its rounding error
    of each other, so a row with another value inside a window around its
    k-th takes the k-th of the exact norms of every candidate in that
    window instead, in a stable sort. The GEMMs run on one BLAS thread
    (see ``blas``).
    """
    reference = np.asarray(reference, dtype=float)
    queries = np.asarray(queries, dtype=float)
    n = reference.shape[0]
    if k < 1:
        raise BadArgError(f"k must be >= 1, got {k}")
    if n < k:
        raise InsufficientDataError(f"reference holds {n} embeddings, fewer than k={k}")
    ref_sq = np.einsum("ij,ij->i", reference, reference)
    ref_sq_max = float(ref_sq.max())
    block = max(1, KNN_BLOCK_ELEMENTS // n)
    distances = np.empty(queries.shape[0])
    indices = np.empty(queries.shape[0], dtype=np.intp)
    with blas.one_thread():
        for start in range(0, queries.shape[0], block):
            q = queries[start : start + block]
            d2 = (-2.0 * q) @ reference.T
            d2 += ref_sq
            idx = np.argpartition(d2, k - 1, axis=1)[:, k - 1]
            dist = np.linalg.norm(reference[idx] - q, axis=1)
            kth = d2[np.arange(q.shape[0]), idx]
            # the expansion's rounding error is ~1e-15 of this scale
            window = 1e-9 * (ref_sq_max + np.einsum("ij,ij->i", q, q) + 1.0)
            lo = (kth - window)[:, None]
            hi = (kth + window)[:, None]
            below = np.count_nonzero(d2 < lo, axis=1)
            for i in np.flatnonzero(np.count_nonzero(d2 <= hi, axis=1) - below > 1):
                near = np.flatnonzero((d2[i] >= lo[i]) & (d2[i] <= hi[i]))
                exact = np.linalg.norm(reference[near] - q[i], axis=1)
                j = np.argsort(exact, kind="stable")[k - 1 - below[i]]
                idx[i], dist[i] = near[j], exact[j]
            distances[start : start + q.shape[0]] = dist
            indices[start : start + q.shape[0]] = idx
    return distances, indices


def shifted_logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a - max(a)))) over the last axis: every exponent is <= 0, none overflows."""
    return np.log(np.exp(a - a.max(axis=-1, keepdims=True)).sum(axis=-1))


def calibrate_threshold(id_scores: np.ndarray) -> float:
    """Largest threshold keeping at least 95% of ID scores at or above it."""
    scores = np.sort(np.asarray(id_scores, dtype=float))
    n = scores.size
    if n < MIN_CALIBRATION_SCORES:
        raise TooFewSamplesError(f"need >= {MIN_CALIBRATION_SCORES} ID scores, got {n}")
    required = math.ceil(0.95 * n)
    return float(scores[n - required])


def fpr_at_tpr95(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """Fraction of OOD scores at or above the 95%-TPR threshold."""
    ood_scores = np.asarray(ood_scores, dtype=float)
    if ood_scores.size == 0:
        raise TooFewSamplesError("need at least one OOD score")
    beta = calibrate_threshold(id_scores)
    return float(np.mean(ood_scores >= beta))


def auroc(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """P(ID score > OOD score) + 0.5 P(equal), via the rank-sum statistic."""
    id_scores = np.asarray(id_scores, dtype=float)
    ood_scores = np.asarray(ood_scores, dtype=float)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise TooFewSamplesError("need at least one score on each side")
    scores = np.concatenate([id_scores, ood_scores])
    if np.isnan(scores).any():
        raise DataError("cannot rank NaN scores")
    # average ranks: a run of equal scores shares the mean of its 1-based positions
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    n_id = id_scores.size
    u = ranks[:n_id].sum() - n_id * (n_id + 1) / 2.0
    return float(u / (n_id * ood_scores.size))


def aupr(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """Trapezoidal area under precision-recall with ID as the positive class."""
    id_scores = np.asarray(id_scores, dtype=float)
    ood_scores = np.asarray(ood_scores, dtype=float)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise TooFewSamplesError("need at least one score on each side")
    scores = np.concatenate([id_scores, ood_scores])
    order = np.argsort(scores)[::-1]
    ranked = scores[order]
    # the last position of each distinct score is its threshold's cut
    cut = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tp = np.cumsum(order < id_scores.size)[cut]
    fp = cut + 1 - tp
    recalls = np.concatenate([[0.0], tp / id_scores.size])
    precisions = np.concatenate([[1.0], tp / (tp + fp)])
    terms = (recalls[1:] - recalls[:-1]) * (precisions[1:] + precisions[:-1]) / 2.0
    # cumsum adds left to right like the scalar loop; np.sum would pair terms up
    return float(np.cumsum(terms)[-1])


@dataclass
class QualityAngles:
    """Hyperspherical embedding quality, in degrees.

    A larger separation angle means OOD points sit further from every
    prototype; larger dispersion means prototypes spread out more; smaller
    compactness means ID points hug their own prototype.
    """

    separation_deg: float
    dispersion_deg: float
    compactness_deg: float


def _deg(cosine: float) -> float:
    return float(np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0))))


def hypersphere_quality(
    ood_test: np.ndarray,
    id_test: np.ndarray,
    id_labels: np.ndarray,
    prototypes: np.ndarray,
) -> QualityAngles:
    """Angular separation/dispersion/compactness of a labeled embedding set."""
    ood_test = np.atleast_2d(np.asarray(ood_test, dtype=float))
    id_test = np.atleast_2d(np.asarray(id_test, dtype=float))
    id_labels = np.asarray(id_labels, dtype=int)
    prototypes = np.asarray(prototypes, dtype=float)
    C = prototypes.shape[0]
    cos_sep = float((ood_test @ prototypes.T).max(axis=1).mean())
    proto_cos = prototypes @ prototypes.T
    cos_disp = float(proto_cos[~np.eye(C, dtype=bool)].mean())
    cos_comp = float(
        np.einsum("ij,ij->i", id_test, prototypes[id_labels]).mean()
    )
    return QualityAngles(_deg(cos_sep), _deg(cos_disp), _deg(cos_comp))


@dataclass
class ScoreReport:
    id_scores: np.ndarray
    ood_scores: np.ndarray
    fpr95: float
    auroc: float
    aupr: float
    threshold: float

    def to_dict(self, include_scores: bool = True) -> dict:
        doc = {
            "fpr95": self.fpr95,
            "auroc": self.auroc,
            "aupr": self.aupr,
            "threshold": self.threshold,
        }
        if include_scores:
            doc["id_scores"] = np.asarray(self.id_scores).tolist()
            doc["ood_scores"] = np.asarray(self.ood_scores).tolist()
        return doc

    def save_json(self, path: str | Path, include_scores: bool = True) -> None:
        Path(path).write_text(json.dumps(self.to_dict(include_scores), sort_keys=True))

    def save_csv(self, path: str | Path) -> None:
        write_csv(path, ["metric", "value"], self.to_dict(include_scores=False).items())


def score_report(id_scores: np.ndarray, ood_scores: np.ndarray) -> ScoreReport:
    """Bundle the three detection metrics plus the calibrated threshold."""
    id_scores = np.asarray(id_scores, dtype=float)
    ood_scores = np.asarray(ood_scores, dtype=float)
    for side, scores in (("ID", id_scores), ("OOD", ood_scores)):
        if not np.all(np.isfinite(scores)):
            raise DataError(f"{side} scores contain NaN or infinite values")
    return ScoreReport(
        id_scores=id_scores,
        ood_scores=ood_scores,
        fpr95=fpr_at_tpr95(id_scores, ood_scores),
        auroc=auroc(id_scores, ood_scores),
        aupr=aupr(id_scores, ood_scores),
        threshold=calibrate_threshold(id_scores),
    )


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write a header line, then one line per row: every CSV table of the package.

    A Python or numpy float cell is written as ``repr(float(v))``, the
    shortest string that ``float`` reads back to the same value; every
    other cell is written as ``csv`` writes it.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            for row in rows
        )
