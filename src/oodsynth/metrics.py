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
# elements per kNN block buffer (512 KB of float32; the ranking and its
# scratch copy are two): query rows per block = this // N
KNN_BLOCK_ELEMENTS = 2**17


def knn_scores(
    reference: np.ndarray, zs: np.ndarray, k: int, sq_norms: np.ndarray | None = None
) -> np.ndarray:
    """Negative k-th-neighbor distance of every row of ``zs``, computed exactly."""
    return -kth_neighbors(reference, np.atleast_2d(zs), k, sq_norms)[0]


def kth_neighbors(
    reference: np.ndarray, queries: np.ndarray, k: int, sq_norms: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """k-th nearest reference row of every query row: (distances, indices).

    Neighbors are ranked by (exact distance, reference index), so among
    exact ties the lowest index wins, and each distance has the same bits
    as the k-th smallest of ``norm(reference - q, axis=1)``.

    ``sq_norms`` are the reference rows' squared norms (``IdSnapshot``
    keeps them); they are computed here when not given. The ranking is in
    float32, ||r||^2 - 2 r.q + s for the call's ``ranking_shift`` s: the
    expansion of ||r - q||^2 without ||q||^2, plus one constant, so the
    order of a row is unchanged and every entry is positive, and
    ``select_kth`` picks the k-th of each row with an integer partition.
    The norms are folded into the GEMM: each call builds one C-contiguous
    (d + 1, N) operand, ``reference.T`` over the row ``||r||^2 + s``, and
    the query operand is (rows, d + 1), -2q then a column of ones, so each
    block's GEMM writes the finished ranking into one buffer that every
    block reuses. The operand is built per call because s depends on the
    queries; a caller with several query sets against one reference
    stacks them into one call. Query rows go in blocks of at most
    ``KNN_BLOCK_ELEMENTS // N`` rows. The float32 ``tie_window`` sends a
    row whose order its rounding could change to the exact float64
    fallback, and the distances of the picked rows are float64 norms,
    computed once for all queries. The GEMMs run on one BLAS thread (see
    ``blas``).

    Raises ``BadArgError`` when the largest squared norm of the reference
    plus the shift, or of a query, exceeds ``tie_window``'s float32 bound
    (1.3e36); a NaN query row gets a NaN distance.
    """
    reference = np.asarray(reference, dtype=float)
    queries = np.asarray(queries, dtype=float)
    n, d = reference.shape
    if k < 1:
        raise BadArgError(f"k must be >= 1, got {k}")
    if n < k:
        raise InsufficientDataError(f"reference holds {n} embeddings, fewer than k={k}")
    if sq_norms is None:
        sq_norms = np.einsum("ij,ij->i", reference, reference)
    sq_max = float(sq_norms.max())
    shift = ranking_shift(sq_max, queries, np.float32)
    window = tie_window(sq_max + shift, queries, np.float32)
    folded = np.empty((d + 1, n), dtype=np.float32)
    folded[:d] = reference.T
    folded[d] = sq_norms + shift
    scaled = np.empty((queries.shape[0], d + 1), dtype=np.float32)
    np.multiply(queries, -2.0, out=scaled[:, :d], casting="same_kind")
    scaled[:, d] = 1.0
    block = max(1, KNN_BLOCK_ELEMENTS // n)
    ranking = np.empty((min(block, queries.shape[0]), n), dtype=np.float32)
    scratch = np.empty_like(ranking)
    indices = np.empty(queries.shape[0], dtype=np.intp)
    with blas.one_thread():
        for start in range(0, queries.shape[0], block):
            stop = min(start + block, queries.shape[0])
            block_ranking = ranking[: stop - start]
            np.matmul(scaled[start:stop], folded, out=block_ranking)
            indices[start:stop] = select_kth(
                block_ranking,
                scratch[: stop - start],
                k,
                window[start:stop],
                reference,
                queries[start:stop],
            )
    diff = reference[indices]
    diff -= queries
    return np.linalg.norm(diff, axis=1), indices


def _window_scale(d: int, dtype) -> float:
    """``tie_window``'s factor: at least 4 (d + 5) u, u the unit roundoff of ``dtype``."""
    return max(1e-9, 2 * (d + 5) * float(np.finfo(dtype).eps))


def ranking_shift(sq_max: float, queries: np.ndarray, dtype=np.float64) -> float:
    """The constant s a caller adds to every ||r||^2 of a ``select_kth`` ranking.

    With Q the largest ||q||^2 of the query rows that are not NaN (a NaN
    row is ignored) and ``sq_max`` the largest ||r||^2, s is
    Q + 1 + w (sq_max + Q + 1), where w is ``tie_window``'s factor. Every
    exact entry ||r||^2 - 2 r.q + s = ||r - q||^2 - ||q||^2 + s is then at
    least 1 + w (sq_max + Q + 1), which ``tie_window`` shows exceeds its
    rounding error: every finite computed entry is positive, as
    ``select_kth`` requires. s is the same for every entry, so it changes
    the order of no row.
    """
    sq_queries = np.einsum("ij,ij->i", queries, queries)
    q_max = float(np.fmax.reduce(sq_queries, initial=0.0))
    return q_max + 1.0 + _window_scale(queries.shape[1], dtype) * (float(sq_max) + q_max + 1.0)


def tie_window(sq_max: float, queries: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Half-width of each query row's near-tie window in a ``select_kth`` ranking.

    The ranking is t - 2 r.q in ``dtype``, with t = ||r||^2 + s for
    ``ranking_shift``'s s, and ``sq_max`` bounds every t (a larger
    ``sq_max`` only widens the window). Let u = eps / 2 be the unit
    roundoff of ``dtype`` (2^-24 for float32), a = ||r|| and b = ||q||.
    ``kth_neighbors`` folds t into its GEMM: each value is a (d + 1)-term
    dot product whose terms are fl(-2q_j) fl(r_j) and fl(t) 1. The casts
    of r and -2q add 2u relative to the products, whose magnitudes sum to
    at most 2ab; the cast of t adds u t; and the sum, in any order, with
    or without FMA, adds (d + 1) u times the terms' magnitudes, at most
    2ab + t. So each value is within (d + 3) u 2ab + (d + 2) u t, and as
    2ab <= a^2 + b^2 <= t + b^2, within (2d + 5) u (t + b^2), of its exact
    value. A ranking whose GEMM leaves t out and adds it after, as
    ``EnergyContext`` does in float64, is within the smaller
    (d + 5) u (t + b^2). Two values can swap only within twice the bound,
    (4d + 10) u (t + b^2), and the window is w (sq_max + b^2 + 1) with
    w = max(1e-9, 2 (d + 5) eps) = 4 (d + 5) u or more. The + 1 covers
    the absolute error of subnormal products. So no value outside the
    window around a row's k-th can rank on the wrong side of the true
    k-th, and a row whose neighbors in rank lie outside it has its exact
    k-th. The window is twice the swap bound of the unfolded ranking, but
    only (2d + 10) / (2d + 5) times that of the folded one: its slack
    shrinks to 10 u (t + b^2). The float64 rounding of the squared norms,
    of s and of the exact norms is about 2^-29 of the float32 bound and
    fits in that slack. A float64 ranking adds the float64 error of its
    squared norms, at most d u ||r||^2; the floor 1e-9 is more than four
    times the sum for every d below a million.

    The shift keeps every value positive. Since s >= b^2 + 1 +
    w (a^2 + b^2 + 1), the exact value t - 2 r.q >= a^2 + s - 2ab less the
    bound above is at least
    (1 - (d + 2) u) (a^2 + s) - (1 + (d + 3) u) 2ab
    >= ((1 - (d + 2) u) (1 + w) - 1 - (d + 3) u) (a^2 + b^2 + 1),
    which is positive while 4 (d + 2) (d + 5) u < 2d + 15, that is for
    every d below 8 million in float32.

    Raises ``BadArgError`` when ``sq_max`` or some ||q||^2 exceeds
    finfo(dtype).max / 256 (1.3e36 for float32), which keeps every
    ranking value and GEMM partial sum, at most 3 times that, finite. A NaN
    query row passes and gets a NaN window.
    """
    sq_queries = np.einsum("ij,ij->i", queries, queries)
    bound = float(np.finfo(dtype).max) / 256
    if sq_max > bound or np.any(sq_queries > bound):
        raise BadArgError(
            f"a squared norm exceeds {bound:.3g}, the bound of a {np.dtype(dtype).name} ranking"
        )
    return _window_scale(queries.shape[1], dtype) * (sq_max + sq_queries + 1.0)


def select_kth(
    ranking: np.ndarray,
    scratch: np.ndarray,
    k: int,
    window: np.ndarray,
    reference: np.ndarray,
    queries: np.ndarray,
    first: int | np.ndarray = 0,
) -> np.ndarray:
    """Reference row of the exact k-th neighbor of every row of a ranking matrix.

    Column j of row i ranks reference row ``first[i] + j`` (``first`` may
    be a scalar) against ``queries[i]`` by ||r||^2 - 2 r.q + s, s the
    caller's ``ranking_shift``, in the dtype that ``window`` was derived for
    (``kth_neighbors`` ranks in float32, the energy in float64); columns
    past a row's reference hold ``+inf``, and every row has at least k
    finite entries. Every finite entry must have its sign bit clear
    (>= +0.0), which the shift guarantees. ``window`` is each row's
    ``tie_window``. The k-th neighbor's distance is
    ``norm(reference[row] - queries[i])``, and callers compute it for all
    their rows at once.

    ``scratch``, of the ranking's shape, receives a copy that one
    ``partition`` at k reorders in place, through a view of its bytes as
    integers of the same width: the bits of floats with a clear sign bit,
    ``+inf`` included, order as integers exactly as the floats do, and
    integers partition faster. The k smallest values of a row come first,
    so their maximum is the k-th, the runner-up the (k-1)-th, and position
    k the (k+1)-th; every value is read back as a float. ``ranking`` itself
    is left unchanged. The expansion can misorder values within its
    rounding error of each other, so a row whose (k-1)-th or (k+1)-th lies
    within the window around its k-th takes the k-th, in (exact distance,
    index) order, of the exact norms of every candidate in that window,
    offset by the count below the window. On every other row no other
    value equals the k-th, so the first column that holds it is its only
    column.
    """
    rows = np.arange(ranking.shape[0])
    np.copyto(scratch, ranking)
    if k < ranking.shape[1]:
        scratch.view(f"i{scratch.itemsize}").partition(k, axis=1)
        after = scratch[:, k]
    else:
        after = np.full(ranking.shape[0], np.inf)
    head = scratch[:, :k]
    at = np.argmax(head, axis=1)
    kth = head[rows, at]
    head[rows, at] = -np.inf
    before = head.max(axis=1)  # -inf when k = 1
    idx = np.argmax(ranking == kth[:, None], axis=1)
    lo = kth - window
    hi = kth + window
    first = np.broadcast_to(first, rows.shape)
    for i in np.flatnonzero((before >= lo) | (after <= hi)):
        below = np.count_nonzero(ranking[i] < lo[i])
        near = np.flatnonzero((ranking[i] >= lo[i]) & (ranking[i] <= hi[i]))
        exact = np.linalg.norm(reference[first[i] + near] - queries[i], axis=1)
        idx[i] = near[np.argsort(exact, kind="stable")[k - 1 - below]]
    return first + idx


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


def _finite_scores(id_scores, ood_scores) -> tuple[np.ndarray, np.ndarray]:
    """Both sides as float arrays; a NaN or infinite score is a DataError."""
    sides = (np.asarray(id_scores, dtype=float), np.asarray(ood_scores, dtype=float))
    for side, scores in zip(("ID", "OOD"), sides):
        if not np.isfinite(scores).all():
            raise DataError(f"{side} scores contain NaN or infinite values")
    return sides


def fpr_at_tpr95(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """Fraction of OOD scores at or above the 95%-TPR threshold."""
    id_scores, ood_scores = _finite_scores(id_scores, ood_scores)
    if ood_scores.size == 0:
        raise TooFewSamplesError("need at least one OOD score")
    beta = calibrate_threshold(id_scores)
    return float(np.mean(ood_scores >= beta))


def auroc(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """P(ID score > OOD score) + 0.5 P(equal), via the rank-sum statistic."""
    id_scores, ood_scores = _finite_scores(id_scores, ood_scores)
    if id_scores.size == 0 or ood_scores.size == 0:
        raise TooFewSamplesError("need at least one score on each side")
    scores = np.concatenate([id_scores, ood_scores])
    # average ranks: a run of equal scores shares the mean of its 1-based positions
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    n_id = id_scores.size
    u = ranks[:n_id].sum() - n_id * (n_id + 1) / 2.0
    return float(u / (n_id * ood_scores.size))


def aupr(id_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """Trapezoidal area under precision-recall with ID as the positive class."""
    id_scores, ood_scores = _finite_scores(id_scores, ood_scores)
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
    cos_sep = float(np.einsum("md,cd->mc", ood_test, prototypes).max(axis=1).mean())
    proto_cos = np.einsum("id,jd->ij", prototypes, prototypes)
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
    id_scores, ood_scores = _finite_scores(id_scores, ood_scores)
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
