import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodsynth import blas
from oodsynth.errors import BadArgError, DataError, InsufficientDataError, TooFewSamplesError
from oodsynth.metrics import (
    KNN_BLOCK_ELEMENTS,
    aupr,
    auroc,
    calibrate_threshold,
    fpr_at_tpr95,
    hypersphere_quality,
    knn_scores,
    kth_neighbors,
    score_report,
)
from oodsynth.sphere import normalize


def oracle_auroc(id_scores, ood_scores):
    wins = ties = 0
    for a in id_scores:
        for b in ood_scores:
            wins += a > b
            ties += a == b
    return (wins + 0.5 * ties) / (len(id_scores) * len(ood_scores))


def oracle_fpr95(id_scores, ood_scores):
    n = len(id_scores)
    required = math.ceil(0.95 * n)
    beta = sorted(id_scores)[n - required]
    return sum(s >= beta for s in ood_scores) / len(ood_scores)


def oracle_aupr(id_scores, ood_scores):
    pts = [(0.0, 1.0)]
    for t in sorted(set(id_scores) | set(ood_scores), reverse=True):
        tp = sum(s >= t for s in id_scores)
        fp = sum(s >= t for s in ood_scores)
        pts.append((tp / len(id_scores), tp / (tp + fp)))
    return sum(
        (r1 - r0) * (p0 + p1) / 2.0 for (r0, p0), (r1, p1) in zip(pts, pts[1:])
    )


def loop_aupr(id_scores, ood_scores):
    """The per-threshold loop that ``aupr`` replaced, kept as its bit-exact oracle."""
    thresholds = np.unique(np.concatenate([id_scores, ood_scores]))[::-1]
    recalls = [0.0]
    precisions = [1.0]
    for t in thresholds:
        tp = int(np.sum(id_scores >= t))
        fp = int(np.sum(ood_scores >= t))
        recalls.append(tp / id_scores.size)
        precisions.append(tp / (tp + fp))
    area = 0.0
    for i in range(1, len(recalls)):
        area += (recalls[i] - recalls[i - 1]) * (precisions[i] + precisions[i - 1]) / 2.0
    return area


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def brute_knn_scores(reference, zs, k):
    """Per-row brute force: the k-th smallest of the exact distances."""
    return np.array(
        [-np.partition(np.linalg.norm(reference - z, axis=1), k - 1)[k - 1] for z in zs]
    )


def brute_kth_indices(reference, zs, k):
    """Per-row brute force: the k-th reference row in (exact distance, index) order."""
    return np.array(
        [
            sorted(range(len(reference)), key=lambda i: (np.linalg.norm(reference[i] - z), i))[
                k - 1
            ]
            for z in zs
        ]
    )


def assert_kth_neighbors_exact(reference, zs, k):
    dist, idx = kth_neighbors(reference, zs, k)
    assert np.array_equal(-dist, brute_knn_scores(reference, zs, k)), k
    assert np.array_equal(idx, brute_kth_indices(reference, zs, k)), k
    assert np.array_equal(-dist, knn_scores(reference, zs, k))


# -- knn score -----------------------------------------------------------------


def test_knn_score_zero_for_member():
    ref = np.eye(3)
    assert knn_scores(ref, np.eye(3)[1], 1)[0] == 0.0


def test_knn_score_antipodal_diameter():
    ref = np.eye(3)[:1]
    assert np.isclose(knn_scores(ref, -np.eye(3)[0], 1)[0], -2.0, atol=1e-12)


def test_knn_score_matches_brute_force():
    rng = np.random.default_rng(0)
    ref = rng.standard_normal((50, 6))
    ref /= np.linalg.norm(ref, axis=1, keepdims=True)
    for _ in range(20):
        z = normalize(rng.standard_normal(6))
        k = int(rng.integers(1, 20))
        want = -sorted(np.linalg.norm(ref - z, axis=1))[k - 1]
        assert knn_scores(ref, z, k)[0] == want
    zs = np.array([normalize(rng.standard_normal(6)) for _ in range(7)])
    batch = knn_scores(ref, zs, 5)
    assert np.array_equal(batch, [knn_scores(ref, z, 5)[0] for z in zs])


def test_knn_score_insufficient_reference():
    with pytest.raises(InsufficientDataError):
        knn_scores(np.eye(3)[:2], np.eye(3)[0], 3)
    with pytest.raises(InsufficientDataError):
        knn_scores(np.eye(3)[:2], np.eye(3), 3)
    with pytest.raises(BadArgError):
        knn_scores(np.eye(3), np.eye(3), 0)


@pytest.mark.parametrize("k_of_n", ["one", "mid", "all"])
def test_knn_scores_equal_brute_force_across_blocks(k_of_n):
    rng = np.random.default_rng(8)
    n = 3000
    ref = unit_rows(rng.standard_normal((n, 16)))
    block = KNN_BLOCK_ELEMENTS // n
    k = {"one": 1, "mid": n // 2, "all": n}[k_of_n]
    for rows in (1, block, 2 * block + 1):
        zs = unit_rows(rng.standard_normal((rows, 16)))
        assert np.array_equal(knn_scores(ref, zs, k), brute_knn_scores(ref, zs, k)), rows
    # indices on a smaller reference (the index oracle sorts in Python)
    small = ref[:300]
    for rows in (1, KNN_BLOCK_ELEMENTS // 300 + 1):
        zs = unit_rows(rng.standard_normal((rows, 16)))
        assert_kth_neighbors_exact(small, zs, {"one": 1, "mid": 150, "all": 300}[k_of_n])


def test_knn_scores_duplicate_reference_rows():
    rng = np.random.default_rng(9)
    base = unit_rows(rng.standard_normal((200, 8)))
    ref = np.concatenate([base, base[:120], base[:40]])
    zs = np.concatenate([base[:30], unit_rows(rng.standard_normal((30, 8)))])
    for k in (1, 2, 3, 4, 250, ref.shape[0]):
        assert np.array_equal(knn_scores(ref, zs, k), brute_knn_scores(ref, zs, k)), k
        assert_kth_neighbors_exact(ref, zs, k)
    # a query on a row buffered three times gets its copies in insertion order
    _, idx = kth_neighbors(ref, base[:1], 3)
    assert idx[0] == 320
    assert [kth_neighbors(ref, base[:1], k)[1][0] for k in (1, 2)] == [0, 200]


def test_knn_scores_exact_on_near_ties_the_expansion_misorders():
    # 40 neighbors within 1e-7 of the query, their distances 0.1% apart: the
    # expansion's cancellation error (~1e-16 on squared distances of ~1e-14)
    # scrambles their order, so only the exact fallback gets the k-th right
    rng = np.random.default_rng(10)
    q = normalize(rng.standard_normal(16))
    radii = 1e-7 * (1.0 + 1e-3 * np.arange(40))
    offsets = unit_rows(rng.standard_normal((40, 16))) * radii[:, None]
    far = unit_rows(rng.standard_normal((60, 16)))
    ref = np.concatenate([q + offsets, far])
    exact = np.linalg.norm(ref - q, axis=1)
    by_expansion = exact[np.argsort(np.einsum("ij,ij->i", ref, ref) - 2.0 * (ref @ q))]
    misordered = np.flatnonzero(by_expansion != np.sort(exact))
    assert misordered.size > 10
    for k in (1, *(misordered[:10] + 1), 40, 41, 100):
        assert knn_scores(ref, q[None, :], k)[0] == -np.sort(exact)[k - 1], k
        assert_kth_neighbors_exact(ref, q[None, :], k)


def test_knn_scores_runs_its_gemms_on_one_blas_thread(monkeypatch):
    controls = blas.thread_controls()
    if controls is None or controls[0]() < 2:
        pytest.skip("needs OpenBLAS found in /proc/self/maps, at 2+ threads")
    get, _ = controls
    before = get()
    seen = []
    argpartition = np.argpartition

    def spy(*args, **kwargs):
        seen.append(get())
        return argpartition(*args, **kwargs)

    monkeypatch.setattr(np, "argpartition", spy)
    ref = unit_rows(np.random.default_rng(11).standard_normal((300, 8)))
    knn_scores(ref, ref[:5], 3)
    monkeypatch.undo()
    assert seen and set(seen) == {1}
    assert get() == before
    with pytest.raises(RuntimeError), blas.one_thread():
        assert get() == 1
        raise RuntimeError
    assert get() == before


# -- threshold calibration -------------------------------------------------------


def test_calibrate_hundred_ranks():
    scores = np.arange(1.0, 101.0)
    beta = calibrate_threshold(scores)
    assert beta == 6.0
    assert np.sum(scores >= beta) == 95


def test_calibrate_constant_scores():
    assert calibrate_threshold(np.full(50, 3.25)) == 3.25


def test_calibrate_boundary_is_largest_valid_threshold():
    # with 20 scores the requirement is ceil(0.95 * 20) = 19 of them at or
    # above the threshold, so the second-smallest value is the largest valid
    # choice (the minimum also qualifies but is not maximal)
    scores = np.arange(1.0, 21.0)
    beta = calibrate_threshold(scores)
    assert beta == 2.0
    assert np.sum(scores >= beta) == 19
    assert np.sum(scores >= np.nextafter(beta, np.inf)) < 19


def test_calibrate_too_few():
    with pytest.raises(TooFewSamplesError):
        calibrate_threshold(np.arange(19.0))


# -- fpr at 95% tpr ----------------------------------------------------------------


def test_fpr95_perfect_separation():
    id_scores = np.linspace(1.0, 2.0, 40)
    ood_scores = np.linspace(-1.0, 0.0, 40)
    assert fpr_at_tpr95(id_scores, ood_scores) == 0.0
    assert fpr_at_tpr95(ood_scores, id_scores) == 1.0


def test_fpr95_identical_distributions_near_95_percent():
    # an uninformative detector keeps ~95% of the OOD scores above the
    # 95%-TPR threshold, the Monte-Carlo complement of the ID tail mass
    rng = np.random.default_rng(1)
    id_scores = rng.standard_normal(10_000)
    ood_scores = rng.standard_normal(10_000)
    assert abs(fpr_at_tpr95(id_scores, ood_scores) - 0.95) <= 0.02


def test_fpr95_monotone_under_ood_shift():
    rng = np.random.default_rng(2)
    id_scores = rng.standard_normal(200)
    ood_scores = rng.standard_normal(200)
    base = fpr_at_tpr95(id_scores, ood_scores)
    shifted = fpr_at_tpr95(id_scores, ood_scores - 0.5)
    assert shifted <= base


def test_fpr95_matches_counting_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        id_scores = rng.standard_normal(rng.integers(20, 80))
        ood_scores = rng.standard_normal(rng.integers(5, 80))
        assert fpr_at_tpr95(id_scores, ood_scores) == oracle_fpr95(
            id_scores.tolist(), ood_scores.tolist()
        )


# -- auroc / aupr ---------------------------------------------------------------------


def test_auroc_closed_cases():
    assert auroc(np.array([2.0, 3.0]), np.array([0.0, 1.0])) == 1.0
    assert auroc(np.array([1.0, 3.0]), np.array([2.0])) == 0.5
    assert auroc(np.full(5, 1.0), np.full(7, 1.0)) == 0.5


def test_auroc_matches_pairwise_oracle_exactly():
    rng = np.random.default_rng(4)
    for _ in range(20):
        id_scores = np.round(rng.standard_normal(rng.integers(3, 40)), 1)  # force ties
        ood_scores = np.round(rng.standard_normal(rng.integers(3, 40)), 1)
        assert auroc(id_scores, ood_scores) == oracle_auroc(
            id_scores.tolist(), ood_scores.tolist()
        )


def test_auroc_rejects_nan_scores():
    with pytest.raises(DataError):
        auroc(np.array([1.0, np.nan]), np.array([0.5]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_auroc_invariances(seed):
    rng = np.random.default_rng(seed)
    id_scores = rng.standard_normal(15)
    ood_scores = rng.standard_normal(12)
    base = auroc(id_scores, ood_scores)
    # strictly increasing transform leaves the ranking unchanged
    assert np.isclose(auroc(np.exp(id_scores), np.exp(ood_scores)), base, atol=1e-12)
    # swapping the roles complements the statistic
    assert np.isclose(auroc(ood_scores, id_scores), 1.0 - base, atol=1e-12)


def test_aupr_perfect_separation():
    assert aupr(np.array([2.0, 3.0]), np.array([0.0, 1.0])) == 1.0


def test_aupr_matches_independent_trapezoid_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        id_scores = rng.standard_normal(rng.integers(3, 40))
        ood_scores = rng.standard_normal(rng.integers(3, 40))
        got = aupr(id_scores, ood_scores)
        want = oracle_aupr(id_scores.tolist(), ood_scores.tolist())
        assert np.isclose(got, want, atol=1e-12)


def test_aupr_bit_identical_to_threshold_loop():
    rng = np.random.default_rng(11)
    cases = [(np.array([0.3]), np.array([0.1])), (np.array([0.1]), np.array([0.1]))]
    for _ in range(60):
        id_scores = rng.standard_normal(rng.integers(1, 200)) + 0.5
        ood_scores = rng.standard_normal(rng.integers(1, 200))
        cases.append((id_scores, ood_scores))
        cases.append((np.round(id_scores, 1), np.round(ood_scores, 1)))  # ties
    for id_scores, ood_scores in cases:
        assert aupr(id_scores, ood_scores) == loop_aupr(id_scores, ood_scores)


# -- hypersphere quality -----------------------------------------------------------


def test_quality_orthogonal_ood_is_90_degrees():
    prototypes = np.eye(4)[:2]
    ood = np.array([[0.0, 0.0, 1.0, 0.0]])
    q = hypersphere_quality(ood, prototypes, np.array([0, 1]), prototypes)
    assert np.isclose(q.separation_deg, 90.0, atol=1e-9)
    assert np.isclose(q.dispersion_deg, 90.0, atol=1e-9)
    assert np.isclose(q.compactness_deg, 0.0, atol=1e-6)


def test_quality_angles_in_range():
    rng = np.random.default_rng(6)
    protos = rng.standard_normal((5, 8))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    ood = rng.standard_normal((30, 8))
    ood /= np.linalg.norm(ood, axis=1, keepdims=True)
    ids = rng.standard_normal((40, 8))
    ids /= np.linalg.norm(ids, axis=1, keepdims=True)
    q = hypersphere_quality(ood, ids, rng.integers(0, 5, 40), protos)
    for angle in (q.separation_deg, q.dispersion_deg, q.compactness_deg):
        assert 0.0 <= angle <= 180.0


# -- report ---------------------------------------------------------------------------


def test_score_report_serialization(tmp_path):
    rng = np.random.default_rng(7)
    report = score_report(rng.standard_normal(50) + 2.0, rng.standard_normal(50))
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    report.save_json(jpath)
    report.save_csv(cpath)
    doc = json.loads(jpath.read_text())
    assert doc["fpr95"] == report.fpr95
    assert len(doc["id_scores"]) == 50
    rows = cpath.read_text().strip().splitlines()
    assert rows[0] == "metric,value"
    assert len(rows) == 5
    assert 0.0 <= report.fpr95 <= 1.0
    assert 0.0 <= report.auroc <= 1.0
    assert 0.0 <= report.aupr <= 1.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_score_report_rejects_non_finite_scores(bad):
    rng = np.random.default_rng(12)
    scores = rng.standard_normal(40)
    scores[7] = bad
    with pytest.raises(DataError):
        score_report(scores, rng.standard_normal(40))
    with pytest.raises(DataError):
        score_report(rng.standard_normal(40), scores)
