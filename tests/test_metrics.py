import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodsynth import blas, energy, metrics
from oodsynth.bench import BenchConfig, run_experiment
from oodsynth.energy import EnergyContext
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
    ranking_shift,
    score_report,
    select_kth,
    tie_window,
)
from oodsynth.sphere import normalize
from oodsynth.store import IdSnapshot


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


def exact_ranks(reference, zs):
    """Per-row brute force in numpy: every row's exact distances and their
    (exact distance, index) order; column k - 1 of the order is the k-th."""
    exact = np.array([np.linalg.norm(reference - z, axis=1) for z in zs])
    return exact, np.argsort(exact, axis=1, kind="stable")


@pytest.mark.parametrize("d", [2, 16, 128])
def test_kth_neighbors_equal_brute_force_across_blocks_in_every_dimension(d):
    rng = np.random.default_rng(12 + d)
    n = 700
    ref = unit_rows(rng.standard_normal((n, d)))
    ref[n // 2 :: 7] = ref[: n // 2 : 7]  # exact duplicates
    block = KNN_BLOCK_ELEMENTS // n
    zs = unit_rows(rng.standard_normal((2 * block + 1, d)))
    zs[::5] = ref[: len(zs[::5])]  # queries on reference rows
    exact, order = exact_ranks(ref, zs)
    for k in (1, 2, 7, 50, n // 2, n):
        dist, idx = kth_neighbors(ref, zs, k)
        assert np.array_equal(idx, order[:, k - 1]), (d, k)
        assert np.array_equal(dist, exact[np.arange(len(zs)), idx]), (d, k)


def test_kth_neighbors_exact_on_ties_float32_cannot_resolve(monkeypatch):
    # 20 rows whose squared distances to q are 0.5 (1 + 1e-7 j), 10 rows nearer
    # and 30 farther, in random directions: float64 keeps the 20 apart, but
    # the float32 expansion's rounding (~1e-7 of the scale) scrambles them, so
    # only the exact fallback gets a k-th among them right
    rng = np.random.default_rng(13)
    d = 16
    q = normalize(rng.standard_normal(d))
    sq_dists = np.concatenate(
        [0.1 + 0.01 * np.arange(10), 0.5 * (1.0 + 1e-7 * np.arange(20)), 0.8 + 0.01 * np.arange(30)]
    )
    angles = np.arccos(1.0 - sq_dists / 2.0)
    away = rng.standard_normal((len(angles), d))
    away = unit_rows(away - np.outer(away @ q, q))
    ref = np.cos(angles)[:, None] * q + np.sin(angles)[:, None] * away
    ref = ref[rng.permutation(len(ref))]
    exact = np.linalg.norm(ref - q, axis=1)
    assert np.all(np.diff(np.sort(exact)[10:30]) > 0)
    sq_norms32 = np.einsum("ij,ij->i", ref, ref).astype(np.float32)
    by_float32 = sq_norms32 + ref.astype(np.float32) @ (-2.0 * q).astype(np.float32)
    assert np.flatnonzero(exact[np.argsort(by_float32, kind="stable")] != np.sort(exact)).size > 5
    exact_rankings = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        exact_rankings.append(len(a))
        return argsort(a, *args, **kwargs)

    for k in range(9, 33):
        exact_rankings.clear()
        monkeypatch.setattr(np, "argsort", spy)
        kth_neighbors(ref, q[None, :], k)
        monkeypatch.undo()
        if 11 <= k <= 30:
            assert exact_rankings and exact_rankings[0] >= 2, k  # the row fell back
        assert_kth_neighbors_exact(ref, q[None, :], k)


@pytest.mark.parametrize("d", [1, 2, 16, 128, 4096])
def test_float64_tie_window_is_the_fixed_1e9_window(d):
    rng = np.random.default_rng(14)
    queries = rng.standard_normal((9, d)) * np.logspace(-3, 3, 9)[:, None]
    for sq_max in (0.0, 1.0, 3.7, 1e6):
        want = 1e-9 * (sq_max + np.einsum("ij,ij->i", queries, queries) + 1.0)
        assert np.array_equal(tie_window(sq_max, queries), want)
        assert np.array_equal(tie_window(np.float64(sq_max), queries, np.float64), want)


def test_kth_neighbors_exact_at_every_scale_a_float32_ranking_holds():
    rng = np.random.default_rng(15)
    ref = unit_rows(rng.standard_normal((120, 16)))
    zs = unit_rows(rng.standard_normal((9, 16)))
    for scale in (1e-25, 1e-3, 1e3, 1e17):
        for k in (1, 5, 120):
            assert_kth_neighbors_exact(scale * ref, scale * zs, k)
    for big_ref, big_zs in ((1e20, 1.0), (1.0, 1e20), (1e20, 1e20)):
        with pytest.raises(BadArgError):
            kth_neighbors(big_ref * ref, big_zs * zs, 5)
    # a NaN query row passes the bound and keeps its NaN distance
    zs[3] = np.nan
    dist, _ = kth_neighbors(ref, zs, 5)
    assert np.isnan(dist).tolist() == [i == 3 for i in range(9)]
    finite = ~np.isnan(dist)
    assert np.array_equal(-dist[finite], brute_knn_scores(ref, zs[finite], 5))


def test_knn_scores_runs_its_gemms_on_one_blas_thread(monkeypatch):
    controls = blas.thread_controls()
    if controls is None or controls[0]() < 2:
        pytest.skip("needs OpenBLAS found in /proc/self/maps, at 2+ threads")
    get, _ = controls
    before = get()
    seen = []
    matmul = np.matmul

    def spy(*args, **kwargs):
        seen.append(get())
        return matmul(*args, **kwargs)

    # each block's GEMM is one np.matmul call into the reused ranking buffer
    monkeypatch.setattr(np, "matmul", spy)
    ref = unit_rows(np.random.default_rng(11).standard_normal((300, 8)))
    knn_scores(ref, ref[:5], 3)
    monkeypatch.undo()
    assert seen and set(seen) == {1}
    assert get() == before
    with pytest.raises(RuntimeError), blas.one_thread():
        assert get() == 1
        raise RuntimeError
    assert get() == before


def argpartition_select_kth(ranking, k, reference, queries, sq_max, first=0):
    """``select_kth`` as it was before its value partition, kept as its bit-exact
    oracle: one ``argpartition`` and a gather per call; (distances, reference rows)."""
    rows = np.arange(ranking.shape[0])
    if k < ranking.shape[1]:
        order = np.argpartition(ranking, k, axis=1)
        after = ranking[rows, order[:, k]]
        head = order[:, :k]
    else:
        after = np.full(ranking.shape[0], np.inf)
        head = np.broadcast_to(np.arange(k), (ranking.shape[0], k))
    smallest = np.take_along_axis(ranking, head, axis=1)
    at = np.argmax(smallest, axis=1)
    idx = head[rows, at]
    kth = smallest[rows, at]
    smallest[rows, at] = -np.inf
    before = smallest.max(axis=1)
    window = 1e-9 * (sq_max + np.einsum("ij,ij->i", queries, queries) + 1.0)
    lo = kth - window
    hi = kth + window
    first = np.broadcast_to(first, rows.shape)
    dist = np.linalg.norm(reference[first + idx] - queries, axis=1)
    for i in np.flatnonzero((before >= lo) | (after <= hi)):
        below = np.count_nonzero(ranking[i] < lo[i])
        near = np.flatnonzero((ranking[i] >= lo[i]) & (ranking[i] <= hi[i]))
        exact = np.linalg.norm(reference[first[i] + near] - queries[i], axis=1)
        j = np.argsort(exact, kind="stable")[k - 1 - below]
        idx[i], dist[i] = near[j], exact[j]
    return dist, first + idx


def padded_ranking(reference, queries, first, counts):
    """Row i ranks ``reference[first[i] : first[i] + counts[i]]`` against
    ``queries[i]``, shifted by ``ranking_shift`` as ``select_kth`` requires;
    ``+inf`` pads the row to the largest count. Returns the ranking and the
    ``sq_max`` of its ``tie_window``, the shift included."""
    sq_norms = np.einsum("ij,ij->i", reference, reference)
    sq_max = float(sq_norms.max())
    shift = ranking_shift(sq_max, queries)
    ranking = np.full((len(queries), max(counts)), np.inf)
    for i, (f, c) in enumerate(zip(first, counts)):
        shifted_norms = sq_norms[f : f + c] + shift
        ranking[i, :c] = (-2.0 * queries[i]) @ reference[f : f + c].T + shifted_norms
    return ranking, sq_max + shift


def assert_select_kth_matches_oracle(ranking, k, reference, queries, sq_max, first):
    kept = ranking.copy()
    rows = select_kth(
        ranking, np.empty_like(ranking), k, tie_window(sq_max, queries), reference, queries, first
    )
    assert np.array_equal(ranking, kept, equal_nan=True)  # only the scratch copy is partitioned
    dist = np.linalg.norm(reference[rows] - queries, axis=1)
    want_dist, want_rows = argpartition_select_kth(ranking, k, reference, queries, sq_max, first)
    assert np.array_equal(dist, want_dist, equal_nan=True), k
    # a NaN query row has no k-th neighbor: any row in range serves its NaN distance
    finite = ~np.isnan(dist)
    assert np.array_equal(rows[finite], want_rows[finite]), k
    assert ((rows >= 0) & (rows < len(reference))).all()
    return dist


@pytest.mark.parametrize("seed", range(4))
def test_select_kth_equals_the_argpartition_oracle_on_padded_rankings(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(5, 60, size=6)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    reference = unit_rows(rng.standard_normal((offsets[-1], 8)))
    reference[offsets[1] : offsets[1] + 3] = reference[offsets[1]]  # exact duplicates
    cls = rng.integers(0, 6, size=40)
    queries = unit_rows(rng.standard_normal((40, 8)))
    queries[0] = reference[offsets[1]]  # on the duplicated row
    first, row_counts = offsets[cls], counts[cls]
    ranking, sq_max = padded_ranking(reference, queries, first, row_counts)
    assert np.isinf(ranking).any()
    for k in sorted({1, 2, 3, 4, int(row_counts.min())}):
        assert_select_kth_matches_oracle(ranking, k, reference, queries, sq_max, first)


def test_select_kth_equals_the_oracle_at_k_equal_to_the_width():
    rng = np.random.default_rng(4)
    reference = unit_rows(rng.standard_normal((30, 8)))
    queries = unit_rows(rng.standard_normal((7, 8)))
    first, counts = np.zeros(7, dtype=np.intp), [30] * 7
    ranking, sq_max = padded_ranking(reference, queries, first, counts)
    for k in (1, 29, 30):
        assert_select_kth_matches_oracle(ranking, k, reference, queries, sq_max, 0)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_select_kth_takes_the_fallback_on_exact_duplicates_at_the_kth(monkeypatch, k):
    # rows 2, 3 and 4 are one point stored three times, the 2nd to 4th
    # nearest to q: the k-th ties the (k+1)-th only at k = 2, both of them
    # at k = 3, and the (k-1)-th only at k = 4
    q = np.eye(8)[0]
    angles = [0.05, 0.5, 0.1, 0.1, 0.1, 0.6, 0.7, 0.8]
    axes = [1, 2, 3, 3, 3, 4, 5, 6]
    reference = np.array([np.cos(a) * q + np.sin(a) * np.eye(8)[j] for a, j in zip(angles, axes)])
    queries = q[None, :]
    ranking, sq_max = padded_ranking(reference, queries, [0], [len(reference)])
    assert ranking[0, 2] == ranking[0, 3] == ranking[0, 4]
    exact_rankings = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        exact_rankings.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    rows = select_kth(
        ranking, np.empty_like(ranking), k, tie_window(sq_max, queries), reference, queries
    )
    monkeypatch.undo()
    assert exact_rankings == [3]  # the one row fell back, over its three tied copies
    assert rows.tolist() == [k]  # the tied copies in index order: 2, 3, 4
    assert_select_kth_matches_oracle(ranking, k, reference, queries, sq_max, 0)


def test_select_kth_gives_a_nan_query_row_a_nan_distance():
    rng = np.random.default_rng(6)
    reference = unit_rows(rng.standard_normal((50, 8)))
    queries = unit_rows(rng.standard_normal((5, 8)))
    queries[2] = np.nan
    ranking, sq_max = padded_ranking(reference, queries, [0] * 5, [50] * 5)
    for k in (1, 3, 50):
        dist = assert_select_kth_matches_oracle(ranking, k, reference, queries, sq_max, 0)
        assert np.isnan(dist).tolist() == [False, False, True, False, False]


# -- the shifted ranking's contract ----------------------------------------------


def plant_kth_duplicate(reference, q, k):
    """Copy q's k-th nearest row of ``reference`` over its (k+1)-th, in place:
    the two are then exact duplicates at the k-th neighbor."""
    order = np.argsort(np.linalg.norm(reference - q, axis=1), kind="stable")
    reference[order[k]] = reference[order[k - 1]]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    log_scale=st.integers(-25, 17),
    spreads=st.lists(st.integers(-8, 0), min_size=6, max_size=6),
    d=st.sampled_from([2, 3, 16]),
    k=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    nan_row=st.booleans(),
)
def test_both_shifted_rankings_select_the_float64_oracle(log_scale, spreads, d, k, seed, nan_row):
    # one call's query norms span up to 8 orders of magnitude below the
    # reference scale, so the shift, taken over the call, dwarfs the small ones
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    counts = np.array([k + 3, 2 * k + 5, 30])
    offsets = np.concatenate([[0], np.cumsum(counts)])
    reference = unit_rows(rng.standard_normal((offsets[-1], d))) * scale
    queries = unit_rows(rng.standard_normal((6, d))) * (scale * 10.0 ** np.array(spreads))[:, None]
    if nan_row:
        queries[-1] = np.nan
    ok = ~np.isnan(queries).any(axis=1)

    detector_ref = reference.copy()
    plant_kth_duplicate(detector_ref, queries[0], k)
    dist, idx = kth_neighbors(detector_ref, queries, k)
    exact, order = exact_ranks(detector_ref, queries)
    assert np.isnan(dist).tolist() == (~ok).tolist()
    assert np.array_equal(idx[ok], order[ok, k - 1])
    assert np.array_equal(dist[ok], exact[ok, idx[ok]])

    embeddings = reference.copy()
    plant_kth_duplicate(embeddings[: counts[0]], queries[0], k)  # class 0, pair (0, 1)
    store = IdSnapshot(embeddings, offsets, np.eye(3, d), np.ones(3, dtype=bool))
    pairs = np.array([(0, 1), (1, 2), (2, 0), (0, 2), (1, 0), (2, 1)])
    ctx = EnergyContext(store=store, pairs=pairs, k=k, kappa=1.0)
    dist, idx = ctx._pair_query(queries)
    for side in (0, 1):
        for i, c in enumerate(pairs[:, side].tolist()):
            if not ok[i]:
                assert np.isnan(dist[side, i])
                continue
            exact = np.linalg.norm(embeddings[offsets[c] : offsets[c + 1]] - queries[i], axis=1)
            j = np.argsort(exact, kind="stable")[k - 1]
            assert (idx[side, i], dist[side, i]) == (offsets[c] + j, exact[j]), (side, i)
    # the potential and gradient read those neighbors, on either ranking path
    d_u, d_v = dist
    n_u, n_v = embeddings[idx]
    p = 0.5 * (d_u + d_v)
    dirs = (queries - n_u) / d_u[:, None] + (queries - n_v) / d_v[:, None]
    value, grad = ctx.value_and_grad(queries)
    assert np.array_equal(value, -np.log(p), equal_nan=True)
    assert np.array_equal(grad, -dirs / (2.0 * p)[:, None], equal_nan=True)
    at_endpoint = ctx.endpoint(queries)
    assert np.array_equal(at_endpoint[0], value, equal_nan=True)
    assert np.array_equal(at_endpoint[1], grad, equal_nan=True)


def test_a_stock_run_ranks_with_clear_sign_bits(monkeypatch):
    # every ranking select_kth receives, from the detector and the energy,
    # holds no finite entry with its sign bit set: the integer partition
    # orders it as the floats
    dtypes = set()

    def spy(ranking, *args, **kwargs):
        finite = ranking[np.isfinite(ranking)]
        assert finite.size > 0 and not np.signbit(finite).any()
        dtypes.add(ranking.dtype)
        return select_kth(ranking, *args, **kwargs)

    monkeypatch.setattr(metrics, "select_kth", spy)
    monkeypatch.setattr(energy, "select_kth", spy)
    (result,) = run_experiment(BenchConfig(iterations=1))
    assert len(result.batch) > 0
    assert dtypes == {np.dtype(np.float32), np.dtype(np.float64)}


# -- one detector pass per snapshot ------------------------------------------------

# 4096 reference rows: detector blocks of 32 query rows, so parts of up to 70
# rows start and end inside blocks and straddle their boundaries
STACK_N = 4096


def stack_fixture(rng, d, fixture):
    """A (STACK_N, d) unit reference and a pool of queries to draw parts from.

    "duplicates" stores rows up to three times and puts queries on them;
    "near ties" puts 40 rows within 1e-7 of one query, their distances
    0.1% apart, which only the exact fallback orders right.
    """
    reference = unit_rows(rng.standard_normal((STACK_N, d)))
    pool = unit_rows(rng.standard_normal((210, d)))
    if fixture == "duplicates":
        reference[STACK_N // 2 :: 7] = reference[: STACK_N // 2 : 7]
        reference[1::97] = reference[0]
        pool[::3] = reference[: len(pool[::3])]
    elif fixture == "near ties":
        q = pool[0]
        radii = 1e-7 * (1.0 + 1e-3 * np.arange(40))
        reference[:40] = q + unit_rows(rng.standard_normal((40, d))) * radii[:, None]
        pool[::5] = q
    return reference, pool


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    sizes=st.lists(st.integers(0, 70), min_size=3, max_size=3),
    scales=st.lists(st.sampled_from([1.0, 1e-3, 10.0]), min_size=3, max_size=3),
    d=st.sampled_from([2, 16]),
    k=st.sampled_from([1, 2, 3, 20, 45, STACK_N]),
    fixture=st.sampled_from(["random", "duplicates", "near ties"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_stacked_call_equals_one_call_per_part(sizes, scales, d, k, fixture, seed):
    # the stacked call takes its shift and windows over every part, each
    # part's own call over that part alone; neighbors are exact either way,
    # so the distances and indices keep their bits
    rng = np.random.default_rng(seed)
    reference, pool = stack_fixture(rng, d, fixture)
    sq_norms = np.einsum("ij,ij->i", reference, reference)
    bounds = np.cumsum([0, *sizes])
    parts = [scale * pool[lo:hi] for scale, lo, hi in zip(scales, bounds, bounds[1:])]
    dist, idx = kth_neighbors(reference, np.concatenate(parts), k, sq_norms)
    for part, lo, hi in zip(parts, bounds, bounds[1:]):
        part_dist, part_idx = kth_neighbors(reference, part, k, sq_norms)
        assert np.array_equal(dist[lo:hi], part_dist)
        assert np.array_equal(idx[lo:hi], part_idx)


def test_a_stock_run_makes_one_detector_call_per_iteration(monkeypatch):
    calls = []

    def spy(reference, queries, *args, **kwargs):
        calls.append(len(queries))
        return kth_neighbors(reference, queries, *args, **kwargs)

    monkeypatch.setattr(metrics, "kth_neighbors", spy)
    results = run_experiment(BenchConfig(iterations=2))
    cfg = BenchConfig()
    tests = cfg.num_classes * cfg.id_test_per_class + cfg.ood.n_uniform + cfg.ood.n_midpoint
    assert calls == [tests + len(r.batch) for r in results]


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


@pytest.mark.parametrize("metric", [fpr_at_tpr95, auroc, aupr], ids=lambda f: f.__name__)
@pytest.mark.parametrize("side", ["ID", "OOD"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_detection_metrics_reject_non_finite_scores(metric, side, bad):
    id_scores, ood_scores = np.linspace(0.0, 1.0, 25), np.array([0.2, 0.9])
    scores = id_scores if side == "ID" else ood_scores
    scores[1] = bad
    with pytest.raises(DataError, match=f"{side} scores contain NaN or infinite values"):
        metric(id_scores, ood_scores)


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


@pytest.mark.parametrize("dim", [3, 16, 128])
def test_quality_agrees_with_the_blas_products_to_a_few_ulps(dim):
    # the oracle's two GEMMs, the products as first written, round per OpenBLAS kernel
    rng = np.random.default_rng(dim)
    for _ in range(10):
        protos, ood = (normalize(rng.standard_normal((n, dim))) for n in (10, 200))
        labels = rng.integers(0, 10, 300)
        ids = normalize(protos[labels] + 0.3 * rng.standard_normal((300, dim)))
        got = dataclasses.astuple(hypersphere_quality(ood, ids, labels, protos))
        cos_sep = (ood @ protos.T).max(axis=1).mean()
        cos_disp = (protos @ protos.T)[~np.eye(10, dtype=bool)].mean()
        cos_comp = np.einsum("ij,ij->i", ids, protos[labels]).mean()
        want = np.degrees(np.arccos([cos_sep, cos_disp, cos_comp]))
        assert np.all(np.abs(np.subtract(got, want)) <= 8 * np.spacing(want))


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
