import math
from collections import Counter

import numpy as np
import pytest

from conftest import class_rows, cluster_store, midpoint
from oodsynth import blas, energy
from oodsynth.energy import (
    EnergyContext,
    log_class_densities,
    neg_log_max_id_prob,
    passes_margin,
)
from oodsynth.errors import BadArgError, BadClassError, InsufficientDataError
from oodsynth.metrics import kth_neighbors
from oodsynth.samplers import HmcConfig
from oodsynth.sphere import normalize, project_tangent
from oodsynth.store import IdStore
from oodsynth.synthesis import synthesize_batch


def two_point_store(n_u, n_v, dim=None):
    """Snapshot of a C=2 store holding one embedding per class (for k=1 contexts)."""
    n_u = np.asarray(n_u, dtype=float)
    n_v = np.asarray(n_v, dtype=float)
    dim = dim or n_u.size
    store = IdStore(2, dim, capacity=4)
    store.insert(0, n_u)
    store.update_prototype(0, n_u)
    store.insert(1, n_v)
    store.update_prototype(1, n_v)
    return store.snapshot()


def oracle_knn_dist(embeddings, z, k):
    return sorted(np.linalg.norm(np.asarray(embeddings) - z, axis=1))[k - 1]


# -- OOD-ness and potential ---------------------------------------------------


def test_ood_prob_unit_distances():
    # both stored points at Euclidean distance exactly 1 from z
    z = np.array([1.0, 0.0, 0.0])
    n_u = np.array([0.5, np.sqrt(3) / 2, 0.0])
    n_v = np.array([0.5, -np.sqrt(3) / 2, 0.0])
    ctx = EnergyContext(store=two_point_store(n_u, n_v), pairs=[(0, 1)], k=1, kappa=2.0)
    u, _ = ctx.value_and_grad(z)
    assert np.isclose(math.exp(-u), 1.0, atol=1e-12)
    assert np.isclose(u, 0.0, atol=1e-12)


def test_ood_prob_zero_when_duplicated():
    z = normalize(np.array([1.0, 2.0, 0.0]))
    store = two_point_store(z, z)
    ctx = EnergyContext(store=store, pairs=[(0, 1)], k=1, kappa=2.0)
    for c in (0, 1):
        assert kth_neighbors(class_rows(store, c), z[None, :], 1)[0][0] == 0.0
    assert math.isnan(ctx.value_and_grad(z)[0])


def test_potential_negative_beyond_unit_distance():
    # distances sqrt(2) each: U = -log(sqrt(2)) < 0
    ctx = EnergyContext(
        store=two_point_store(np.eye(3)[1], -np.eye(3)[1]),
        pairs=[(0, 1)],
        k=1,
        kappa=2.0,
    )
    z = np.eye(3)[0]
    assert np.isclose(ctx.value_and_grad(z)[0], -0.5 * math.log(2.0), atol=1e-12)


def test_ood_prob_matches_oracle_and_round_trips():
    store = cluster_store(num_classes=2, dim=8, n_per_class=30, seed=3).snapshot()
    ctx = EnergyContext(store=store, pairs=[(0, 1)], k=5, kappa=2.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = normalize(rng.standard_normal(8))
        want = 0.5 * (
            oracle_knn_dist(class_rows(store, 0), z, 5)
            + oracle_knn_dist(class_rows(store, 1), z, 5)
        )
        u, _ = ctx.value_and_grad(z)
        assert np.isclose(u, -math.log(want), rtol=1e-12)
        # exp(-U) recovers the OOD-ness exactly
        assert np.isclose(math.exp(-u), want, rtol=1e-12)


def test_potential_pair_permutation_invariant():
    store = cluster_store(num_classes=2, dim=8, n_per_class=30, seed=6).snapshot()
    z = normalize(np.ones(8))

    def u(pair):
        return EnergyContext(store=store, pairs=[pair], k=3, kappa=2.0).value_and_grad(z)[0]

    assert u((0, 1)) == u((1, 0))


@pytest.mark.parametrize(
    "pairs, error",
    [
        ([(0, 1), (1, 1)], BadArgError),  # a pair needs two distinct classes
        ([(0, 2)], BadClassError),
        ([(-1, 0)], BadClassError),
        ([0, 1], BadArgError),  # not an (M, 2) array
        ([(0, 1, 0)], BadArgError),
    ],
)
def test_context_rejects_a_bad_pair(pairs, error):
    store = two_point_store(np.eye(3)[1], np.eye(3)[2])
    with pytest.raises(error):
        EnergyContext(store=store, pairs=pairs, k=1, kappa=2.0)


def test_context_keeps_a_read_only_copy_of_its_pairs():
    store = two_point_store(np.eye(3)[1], np.eye(3)[2])
    pairs = np.array([[0, 1], [1, 0]])
    ctx = EnergyContext(store=store, pairs=pairs, k=1, kappa=2.0)
    pairs[0] = [1, 0]
    assert ctx.pairs.tolist() == [[0, 1], [1, 0]] and ctx.pairs.dtype == np.intp
    with pytest.raises(ValueError, match="read-only"):
        ctx.pairs[0, 0] = 1


def test_context_requires_k_entries():
    store = two_point_store(np.eye(3)[1], np.eye(3)[2])
    with pytest.raises(InsufficientDataError):
        EnergyContext(store=store, pairs=[(0, 1)], k=2, kappa=2.0)


# -- one-pass pair query ------------------------------------------------------


def uneven_store(counts, dim=8, seed=0, duplicates=0):
    """Snapshot of a store whose class c holds ``counts[c]`` rows, the first
    ``duplicates`` of them buffered twice."""
    rng = np.random.default_rng(seed)
    store = IdStore(len(counts), dim, capacity=max(counts))
    for c, n in enumerate(counts):
        center = normalize(rng.standard_normal(dim))
        rows = normalize(center + 0.4 * rng.standard_normal((n - min(duplicates, n // 2), dim)))
        rows = np.concatenate([rows, rows[: n - len(rows)]])
        store.insert(c, rows)
        store.update_prototype(c, center)
    return store.snapshot()


def per_class_pair_query(ctx, zs):
    """The pair query as one ``kth_neighbors`` call per class: (2, M) distances,
    ``embeddings`` indices and neighbors."""
    store = ctx.store
    classes = np.concatenate([ctx.pairs[:, 0], ctx.pairs[:, 1]])
    queries = np.concatenate([zs, zs])
    dist = np.empty(len(queries))
    idx = np.empty(len(queries), dtype=np.intp)
    nbrs = np.empty_like(queries)
    for c in np.unique(classes).tolist():
        sel = np.flatnonzero(classes == c)
        emb = class_rows(store, c)
        dist[sel], local = kth_neighbors(emb, queries[sel], ctx.k)
        idx[sel] = store.offsets[c] + local
        nbrs[sel] = emb[local]
    m = len(zs)
    return dist.reshape(2, m), idx.reshape(2, m), nbrs.reshape(2, m, -1)


def assert_pair_query_matches_per_class(ctx, zs):
    dist, idx = ctx._pair_query(zs)
    want_dist, want_idx, want_nbrs = per_class_pair_query(ctx, zs)
    assert np.array_equal(dist, want_dist)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(ctx.store.embeddings[idx], want_nbrs)


@pytest.mark.parametrize(
    "counts, k",
    [
        ((37, 5, 60, 12), 1),  # unequal counts: shorter classes are padded
        ((37, 5, 60, 12), 5),  # class 1 holds exactly k rows
        ((5, 5, 5), 5),  # every class holds exactly k: no column past the k-th
        ((1, 9, 4), 1),
    ],
)
def test_pair_query_equals_per_class_kth_neighbors(counts, k):
    store = uneven_store(counts, seed=len(counts) + k, duplicates=3)
    c = len(counts)
    pairs = [(u, v) for u in range(c) for v in range(c) if u != v]
    rng = np.random.default_rng(k)
    zs = normalize(rng.standard_normal((len(pairs), 8)))
    zs[0] = class_rows(store, pairs[0][0])[0]  # on a buffered row
    zs[1] = class_rows(store, pairs[1][1])[-1]  # on a duplicate
    ctx = EnergyContext(store=store, pairs=pairs, k=k, kappa=2.0)
    assert_pair_query_matches_per_class(ctx, zs)
    # every row on a buffered point of its pair's u-class
    on_rows = [class_rows(store, u)[i % store.count(u)] for i, (u, _) in enumerate(pairs)]
    assert_pair_query_matches_per_class(ctx, np.array(on_rows))


def at_angles(q, angles):
    """Unit rows at the given angles from unit q, each along its own axis orthogonal to q."""
    axes = np.eye(q.size)[1 : len(angles) + 1]
    return np.cos(angles)[:, None] * q + np.sin(angles)[:, None] * axes


def near_tie_context():
    """k = 3 context of pair (0, 1) and its two query rows, q and a random row.

    Class 0 plants a near-tie between its 2nd and 3rd nearest rows to q,
    class 1 between its 3rd and 4th, both ~6e-13 apart in squared distance.
    """
    q = np.eye(8)[0]
    rows = [
        at_angles(q, np.array([0.9, 0.3 + 1e-12, 0.1, 0.3, 0.6])),
        at_angles(q, np.array([0.4 + 1e-12, 0.1, 0.9, 0.2, 0.4])),
    ]
    store = IdStore(2, 8, capacity=5)
    for c, r in enumerate(rows):
        store.insert(c, r)
    ctx = EnergyContext(store=store.snapshot(), pairs=[(0, 1)] * 2, k=3, kappa=2.0)
    return ctx, np.stack([q, normalize(np.random.default_rng(2).standard_normal(8))])


def test_pair_query_takes_the_exact_fallback_on_planted_near_ties(monkeypatch):
    ctx, zs = near_tie_context()
    want_dist, want_idx, _ = per_class_pair_query(ctx, zs)
    assert want_idx[:, 0].tolist() == [1, 5 + 4]  # the 3rd nearest of each by exact distance
    exact_rankings = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        exact_rankings.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    dist, idx = ctx._pair_query(zs)
    monkeypatch.undo()
    # q's u-row and v-row fall back, each over its two tied rows; the other query does not
    assert exact_rankings == [2, 2]
    assert np.array_equal(dist, want_dist)
    assert np.array_equal(idx, want_idx)


# -- gradients ----------------------------------------------------------------


def frozen_potential(z, n_u, n_v):
    return -math.log(0.5 * (np.linalg.norm(z - n_u) + np.linalg.norm(z - n_v)))


def central_fd(z, n_u, n_v, h=1e-6):
    g = np.zeros_like(z)
    for i in range(z.size):
        dz = np.zeros_like(z)
        dz[i] = h
        g[i] = (frozen_potential(z + dz, n_u, n_v) - frozen_potential(z - dz, n_u, n_v)) / (2 * h)
    return g


def test_grad_mirror_symmetry_is_radial():
    # mirrored neighbors make the direction sum exactly radial, so the
    # tangent-projected gradient (the part the sampler uses) vanishes
    ctx = EnergyContext(
        store=two_point_store(np.eye(3)[1], -np.eye(3)[1]),
        pairs=[(0, 1)],
        k=1,
        kappa=2.0,
    )
    z = np.eye(3)[0]
    grad = ctx.value_and_grad(z)[1]
    assert np.allclose(np.cross(grad, z), 0.0, atol=1e-15)
    assert np.abs(project_tangent(grad, z)).max() <= 1e-15


def test_grad_analytic_matches_finite_differences():
    n_u, n_v = np.eye(2)[1], -np.eye(2)[1]
    ctx = EnergyContext(store=two_point_store(n_u, n_v), pairs=[(0, 1)], k=1, kappa=2.0)
    z = np.eye(2)[0]
    _, grad = ctx.value_and_grad(z)
    fd = central_fd(z, n_u, n_v)
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) <= 1e-5


def test_grad_degenerate_when_on_neighbor():
    z = normalize(np.array([1.0, 1.0, 0.0]))
    other = np.eye(3)[2]
    ctx = EnergyContext(store=two_point_store(z, other), pairs=[(0, 1)], k=1, kappa=2.0)
    value, grad = ctx.value_and_grad(z)
    assert math.isnan(value)
    assert not grad.any()


def test_rows_are_evaluated_against_their_own_pairs():
    store = cluster_store(num_classes=3, dim=8, n_per_class=30, seed=9).snapshot()
    pairs = [(0, 1), (2, 0), (1, 2), (0, 1)]
    rng = np.random.default_rng(6)
    zs = normalize(rng.standard_normal((4, 8)))
    zs[3] = class_rows(store, 1)[4]  # on a buffered point of class 1: degenerate
    ctx = EnergyContext(store=store, pairs=pairs, k=1, kappa=2.0)
    values, grads = ctx.value_and_grad(zs)
    assert values.shape == (4,) and grads.shape == (4, 8)
    for i, (u, v) in enumerate(pairs[:3]):
        one = EnergyContext(store=store, pairs=[(u, v)], k=1, kappa=2.0)
        value, grad = one.value_and_grad(zs[i])
        assert abs(values[i] - value) <= 1e-15
        assert np.array_equal(grads[i], grad)
        (d_u,), _ = kth_neighbors(class_rows(store, u), zs[i : i + 1], 1)
        (d_v,), _ = kth_neighbors(class_rows(store, v), zs[i : i + 1], 1)
        assert abs(values[i] + math.log(0.5 * (d_u + d_v))) <= 1e-12
    assert math.isnan(values[3]) and not grads[3].any()


def test_batched_margin_matches_single_points():
    store = cluster_store(num_classes=3, dim=6, n_per_class=20, seed=16).snapshot()
    zs = normalize(np.random.default_rng(8).standard_normal((5, 6)))
    values = neg_log_max_id_prob(store, zs, 2.0)
    for z, value in zip(zs, values):
        assert abs(neg_log_max_id_prob(store, z, 2.0) - value) <= 1e-12
    t = np.full(5, float(np.median(values)))
    assert np.array_equal(passes_margin(store, zs, 2.0, t), values > t)


# -- vMF kernel and KDE -------------------------------------------------------


def brute_force_id_prob(store, z, const=1.0):
    """Softmax of the per-class KDE values, summing const * exp(2 mu^T z) directly (kappa = 2)."""
    raw = np.array(
        [
            const * np.mean(np.exp(2.0 * (class_rows(store, c) @ z)))
            for c in range(store.num_classes)
        ]
    )
    return raw / raw.sum()


def test_vmf_kernel_closed_forms():
    # one point per class: the class-0 log density is the log vMF kernel kappa * e1^T z
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    store = two_point_store(e1, e2)
    assert np.isclose(math.exp(log_class_densities(store, e1, 2.0)[0]), math.e**2, rtol=1e-12)
    assert np.isclose(math.exp(log_class_densities(store, e2, 2.0)[0]), 1.0, rtol=1e-12)
    assert np.isclose(math.exp(log_class_densities(store, -e1, 2.0)[0]), math.e**-2, rtol=1e-12)


def test_id_prob_identical_buffers_uniform():
    store = IdStore(3, 4, capacity=4)
    pts = [normalize(np.array([1.0, 2.0, 0.0, -1.0])), normalize(np.ones(4))]
    for c in range(3):
        for z in pts:
            store.insert(c, z)
    value = neg_log_max_id_prob(store.snapshot(), normalize(np.array([0.5, 0.5, 1.0, 0.0])), 2.0)
    assert np.isclose(value, -math.log(1.0 / 3.0), atol=1e-12)


def test_id_prob_two_class_closed_form():
    store = two_point_store(np.eye(3)[0], np.eye(3)[1])
    want = math.e**2 / (math.e**2 + 1.0)
    assert np.isclose(neg_log_max_id_prob(store, np.eye(3)[0], 2.0), -math.log(want), rtol=1e-12)


def test_id_prob_matches_direct_summation_oracle():
    store = cluster_store(num_classes=4, dim=6, n_per_class=25, seed=12).snapshot()
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = normalize(rng.standard_normal(6))
        want = -math.log(brute_force_id_prob(store, z).max())
        assert np.isclose(neg_log_max_id_prob(store, z, 2.0), want, rtol=1e-12)


def test_id_prob_invariant_to_shared_kernel_constant():
    # multiplying every kernel by one shared positive constant cancels in the
    # softmax, mirroring the dropped vMF normalizer
    store = cluster_store(num_classes=3, dim=5, n_per_class=20, seed=13).snapshot()
    z = normalize(np.ones(5))
    want = -math.log(brute_force_id_prob(store, z, const=7.3e-4).max())
    assert np.isclose(neg_log_max_id_prob(store, z, 2.0), want, rtol=1e-12)


def test_log_class_densities_equal_the_repeat_formula_on_unequal_counts():
    store = uneven_store((37, 5, 60, 12), seed=4, duplicates=3)
    zs = normalize(np.random.default_rng(4).standard_normal((2, 3, 8)))
    kappa = 7.5
    # the per-class maxima subtracted through np.repeat, as before they were broadcast
    starts, counts = store.offsets[:-1], np.diff(store.offsets)
    with blas.one_thread():
        ips = kappa * (zs.reshape(-1, 8) @ store.embeddings.T)
    highs = np.maximum.reduceat(ips, starts, axis=1)
    ips -= np.repeat(highs, counts, axis=1)
    sums = np.add.reduceat(np.exp(ips), starts, axis=1)
    want = (highs + np.log(sums) - np.log(counts)).reshape(2, 3, 4)
    assert np.array_equal(log_class_densities(store, zs, kappa), want)


@pytest.mark.parametrize(
    "counts",
    [(7, 7, 7, 7), (3, 3, 5, 5, 5, 2), (4, 9, 2, 6, 1)],
    ids=["uniform", "runs", "distinct"],
)
@pytest.mark.parametrize("rows", [1, 6])
def test_log_densities_equal_a_per_class_subtraction_bit_for_bit(counts, rows):
    # the class maxima are subtracted once per run of equal counts, through a
    # (rows, classes, count) view; the oracle subtracts them class by class
    store = uneven_store(counts, seed=len(counts))
    zs = normalize(np.random.default_rng(rows).standard_normal((rows, 8)))
    kappa = 3.5
    ips = energy._inner_products(store, zs)
    want = ips.copy()
    want *= kappa
    starts, counts = store.offsets[:-1], np.diff(store.offsets)
    highs = np.maximum.reduceat(want, starts, axis=1)
    for c, (start, stop) in enumerate(zip(starts, store.offsets[1:])):
        want[:, start:stop] -= highs[:, c : c + 1]
    sums = np.add.reduceat(np.exp(want, out=want), starts, axis=1)
    want = highs + np.log(sums) - np.log(counts)
    got = energy._log_densities(store, ips.copy(), kappa)
    assert got.tobytes() == want.tobytes()


# -- hard margin ---------------------------------------------------------------


def symmetric_two_class_store():
    return two_point_store(np.eye(3)[0], np.eye(3)[1])


def chain_threshold(store, pair, delta):
    """t_- of the chain that a one-round ``synthesize_batch`` starts on ``pair``."""
    batch = synthesize_batch(
        store, HmcConfig(rounds=1), k=1, delta=delta, kappa=2.0, n_adj=store.num_classes - 1
    )
    return next(run.t_minus for run in batch.chains if tuple(run.pair) == pair)


def test_threshold_symmetric_closed_form():
    store = symmetric_two_class_store()
    for delta in (0.0, 0.1):
        t = chain_threshold(store, (0, 1), delta)
        assert np.isclose(t, math.log(2.0) - delta, atol=1e-12)


def test_threshold_matches_oracle_minus_delta():
    store = cluster_store(num_classes=3, dim=6, n_per_class=20, seed=14).snapshot()
    oracle = -math.log(brute_force_id_prob(store, midpoint(store, 0, 1)).max())
    t = chain_threshold(store, (0, 1), 0.1)
    assert np.isclose(t, oracle - 0.1, rtol=1e-12)


def test_margin_midpoint_passes_with_positive_delta():
    store = symmetric_two_class_store()
    t = chain_threshold(store, (0, 1), 0.1)
    assert passes_margin(store, midpoint(store, 0, 1), 2.0, t)


def test_margin_rejects_point_deep_inside_cluster():
    store = symmetric_two_class_store()
    t = chain_threshold(store, (0, 1), 0.1)
    assert not passes_margin(store, np.eye(3)[0], 2.0, t)


def test_margin_always_passes_with_huge_delta():
    store = symmetric_two_class_store()
    t = chain_threshold(store, (0, 1), 1e9)
    rng = np.random.default_rng(4)
    assert all(passes_margin(store, normalize(rng.standard_normal(3)), 2.0, t) for _ in range(20))


# -- one inner-product pass at an endpoint -------------------------------------


def assert_endpoint_matches(ctx, zs):
    """``endpoint`` gives the bits of ``value_and_grad`` and ``neg_log_max_id_prob``."""
    value, grad, score = ctx.endpoint(zs)
    want_value, want_grad = ctx.value_and_grad(zs)
    assert np.array_equal(value, want_value, equal_nan=True)
    assert np.array_equal(grad, want_grad)
    assert np.array_equal(score, neg_log_max_id_prob(ctx.store, zs, ctx.kappa))
    return value


@pytest.mark.parametrize("m", [1, 2, 7, 40, 193])
@pytest.mark.parametrize(
    "counts, k, dim",
    [
        ((37, 5, 60, 12), 1, 8),  # unequal counts
        ((37, 5, 60, 12), 5, 8),  # class 1 holds exactly k rows
        ((5, 5, 5), 5, 8),  # every class holds exactly k
        ((300, 41, 160, 97, 12), 7, 128),  # GEMM edge blocks at d = 128
    ],
)
def test_endpoint_equals_value_and_grad_and_margin(m, counts, k, dim):
    store = uneven_store(counts, dim=dim, seed=m + k, duplicates=3)
    c = len(counts)
    every = [(u, v) for u in range(c) for v in range(c) if u != v]
    pairs = [every[i % len(every)] for i in range(m)]
    zs = normalize(np.random.default_rng(m).standard_normal((m, dim)))
    zs[0] = class_rows(store, pairs[0][0])[0]  # on a buffered row: degenerate at k = 1
    if m > 1:
        zs[1] = class_rows(store, pairs[1][1])[-1]  # on a duplicate
    ctx = EnergyContext(store=store, pairs=pairs, k=k, kappa=2.0)
    value = assert_endpoint_matches(ctx, zs)
    assert math.isnan(value[0]) == (k == 1)
    if m == 1:
        value, grad, score = ctx.endpoint(zs[0])
        assert value.shape == score.shape == () and grad.shape == (dim,)


def test_endpoint_takes_the_exact_fallback_on_planted_near_ties(monkeypatch):
    # q's u-row and v-row fall back from the sliced inner products as they do
    # from the per-class GEMMs
    ctx, zs = near_tie_context()
    exact_rankings = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        exact_rankings.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    ctx.endpoint(zs)
    monkeypatch.undo()
    assert exact_rankings == [2, 2]
    assert_endpoint_matches(ctx, zs)


def test_default_batch_makes_ten_ranking_gemm_passes_and_six_kde_gemms(monkeypatch):
    # HMC at R = 5, L = 3 evaluates 1 + R L = 16 points: the midpoints and the
    # R proposals at ``endpoint`` (one KDE GEMM each, whose slices rank the
    # pair classes) and the 2 R interior leapfrog points at ``value_and_grad``
    # (one GEMM per pair class)
    store = cluster_store(num_classes=4, dim=8, n_per_class=30, seed=3).snapshot()
    calls = Counter()
    pair_query, inner_products = EnergyContext._pair_query, energy._inner_products

    def spy_pair_query(self, rows, ips=None):
        calls["per-class GEMMs" if ips is None else "sliced"] += 1
        return pair_query(self, rows, ips)

    def spy_inner_products(*args):
        calls["KDE GEMM"] += 1
        return inner_products(*args)

    monkeypatch.setattr(EnergyContext, "_pair_query", spy_pair_query)
    monkeypatch.setattr(energy, "_inner_products", spy_inner_products)
    synthesize_batch(store, HmcConfig(), k=3, delta=0.1, kappa=2.0, n_adj=3)
    assert calls == Counter({"per-class GEMMs": 10, "sliced": 6, "KDE GEMM": 6})
