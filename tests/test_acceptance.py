"""Acceptance suite: one test per release criterion.

Each test pins the tolerance it must meet and its wall-clock budget, and
prints one summary line (visible with ``pytest -s``). Criteria renumber
the claims of the synthesis-and-evaluation pipeline at desk scale:
geometry, gradients, MH correctness, acceptance rate, margin soundness,
diversity, round-wise trend, oracle equivalence, sampler variants, and
throughput.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from conftest import class_rows, midpoint
from oodsynth.bench import BenchConfig, diversity_stds, generate_synthetic_id, sample_vmf
from oodsynth.energy import EnergyContext, neg_log_max_id_prob, passes_margin
from oodsynth.metrics import aupr, auroc, fpr_at_tpr95, knn_scores, kth_neighbors
from oodsynth.objectives import cider_losses, ood_discernment_loss
from oodsynth.samplers import ChainState, HmcConfig, SamplerVariant, advance
from oodsynth.sphere import geodesic_step, normalize, project_tangent
from oodsynth.store import IdStore
from oodsynth.synthesis import batch_to_dict, round_wise_scores, synthesize_batch

# The default BenchConfig IS the standard synthetic benchmark:
# C=10, d=16, cluster concentration 20, sampler defaults, k clipped to buffer.
DEFAULT = BenchConfig()


@pytest.fixture(scope="module")
def default_store():
    return generate_synthetic_id(DEFAULT).snapshot()


def _report(name: str, detail: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"[PASS] {name}: {detail} ({elapsed:.1f}s < {budget:.0f}s)")
    assert elapsed < budget


# -- 1. geometry ---------------------------------------------------------------


def test_criterion_1_geometry_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst_pos = worst_mom = worst_rev = 0.0
    for _ in range(10_000):
        d = int(rng.integers(2, 65))
        z = normalize(rng.standard_normal(d))
        q = project_tangent(rng.standard_normal(d), z)
        eps = float(rng.uniform(1e-3, 1.0))
        z2, q2 = geodesic_step(z, q, eps)
        worst_pos = max(worst_pos, abs(np.linalg.norm(z2) - 1.0))
        worst_mom = max(worst_mom, abs(np.linalg.norm(q2) - np.linalg.norm(q)))
        z3, _ = geodesic_step(z2, -q2, eps)
        worst_rev = max(worst_rev, float(np.abs(z3 - z).max()))
    assert worst_pos <= 1e-9
    assert worst_mom <= 1e-9
    assert worst_rev <= 1e-7
    _report(
        "criterion 1 (geometry)",
        f"1e4 calls: norm drift {worst_pos:.1e}, kinetic drift {worst_mom:.1e}, "
        f"reversibility {worst_rev:.1e}",
        t0,
        5.0,
    )


# -- 2. gradients ----------------------------------------------------------------


def _random_energy_instance(d: int, rng) -> tuple[EnergyContext, np.ndarray]:
    store = IdStore(2, d, capacity=64)
    for c in range(2):
        center = normalize(rng.standard_normal(d))
        pts = [normalize(center + 0.4 * rng.standard_normal(d)) for _ in range(40)]
        for z in pts:
            store.insert(c, z)
        store.update_prototype(c, np.mean(pts, axis=0))
    k = int(rng.integers(1, 11))
    ctx = EnergyContext(store=store.snapshot(), pairs=[(0, 1)], k=k, kappa=2.0)
    z = normalize(rng.standard_normal(d))
    return ctx, z


def _frozen_fd(z, n_u, n_v, h=1e-6):
    def u_frozen(x):
        return -math.log(0.5 * (np.linalg.norm(x - n_u) + np.linalg.norm(x - n_v)))

    g = np.zeros_like(z)
    for i in range(z.size):
        dz = np.zeros_like(z)
        dz[i] = h
        g[i] = (u_frozen(z + dz) - u_frozen(z - dz)) / (2 * h)
    return g


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_fd = worst_cos = worst_ratio = 0.0
    for d in (4, 16, 64):
        for _ in range(34):
            ctx, z = _random_energy_instance(d, rng)
            emb_u, emb_v = class_rows(ctx.store, 0), class_rows(ctx.store, 1)
            n_u = emb_u[kth_neighbors(emb_u, z[None, :], ctx.k)[1][0]]
            n_v = emb_v[kth_neighbors(emb_v, z[None, :], ctx.k)[1][0]]
            g_analytic = dataclasses.replace(ctx, grad_mode="analytic").value_and_grad(z)[1]
            fd = _frozen_fd(z, n_u, n_v)
            rel = np.linalg.norm(g_analytic - fd) / np.linalg.norm(fd)
            worst_fd = max(worst_fd, rel)
            g_scaled = dataclasses.replace(ctx, grad_mode="scaled").value_and_grad(z)[1]
            cos = float(
                g_scaled @ g_analytic / (np.linalg.norm(g_scaled) * np.linalg.norm(g_analytic))
            )
            worst_cos = max(worst_cos, 1.0 - cos)
            ratio = np.linalg.norm(g_scaled) / np.linalg.norm(g_analytic)
            want = 2.0 * math.exp(-ctx.value_and_grad(z)[0]) ** 2
            worst_ratio = max(worst_ratio, abs(ratio - want) / want)
    assert worst_fd <= 1e-5
    assert worst_cos <= 1e-6  # cosine >= 0.999999
    assert worst_ratio <= 1e-8
    _report(
        "criterion 2 (gradients)",
        f"102 configs: FD rel err {worst_fd:.1e}, direction gap {worst_cos:.1e}, "
        f"ratio err {worst_ratio:.1e}",
        t0,
        10.0,
    )


# -- 3. MH correctness on the circle ----------------------------------------------


class _CircleEnergy:
    """Smooth stand-in target on the circle: U(theta) = -log(2 + cos theta), every row."""

    def value_and_grad(self, z):
        grad = np.zeros_like(z)
        grad[:, 0] = -1.0 / (2.0 + z[:, 0])
        return -np.log(2.0 + z[:, 0]), grad

    def endpoint(self, z):
        return *self.value_and_grad(z), np.full(len(z), math.inf)  # passes every margin


def test_criterion_3_mh_correctness_circle():
    # 8 chains in lockstep, the kernel production runs, each from [1, 0]
    # with its own generator: 8 x 25 000 kept transitions after 1 000 burn-in
    t0 = time.perf_counter()
    cfg = HmcConfig(leapfrog_steps=5, step_size=0.5, rng_seed=123)
    chains = 8
    state = ChainState(
        positions=np.tile([1.0, 0.0], (chains, 1)),
        t_minus=np.full(chains, -math.inf),
        rngs=[np.random.default_rng(s) for s in np.random.SeedSequence(123).spawn(chains)],
    )
    ctx = _CircleEnergy()
    per_chain, burn = 25_000, 1_000
    thetas = np.empty((per_chain, chains))
    for i in range(per_chain + burn):
        advance(ctx, state, cfg)
        if i >= burn:
            thetas[i - burn] = np.arctan2(state.positions[:, 1], state.positions[:, 0])
    assert thetas.size == 200_000
    edges = np.linspace(-np.pi, np.pi, 37)
    counts, _ = np.histogram(thetas, bins=edges)
    empirical = counts / counts.sum()
    # target density (2 + cos t)/(4 pi), integrated exactly per bin
    exact = (2.0 * np.diff(edges) + np.sin(edges[1:]) - np.sin(edges[:-1])) / (4.0 * np.pi)
    tv = 0.5 * float(np.abs(empirical - exact).sum())
    assert tv <= 0.05
    _report(
        "criterion 3 (MH correctness)",
        f"TV={tv:.4f} over 36 bins, 2e5 samples from 8 lockstep chains",
        t0,
        60.0,
    )


@pytest.mark.parametrize("variant", [v for v in SamplerVariant if v is not SamplerVariant.HMC])
def test_every_variant_is_stationary_on_the_circle(variant):
    # criterion 3's protocol and bound for each variant; criterion 3 is HMC's case
    t0 = time.perf_counter()
    cfg = HmcConfig(leapfrog_steps=5, step_size=0.5, rng_seed=123, variant=variant)
    chains = 8
    state = ChainState(
        positions=np.tile([1.0, 0.0], (chains, 1)),
        t_minus=np.full(chains, -math.inf),
        rngs=[np.random.default_rng(s) for s in np.random.SeedSequence(123).spawn(chains)],
    )
    ctx = _CircleEnergy()
    per_chain, burn = 25_000, 1_000
    thetas = np.empty((per_chain, chains))
    for i in range(per_chain + burn):
        advance(ctx, state, cfg)
        if i >= burn:
            thetas[i - burn] = np.arctan2(state.positions[:, 1], state.positions[:, 0])
    edges = np.linspace(-np.pi, np.pi, 37)
    counts, _ = np.histogram(thetas, bins=edges)
    empirical = counts / counts.sum()
    exact = (2.0 * np.diff(edges) + np.sin(edges[1:]) - np.sin(edges[:-1])) / (4.0 * np.pi)
    tv = 0.5 * float(np.abs(empirical - exact).sum())
    assert tv <= 0.05
    _report(f"stationarity ({variant.value})", f"TV={tv:.4f}", t0, 60.0)


@pytest.mark.parametrize(
    "variant, step_size",
    [(SamplerVariant.HMC, 0.5), (SamplerVariant.RANDOM_WALK, 1.0), (SamplerVariant.MALA, 1.0)],
)
def test_every_variant_is_stationary_on_the_knn_energy_with_margin(variant, step_size):
    # criterion 3's bound on the production target exp(-U) * 1[margin]: the
    # kNN potential of pair (0, 1) on S^1, with the KDE margin at the
    # production threshold, against the exact target on a 36 000-point grid.
    # The margin support is three disjoint arcs, one in each gap between
    # classes. At eps = 0.5 the random walk and MALA cross those gaps too
    # slowly: at 64 x 2 500 the random walk gave TV 0.098 (0.018-0.022 at
    # 64 x 20 000, 14-18 s) and MALA 0.70-0.73. The residual is mixing, not
    # bias, so both run at eps = 1.0: TV 0.0095 (random walk) and 0.0228
    # (MALA) at seed 123, and 0.009-0.018 over seeds 1-5 (random walk) and
    # 0.012-0.018 over seeds 1-2 (MALA).
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    store = IdStore(3, 2, capacity=30)
    for c, angle in enumerate((0.0, 2.0, 4.0)):
        pts = sample_vmf(np.array([math.cos(angle), math.sin(angle)]), 20.0, 30, rng)
        store.insert(c, pts)
        store.update_prototype(c, pts.mean(axis=0))
    snap = store.snapshot()
    k, kappa, delta = 3, 2.0, 0.1
    start = midpoint(snap, 0, 1)
    t_minus = float(neg_log_max_id_prob(snap, start, kappa)) - delta
    chains = 64
    cfg = HmcConfig(leapfrog_steps=5, step_size=step_size, rng_seed=123, variant=variant)
    state = ChainState(
        positions=np.tile(start, (chains, 1)),
        t_minus=np.full(chains, t_minus),
        rngs=[np.random.default_rng(s) for s in np.random.SeedSequence(123).spawn(chains)],
    )
    ctx = EnergyContext(store=snap, pairs=[(0, 1)] * chains, k=k, kappa=kappa)
    per_chain, burn = 2_500, 200
    thetas = np.empty((per_chain, chains))
    for i in range(per_chain + burn):
        advance(ctx, state, cfg)
        if i >= burn:
            thetas[i - burn] = np.arctan2(state.positions[:, 1], state.positions[:, 0])
    edges = np.linspace(-np.pi, np.pi, 37)
    counts, _ = np.histogram(thetas, bins=edges)
    empirical = counts / counts.sum()
    n_grid = 36_000
    grid_theta = -np.pi + (np.arange(n_grid) + 0.5) * (2.0 * np.pi / n_grid)
    grid = np.stack([np.cos(grid_theta), np.sin(grid_theta)], axis=1)
    u, _ = EnergyContext(store=snap, pairs=[(0, 1)] * n_grid, k=k, kappa=kappa).value_and_grad(grid)
    inside = passes_margin(snap, grid, kappa, t_minus) & np.isfinite(u)
    weights = np.where(inside, np.exp(-np.where(inside, u, 0.0)), 0.0)
    exact = np.bincount(np.digitize(grid_theta, edges) - 1, weights, minlength=36)
    exact /= exact.sum()
    tv = 0.5 * float(np.abs(empirical - exact).sum())
    assert tv <= 0.05
    _report(
        f"stationarity ({variant.value}, kNN energy with margin)",
        f"TV={tv:.4f} over 36 bins, {thetas.size} samples from {chains} lockstep chains",
        t0,
        20.0,
    )


# -- 4. acceptance rate -------------------------------------------------------------


def test_criterion_4_acceptance_rate(default_store):
    t0 = time.perf_counter()
    flags = []
    for seed in range(3):  # 3 x 200 transitions
        batch = synthesize_batch(
            default_store,
            dataclasses.replace(DEFAULT.hmc, rng_seed=seed),
            k=DEFAULT.effective_k(default_store),
            delta=DEFAULT.delta,
            kappa=DEFAULT.kappa,
            n_adj=DEFAULT.effective_n_adj(),
        )
        flags += [flag for rec in batch.rounds for flag in rec.mh_accept.tolist()]
    assert len(flags) >= 500
    rate = float(np.mean(flags))
    assert rate >= 0.9
    _report("criterion 4 (acceptance rate)", f"mean MH acceptance {rate:.3f} >= 0.9", t0, 30.0)


# -- 5. hard-margin soundness ---------------------------------------------------------


def test_criterion_5_margin_soundness():
    t0 = time.perf_counter()
    total = 0
    for seed in range(20):
        cfg = dataclasses.replace(
            DEFAULT, seed=seed, hmc=dataclasses.replace(DEFAULT.hmc, rng_seed=seed)
        )
        store = generate_synthetic_id(cfg).snapshot()
        batch = synthesize_batch(
            store,
            cfg.hmc,
            k=cfg.effective_k(store),
            delta=cfg.delta,
            kappa=cfg.kappa,
            n_adj=cfg.effective_n_adj(),
        )
        t_by_chain = {c.chain_index: c.t_minus for c in batch.chains}
        for s in batch.samples:
            total += 1
            assert passes_margin(store, s.position, cfg.kappa, t_by_chain[s.chain_index])
    _report("criterion 5 (margin soundness)", f"0 violations in {total} samples, 20 runs", t0, 60.0)


# -- 6. diversity -----------------------------------------------------------------------


def test_criterion_6_diversity_vs_gaussian_baseline():
    t0 = time.perf_counter()
    wins = 0
    details = []
    for seed in range(10):
        std_h, std_g = diversity_stds(DEFAULT, seed)
        wins += std_h > std_g
        details.append((std_h, std_g))
    assert wins >= 9
    _report(
        "criterion 6 (diversity)",
        f"synthesis std beats sigma=eps baseline in {wins}/10 seeded runs",
        t0,
        120.0,
    )


# -- 7. round-wise trend -------------------------------------------------------------


def test_criterion_7_round_trend():
    t0 = time.perf_counter()
    wins = 0
    for seed in range(10):
        cfg = dataclasses.replace(
            DEFAULT, seed=seed, hmc=dataclasses.replace(DEFAULT.hmc, rng_seed=seed)
        )
        store = generate_synthetic_id(cfg).snapshot()
        batch = synthesize_batch(
            store,
            cfg.hmc,
            k=cfg.effective_k(store),
            delta=cfg.delta,
            kappa=cfg.kappa,
            n_adj=cfg.effective_n_adj(),
        )
        scores = knn_scores(store.embeddings, batch.samples.position, DEFAULT.k_detect)
        rws = round_wise_scores(batch, scores)
        # detection scores are negative kNN distances
        first_dist, last_dist = -rws[0][2], -rws[-1][2]  # column 2: the mean
        wins += last_dist >= first_dist
    assert wins >= 8
    _report(
        "criterion 7 (round trend)",
        f"mean kNN distance non-decreasing round 1 -> R in {wins}/10 runs",
        t0,
        60.0,
    )


# -- 8. oracle equivalences -------------------------------------------------------------


def test_criterion_8_oracle_equivalences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)

    # kNN queries: exact match of the exhaustive sort-based oracle
    for _ in range(50):
        d = int(rng.integers(3, 11))
        n = int(rng.integers(20, 61))
        store = IdStore(2, d, capacity=n)
        for _ in range(n):
            store.insert(0, normalize(rng.standard_normal(d)))
        emb = class_rows(store.snapshot(), 0)
        z = normalize(rng.standard_normal(d))
        k = int(rng.integers(1, n + 1))
        (dist,), (index,) = kth_neighbors(emb, z[None, :], k)
        dists = np.linalg.norm(emb - z, axis=1)
        order = sorted(range(n), key=lambda i: (dists[i], i))
        idx = order[k - 1]
        assert dist == dists[idx]
        assert index == idx

    # detection metrics: exact counting, AUPR to 1e-12
    for _ in range(50):
        n_id = int(rng.integers(20, 60))
        n_ood = int(rng.integers(5, 60))
        id_scores = np.round(rng.standard_normal(n_id), 1)
        ood_scores = np.round(rng.standard_normal(n_ood), 1)
        wins = sum(a > b for a in id_scores for b in ood_scores)
        ties = sum(a == b for a in id_scores for b in ood_scores)
        assert auroc(id_scores, ood_scores) == (wins + 0.5 * ties) / (n_id * n_ood)
        required = math.ceil(0.95 * n_id)
        beta = sorted(id_scores)[n_id - required]
        assert fpr_at_tpr95(id_scores, ood_scores) == np.mean(ood_scores >= beta)
        pts = [(0.0, 1.0)]
        for t in sorted(set(id_scores) | set(ood_scores), reverse=True):
            tp = int(np.sum(id_scores >= t))
            fp = int(np.sum(ood_scores >= t))
            pts.append((tp / n_id, tp / (tp + fp)))
        want = sum((r1 - r0) * (p0 + p1) / 2 for (r0, p0), (r1, p1) in zip(pts, pts[1:]))
        assert abs(aupr(id_scores, ood_scores) - want) <= 1e-12

    # losses: direct summation to 1e-12
    for _ in range(50):
        m, c, d = int(rng.integers(2, 8)), int(rng.integers(2, 6)), int(rng.integers(3, 8))
        outliers = np.array([normalize(rng.standard_normal(d)) for _ in range(m)])
        protos = np.array([normalize(rng.standard_normal(d)) for _ in range(c)])
        labels = rng.integers(0, c, size=m)
        tau = float(rng.uniform(0.2, 2.0))
        want = 0.0
        for z in outliers:
            logits = [float(z @ mu) / tau for mu in protos]
            denom = sum(math.exp(s) for s in logits)
            want += sum(math.log(math.exp(s) / denom) for s in logits) / c
        want /= m
        assert abs(ood_discernment_loss(outliers, protos, tau) - want) <= 1e-12
        disp, comp = cider_losses(outliers, labels, protos, tau)
        disp_want = np.mean(
            [
                math.log(
                    sum(math.exp(float(protos[i] @ protos[j]) / tau) for j in range(c) if j != i)
                    / (c - 1)
                )
                for i in range(c)
            ]
        )
        comp_want = -np.mean(
            [
                math.log(
                    math.exp(float(z @ protos[y]) / tau)
                    / sum(math.exp(float(z @ mu) / tau) for mu in protos)
                )
                for z, y in zip(outliers, labels)
            ]
        )
        assert abs(disp - disp_want) <= 1e-12
        assert abs(comp - comp_want) <= 1e-12

    _report("criterion 8 (oracle equivalence)", "kNN / AUROC / AUPR / FPR95 / losses", t0, 30.0)


# -- 9. sampler variants -----------------------------------------------------------------


def test_criterion_9_variant_parity(default_store):
    t0 = time.perf_counter()
    kwargs = dict(
        k=DEFAULT.effective_k(default_store),
        delta=DEFAULT.delta,
        kappa=DEFAULT.kappa,
        n_adj=DEFAULT.effective_n_adj(),
    )
    sizes = {}
    for variant in SamplerVariant:
        cfg = HmcConfig(variant=variant, rng_seed=11)
        batch = synthesize_batch(default_store, cfg, **kwargs)
        assert len(batch.rounds) == cfg.rounds
        assert all(rec.accepted.shape == (len(batch.chains),) for rec in batch.rounds)
        sizes[variant.value] = len(batch)
    mala = synthesize_batch(
        default_store, HmcConfig(variant=SamplerVariant.MALA, rng_seed=11), **kwargs
    )
    hmc_l1 = synthesize_batch(
        default_store, HmcConfig(leapfrog_steps=1, rng_seed=11), **kwargs
    )
    a = json.dumps(batch_to_dict(mala), sort_keys=True)
    b = json.dumps(batch_to_dict(hmc_l1), sort_keys=True)
    assert a.replace('"variant": "mala"', '"variant": "hmc"') == b
    _report(
        "criterion 9 (variant parity)",
        f"all variants complete ({sizes}); MALA == HMC(L=1) bit-exact",
        t0,
        120.0,
    )


# -- 10. throughput ------------------------------------------------------------------------


def test_criterion_10_throughput():
    cfg = BenchConfig(dim=128, num_classes=10, points_per_class=1000, cluster_kappa=60.0)
    store = generate_synthetic_id(cfg)
    snapshot = store.snapshot()
    t0 = time.perf_counter()
    batch = synthesize_batch(
        snapshot,
        cfg.hmc,
        k=cfg.effective_k(snapshot),
        delta=cfg.delta,
        kappa=cfg.kappa,
        n_adj=cfg.effective_n_adj(),
    )
    elapsed = time.perf_counter() - t0
    assert elapsed <= 0.5
    print(
        f"[PASS] criterion 10 (throughput): batch of {len(batch)} at C=10, B=1000, d=128 "
        f"in {elapsed * 1000:.0f}ms <= 500ms"
    )
