import math
from collections import Counter

import numpy as np
import pytest

from conftest import cluster_store, degenerate_store, midpoint
from oodsynth.energy import EnergyContext, neg_log_max_id_prob
from oodsynth.errors import BadConfigError
from oodsynth.samplers import (
    ChainState,
    HmcConfig,
    SamplerVariant,
    _integrate,
    advance,
    draw_momentum,
    kinetic,
)
from oodsynth.sphere import geodesic_step, normalize
from oodsynth.store import IdStore


class StandinEnergy:
    """Analytic stand-in target, independent of the kNN machinery, row by row."""

    def __init__(self, fn, grad_fn, margin=True):
        self.fn = fn
        self.grad_fn = grad_fn
        self.margin = margin

    def value_and_grad(self, z):
        return np.array([self.fn(row) for row in z]), np.array([self.grad_fn(row) for row in z])

    def endpoint(self, z):
        # a margin statistic of +inf passes every threshold, -inf none
        return *self.value_and_grad(z), np.full(len(z), math.inf if self.margin else -math.inf)


def flat_energy(margin=True):
    return StandinEnergy(lambda z: 0.0, lambda z: np.zeros_like(z), margin)


def circle_energy():
    return StandinEnergy(
        lambda z: -math.log(2.0 + z[0]),
        lambda z: np.array([-1.0 / (2.0 + z[0]), 0.0]),
    )


def fresh_state(dim=3, seed=0, t_minus=-math.inf, chains=1):
    return ChainState(
        positions=np.tile(normalize(np.ones(dim)), (chains, 1)),
        t_minus=np.full(chains, t_minus),
        rngs=[np.random.default_rng(seed + i) for i in range(chains)],
    )


def pair_state(store, seed, t_minus, chains=1):
    """Chains at the (0, 1) midpoint of ``store``, generators seed, seed + 1, ..."""
    return ChainState(
        positions=np.tile(midpoint(store, 0, 1), (chains, 1)),
        t_minus=np.full(chains, t_minus),
        rngs=[np.random.default_rng(seed + i) for i in range(chains)],
    )


def pair_energy(store, k, chains=1):
    return EnergyContext(store=store, pairs=[(0, 1)] * chains, k=k, kappa=2.0)


# -- config -------------------------------------------------------------------


def test_mala_forces_single_step():
    cfg = HmcConfig(leapfrog_steps=5, variant=SamplerVariant.MALA)
    assert cfg.leapfrog_steps == 1


def test_config_validation():
    with pytest.raises(BadConfigError):
        HmcConfig(leapfrog_steps=0)
    with pytest.raises(BadConfigError):
        HmcConfig(step_size=-0.1)
    with pytest.raises(BadConfigError):
        HmcConfig(rounds=0)
    for step_size in (math.nan, math.inf):
        with pytest.raises(BadConfigError, match="step_size"):
            HmcConfig(step_size=step_size)


# -- momentum -----------------------------------------------------------------


def test_momentum_always_tangent_and_deterministic():
    rng1, rng2 = np.random.default_rng(42), np.random.default_rng(42)
    z = normalize(np.arange(1.0, 9.0))
    draws1 = draw_momentum(np.tile(z, (50, 1)), [rng1] * 50)
    draws2 = np.array([draw_momentum(z[None], [rng2])[0] for _ in range(50)])
    assert np.abs(draws1 @ z).max() <= 1e-8
    assert np.array_equal(draws1, draws2)
    # row i draws from its own generator
    rngs = [np.random.default_rng(s) for s in (3, 4)]
    pair = draw_momentum(np.tile(z, (2, 1)), rngs)
    assert np.array_equal(pair[1], draw_momentum(z[None], [np.random.default_rng(4)])[0])


def test_momentum_mean_within_monte_carlo_band():
    rng = np.random.default_rng(7)
    z = normalize(np.arange(1.0, 9.0))
    n = 100_000
    mean = draw_momentum(np.tile(z, (n, 1)), [rng] * n).mean(axis=0)
    sigma = np.sqrt((1.0 - z**2) / n)
    assert np.all(np.abs(mean) <= 3.0 * sigma)


# -- hamiltonian and leapfrog ---------------------------------------------------
# advance scores a state with potential(z) + kinetic(q) and moves it with the
# leapfrog integrator _integrate.


def test_hamiltonian_closed_forms():
    z = np.eye(3)[:1]
    u, _ = flat_energy().value_and_grad(z)
    assert u[0] + kinetic(np.zeros((1, 3)))[0] == 0.0
    q = np.array([[0.0, 2.0, 0.0]])
    assert u[0] + kinetic(q)[0] == 2.0


def test_hamiltonian_is_sum_of_parts(small_snapshot):
    ctx = pair_energy(small_snapshot, k=3, chains=4)
    rng = np.random.default_rng(1)
    z = normalize(rng.standard_normal((4, small_snapshot.dim)))
    q = draw_momentum(z, [rng] * 4)
    u, _ = ctx.value_and_grad(z)
    want = u + 0.5 * np.array([row @ row for row in q])
    assert np.allclose(u + kinetic(q), want, rtol=1e-15)


def test_leapfrog_reduces_to_geodesic_on_radial_gradient():
    # mirrored single-point buffers give a purely radial gradient, so the
    # tangent-projected kicks vanish and the trajectory is pure rotation
    store = IdStore(2, 3, capacity=2)
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    store.insert(0, e2)
    store.update_prototype(0, e2)
    store.insert(1, -e2)
    store.update_prototype(1, -e2)
    ctx = pair_energy(store.snapshot(), k=1)
    q0 = np.array([0.0, 0.0, 0.8])  # tangent at e1, orthogonal to both buffer points
    u0, grad0 = ctx.value_and_grad(e1[None])
    z_lf, q_lf, _, _, _, _ = _integrate(ctx, e1[None], q0[None], u0, grad0, steps=4, step_size=0.3)
    z_geo, q_geo = e1, q0
    for _ in range(4):
        z_geo, q_geo = geodesic_step(z_geo, q_geo, 0.3)
    assert np.allclose(z_lf[0], z_geo, atol=1e-14)
    assert np.allclose(q_lf[0], q_geo, atol=1e-14)


def test_leapfrog_conserves_energy_at_small_step(small_snapshot):
    ctx = pair_energy(small_snapshot, k=3, chains=5)
    rng = np.random.default_rng(3)
    z = np.tile(midpoint(small_snapshot, 0, 1), (5, 1))
    q = draw_momentum(z, [rng] * 5)
    u0, grad0 = ctx.value_and_grad(z)
    z2, q2, u2, _, _, _ = _integrate(ctx, z, q, u0, grad0, steps=3, step_size=1e-4)
    assert np.abs((u2 + kinetic(q2)) - (u0 + kinetic(q))).max() <= 1e-6


def test_leapfrog_default_steps_stay_on_sphere(small_snapshot):
    ctx = pair_energy(small_snapshot, k=3, chains=3)
    rng = np.random.default_rng(4)
    z = np.tile(midpoint(small_snapshot, 0, 1), (3, 1))
    q = draw_momentum(z, [rng] * 3)
    u0, grad0 = ctx.value_and_grad(z)
    z2, q2, _, _, _, _ = _integrate(ctx, z, q, u0, grad0, steps=3, step_size=0.1)
    assert np.abs(np.linalg.norm(z2, axis=1) - 1.0).max() <= 1e-9
    assert np.abs(np.einsum("ij,ij->i", z2, q2)).max() <= 1e-8


# -- transitions ----------------------------------------------------------------


def test_flat_target_always_accepts_when_margin_passes():
    state = fresh_state(chains=4)
    for _ in range(10):
        rec = advance(flat_energy(), state, HmcConfig())
        assert np.allclose(rec.alpha, 1.0, rtol=1e-12)
        assert rec.mh_accept.all() and rec.accepted.all()


def test_margin_failure_rejects_despite_mh_acceptance():
    state = fresh_state(chains=2)
    z_before = state.positions.copy()
    rec = advance(flat_energy(margin=False), state, HmcConfig())
    assert rec.mh_accept.all() and not rec.margin_pass.any() and not rec.accepted.any()
    assert np.array_equal(state.positions, z_before)


def test_two_cluster_acceptance_rate(small_snapshot):
    # synthetic two-cluster instance at default sampler settings
    store = cluster_store(num_classes=2, dim=8, n_per_class=60, seed=21).snapshot()
    ctx = pair_energy(store, k=10, chains=5)
    t_minus = neg_log_max_id_prob(store, midpoint(store, 0, 1), 2.0) - 0.1
    cfg = HmcConfig(rng_seed=5)
    state = pair_state(store, 5, t_minus, chains=5)
    accepts = []
    for _ in range(100):
        accepts += advance(ctx, state, cfg).mh_accept.tolist()
    assert len(accepts) == 500
    assert np.mean(accepts) >= 0.9


def test_random_walk_zero_step_accepts_in_place():
    state = fresh_state()
    cfg = HmcConfig(step_size=0.0, variant=SamplerVariant.RANDOM_WALK)
    rec = advance(flat_energy(), state, cfg)
    assert rec.alpha[0] == 1.0 and rec.accepted[0]
    assert np.array_equal(rec.proposed[0], fresh_state().positions[0])


def test_random_walk_proposals_unit_norm():
    state = fresh_state(dim=6, chains=3)
    cfg = HmcConfig(step_size=0.4, variant=SamplerVariant.RANDOM_WALK)
    for _ in range(20):
        proposed = advance(flat_energy(), state, cfg).proposed
        assert np.abs(np.linalg.norm(proposed, axis=1) - 1.0).max() <= 1e-9


def test_random_walk_acceptance_below_hmc_on_smooth_target():
    # paired runs on the smooth circle target at matched step size: the
    # integrator tracks level sets, the blind walk pays first-order energy noise
    def rate(variant, seed):
        cfg = HmcConfig(variant=variant, step_size=0.2, rng_seed=seed)
        state = ChainState(
            positions=np.tile([1.0, 0.0], (4, 1)),
            t_minus=np.full(4, -math.inf),
            rngs=[np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)],
        )
        ctx = circle_energy()
        return np.mean([advance(ctx, state, cfg).mh_accept for _ in range(500)])

    assert rate(SamplerVariant.HMC, 9) > rate(SamplerVariant.RANDOM_WALK, 9)


class _DegenerateRows(StandinEnergy):
    """Flat target whose rows listed in ``stuck`` (by chain) are degenerate."""

    def __init__(self, stuck):
        super().__init__(lambda z: 0.0, lambda z: np.zeros_like(z))
        self.stuck = stuck

    def value_and_grad(self, z):
        u = np.array([math.nan if r in self.stuck else 0.0 for r in range(len(z))])
        return u, np.zeros_like(z)


def test_degenerate_proposal_records_a_rejection():
    state = fresh_state(dim=4, seed=31, chains=3)
    healthy = fresh_state(dim=4, seed=31, chains=3)
    z_before = state.positions.copy()
    for _ in range(2):
        rec = advance(_DegenerateRows(stuck={1}), state, HmcConfig())
        want = advance(_DegenerateRows(stuck=set()), healthy, HmcConfig())
        assert not rec.accepted[1] and not rec.mh_accept[1] and not rec.margin_pass[1]
        assert rec.alpha[1] == 0.0
        assert math.isnan(rec.h_init[1]) and math.isnan(rec.h_prop[1])
        assert np.array_equal(rec.proposed[1], z_before[1])
        assert np.array_equal(state.positions[1], z_before[1])
        # the neighbours move exactly as they would beside a healthy chain
        for i in (0, 2):
            assert rec.accepted[i]
            assert np.array_equal(rec.proposed[i], want.proposed[i])
    # every chain, the stuck one too, drew momentum and uniform once per round
    draws = [rng.uniform() for rng in state.rngs]
    for i in range(3):
        rng = np.random.default_rng(31 + i)
        for _ in range(2):
            rng.standard_normal(4)
            rng.uniform()
        assert draws[i] == rng.uniform()
    # the random-walk kernel shares the contract
    rec = advance(
        _DegenerateRows(stuck={0}), fresh_state(dim=4, seed=32, chains=2),
        HmcConfig(variant=SamplerVariant.RANDOM_WALK),
    )
    assert not rec.accepted[0] and rec.alpha[0] == 0.0
    assert math.isnan(rec.h_init[0])
    assert rec.accepted[1]


def test_lockstep_chains_match_chains_run_alone():
    # grouping does not change what a chain draws or where it goes
    cfg = HmcConfig(leapfrog_steps=4, step_size=0.4)
    seeds = np.random.SeedSequence(5).spawn(4)

    def chains(rows):
        return ChainState(
            positions=np.tile([1.0, 0.0], (len(rows), 1)),
            t_minus=np.full(len(rows), -math.inf),
            rngs=[np.random.default_rng(seeds[i]) for i in rows],
        )

    together = chains(range(4))
    alone = [chains([i]) for i in range(4)]
    for _ in range(30):
        rec = advance(circle_energy(), together, cfg)
        for i, state in enumerate(alone):
            one = advance(circle_energy(), state, cfg)
            assert one.mh_accept[0] == rec.mh_accept[i]
            assert np.array_equal(one.proposed[0], rec.proposed[i])
            assert one.h_prop[0] == rec.h_prop[i]


def test_identical_seed_gives_identical_record_stream(small_snapshot):
    ctx = pair_energy(small_snapshot, k=3, chains=2)
    t_minus = neg_log_max_id_prob(small_snapshot, midpoint(small_snapshot, 0, 1), 2.0) - 0.1

    def run(variant):
        cfg = HmcConfig(variant=variant, rng_seed=17)
        state = pair_state(small_snapshot, 17, t_minus, chains=2)
        return [advance(ctx, state, cfg) for _ in range(8)]

    for variant in SamplerVariant:
        first, second = run(variant), run(variant)
        for a, b in zip(first, second):
            assert np.array_equal(a.proposed, b.proposed)
            for name in ("h_init", "h_prop", "alpha", "accepted"):
                assert np.array_equal(getattr(a, name), getattr(b, name))


def test_accepted_equals_mh_and_margin(small_snapshot):
    ctx = pair_energy(small_snapshot, k=3, chains=2)
    t_minus = neg_log_max_id_prob(small_snapshot, midpoint(small_snapshot, 0, 1), 2.0) - 0.1
    for variant in SamplerVariant:
        cfg = HmcConfig(variant=variant, rng_seed=23)
        state = pair_state(small_snapshot, 23, t_minus, chains=2)
        for _ in range(10):
            rec = advance(ctx, state, cfg)
            assert np.array_equal(rec.accepted, rec.mh_accept & rec.margin_pass)


# -- the cached potential and gradient -------------------------------------------
# ChainState carries each chain's energy at its position, so a round only
# evaluates its proposal.


def _assert_cache_is_fresh(ctx, state):
    u, grad = ctx.value_and_grad(state.positions)
    assert np.array_equal(state.potential, u, equal_nan=True)
    assert np.array_equal(state.grad, grad, equal_nan=True)


@pytest.mark.parametrize("variant", list(SamplerVariant))
def test_cached_energy_equals_a_fresh_evaluation(small_snapshot, variant):
    chains = 4
    t_minus = neg_log_max_id_prob(small_snapshot, midpoint(small_snapshot, 0, 1), 2.0) - 0.1
    ctx = pair_energy(small_snapshot, k=3, chains=chains)
    state = pair_state(small_snapshot, 41, t_minus, chains=chains)
    cfg = HmcConfig(variant=variant, step_size=0.3, rng_seed=41)
    accepted = []
    for _ in range(12):
        accepted.append(advance(ctx, state, cfg).accepted)
        _assert_cache_is_fresh(ctx, state)
    # both the accepted and the kept rows of the cache were checked
    assert np.any(accepted) and not np.all(accepted)


@pytest.mark.parametrize("variant", list(SamplerVariant))
def test_cached_energy_equals_a_fresh_evaluation_on_a_degenerate_store(variant):
    store = degenerate_store()
    pairs = [(0, 1), (1, 0), (2, 3), (0, 2)]
    starts = np.array([midpoint(store, u, v) for u, v in pairs])
    # chain 4 runs pair (0, 2) from the (0, 1) midpoint, which only class 0
    # buffers: one k-th distance of 0 is degenerate for every kernel
    pairs.append((0, 2))
    starts = np.vstack([starts, starts[0]])
    stuck = [0, 1, 4]
    state = ChainState(
        positions=starts,
        t_minus=neg_log_max_id_prob(store, starts, 2.0) - 0.1,
        rngs=[np.random.default_rng(51 + i) for i in range(len(pairs))],
    )
    ctx = EnergyContext(store=store, pairs=pairs, k=1, kappa=2.0)
    cfg = HmcConfig(variant=variant, rng_seed=51)
    for _ in range(8):
        rec = advance(ctx, state, cfg)
        _assert_cache_is_fresh(ctx, state)
        assert np.isnan(state.potential[stuck]).all() and np.isnan(rec.h_init[stuck]).all()
    assert np.array_equal(state.positions[stuck], starts[stuck])
    assert np.isfinite(state.potential[2:4]).all()


class _CountingEnergy:
    """Delegates to an energy and counts its value_and_grad and endpoint calls."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.calls = Counter()

    def value_and_grad(self, z):
        self.calls["value_and_grad"] += 1
        return self.ctx.value_and_grad(z)

    def endpoint(self, z):
        self.calls["endpoint"] += 1
        return self.ctx.endpoint(z)


@pytest.mark.parametrize(
    "variant, want",
    [
        (SamplerVariant.HMC, {"value_and_grad": 1 + 5 * 2, "endpoint": 5}),
        (SamplerVariant.MALA, {"value_and_grad": 1, "endpoint": 5}),
        (SamplerVariant.RANDOM_WALK, {"value_and_grad": 1, "endpoint": 5}),
    ],
)
def test_rounds_evaluate_only_their_proposals(small_snapshot, variant, want):
    # R = 5 rounds at L = 3: one evaluation at the start, then L per
    # Hamiltonian round or one per random-walk round, the last of a round
    # at its proposal (``endpoint``, which also gives the margin statistic)
    ctx = _CountingEnergy(pair_energy(small_snapshot, k=3, chains=3))
    state = pair_state(small_snapshot, 61, -math.inf, chains=3)
    cfg = HmcConfig(variant=variant, leapfrog_steps=3, rounds=5)
    for _ in range(cfg.rounds):
        advance(ctx, state, cfg)
    assert ctx.calls == Counter(want)


@pytest.mark.parametrize("variant", list(SamplerVariant))
def test_record_nan_never_reaches_the_cache(variant):
    # NaN only at round 2's proposals: round 2 records NaN energies, and
    # round 3 starts from the energy cached before them
    ctx = _DegenerateRows(stuck=set())
    state = fresh_state(dim=4, seed=71, chains=3)
    cfg = HmcConfig(variant=variant)
    assert advance(ctx, state, cfg).accepted.all()
    ctx.stuck = {0, 1, 2}
    rec = advance(ctx, state, cfg)
    assert np.isnan(rec.h_init).all() and not rec.accepted.any()
    ctx.stuck = set()
    rec = advance(ctx, state, cfg)
    assert np.isfinite(rec.h_init).all() and rec.accepted.all()
    assert np.array_equal(state.potential, np.zeros(3))
