import math

import numpy as np
import pytest

from conftest import cluster_store
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
from oodsynth.store import ClusterPair, IdStore


class StandinEnergy:
    """Analytic stand-in target, independent of the kNN machinery, row by row."""

    def __init__(self, fn, grad_fn, margin=True):
        self.fn = fn
        self.grad_fn = grad_fn
        self.margin = margin

    def potential(self, z):
        return np.array([self.fn(row) for row in z])

    def value_and_grad(self, z):
        return self.potential(z), np.array([self.grad_fn(row) for row in z])

    def margin_exceeds(self, z, t_minus):
        return np.full(len(z), self.margin)


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
        positions=np.tile(store.midpoint(ClusterPair(0, 1)), (chains, 1)),
        t_minus=np.full(chains, t_minus),
        rngs=[np.random.default_rng(seed + i) for i in range(chains)],
    )


def pair_energy(store, k, chains=1):
    return EnergyContext(store=store, pairs=[ClusterPair(0, 1)] * chains, k=k, kappa=2.0)


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
    assert flat_energy().potential(z)[0] + kinetic(np.zeros((1, 3)))[0] == 0.0
    q = np.array([[0.0, 2.0, 0.0]])
    assert flat_energy().potential(z)[0] + kinetic(q)[0] == 2.0


def test_hamiltonian_is_sum_of_parts(small_snapshot):
    ctx = pair_energy(small_snapshot, k=3, chains=4)
    rng = np.random.default_rng(1)
    z = normalize(rng.standard_normal((4, small_snapshot.dim)))
    q = draw_momentum(z, [rng] * 4)
    want = ctx.potential(z) + 0.5 * np.array([row @ row for row in q])
    assert np.allclose(ctx.potential(z) + kinetic(q), want, rtol=1e-15)


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
    z_lf, q_lf, _, _, _ = _integrate(ctx, e1[None], q0[None], steps=4, step_size=0.3)
    z_geo, q_geo = e1, q0
    for _ in range(4):
        z_geo, q_geo = geodesic_step(z_geo, q_geo, 0.3)
    assert np.allclose(z_lf[0], z_geo, atol=1e-14)
    assert np.allclose(q_lf[0], q_geo, atol=1e-14)


def test_leapfrog_conserves_energy_at_small_step(small_snapshot):
    ctx = pair_energy(small_snapshot, k=3, chains=5)
    rng = np.random.default_rng(3)
    z = np.tile(small_snapshot.midpoint(ClusterPair(0, 1)), (5, 1))
    q = draw_momentum(z, [rng] * 5)
    z2, q2, u0, u2, _ = _integrate(ctx, z, q, steps=3, step_size=1e-4)
    assert np.abs((u2 + kinetic(q2)) - (u0 + kinetic(q))).max() <= 1e-6


def test_leapfrog_default_steps_stay_on_sphere(small_snapshot):
    ctx = pair_energy(small_snapshot, k=3, chains=3)
    rng = np.random.default_rng(4)
    z = np.tile(small_snapshot.midpoint(ClusterPair(0, 1)), (3, 1))
    q = draw_momentum(z, [rng] * 3)
    z2, q2, _, _, _ = _integrate(ctx, z, q, steps=3, step_size=0.1)
    assert np.abs(np.linalg.norm(z2, axis=1) - 1.0).max() <= 1e-9
    assert np.abs(np.einsum("ij,ij->i", z2, q2)).max() <= 1e-8


# -- transitions ----------------------------------------------------------------


def test_flat_target_always_accepts_when_margin_passes():
    state = fresh_state(chains=4)
    for _ in range(10):
        for rec in advance(flat_energy(), state, HmcConfig()):
            assert np.isclose(rec.alpha, 1.0, rtol=1e-12)
            assert rec.mh_accept and rec.accepted


def test_margin_failure_rejects_despite_mh_acceptance():
    state = fresh_state(chains=2)
    z_before = state.positions.copy()
    records = advance(flat_energy(margin=False), state, HmcConfig())
    for rec in records:
        assert rec.mh_accept and not rec.margin_pass and not rec.accepted
    assert np.array_equal(state.positions, z_before)


def test_two_cluster_acceptance_rate(small_snapshot):
    # synthetic two-cluster instance at default sampler settings
    store = cluster_store(num_classes=2, dim=8, n_per_class=60, seed=21).snapshot()
    ctx = pair_energy(store, k=10, chains=5)
    t_minus = neg_log_max_id_prob(store, store.midpoint(ClusterPair(0, 1)), 2.0) - 0.1
    cfg = HmcConfig(rng_seed=5)
    state = pair_state(store, 5, t_minus, chains=5)
    accepts = []
    for _ in range(100):
        accepts += [rec.mh_accept for rec in advance(ctx, state, cfg)]
    assert len(accepts) == 500
    assert np.mean(accepts) >= 0.9


def test_random_walk_zero_step_accepts_in_place():
    state = fresh_state()
    cfg = HmcConfig(step_size=0.0, variant=SamplerVariant.RANDOM_WALK)
    (rec,) = advance(flat_energy(), state, cfg)
    assert rec.alpha == 1.0 and rec.accepted
    assert np.array_equal(rec.proposed, fresh_state().positions[0])


def test_random_walk_proposals_unit_norm():
    state = fresh_state(dim=6, chains=3)
    cfg = HmcConfig(step_size=0.4, variant=SamplerVariant.RANDOM_WALK)
    for _ in range(20):
        for rec in advance(flat_energy(), state, cfg):
            assert abs(np.linalg.norm(rec.proposed) - 1.0) <= 1e-9


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
        return np.mean([rec.mh_accept for _ in range(500) for rec in advance(ctx, state, cfg)])

    assert rate(SamplerVariant.HMC, 9) > rate(SamplerVariant.RANDOM_WALK, 9)


class _DegenerateRows(StandinEnergy):
    """Flat target whose rows listed in ``stuck`` (by chain) are degenerate."""

    def __init__(self, stuck):
        super().__init__(lambda z: 0.0, lambda z: np.zeros_like(z))
        self.stuck = stuck

    def potential(self, z):
        return np.array([math.nan if r in self.stuck else 0.0 for r in range(len(z))])


def test_degenerate_proposal_records_a_rejection():
    state = fresh_state(dim=4, seed=31, chains=3)
    healthy = fresh_state(dim=4, seed=31, chains=3)
    z_before = state.positions.copy()
    for _ in range(2):
        records = advance(_DegenerateRows(stuck={1}), state, HmcConfig())
        want = advance(_DegenerateRows(stuck=set()), healthy, HmcConfig())
        rec = records[1]
        assert not rec.accepted and not rec.mh_accept and not rec.margin_pass
        assert rec.alpha == 0.0
        assert math.isnan(rec.h_init) and math.isnan(rec.h_prop)
        assert np.array_equal(rec.proposed, z_before[1])
        assert np.array_equal(state.positions[1], z_before[1])
        # the neighbours move exactly as they would beside a healthy chain
        for i in (0, 2):
            assert records[i].accepted
            assert np.array_equal(records[i].proposed, want[i].proposed)
    # every chain, the stuck one too, drew momentum and uniform once per round
    draws = [rng.uniform() for rng in state.rngs]
    for i in range(3):
        rng = np.random.default_rng(31 + i)
        for _ in range(2):
            rng.standard_normal(4)
            rng.uniform()
        assert draws[i] == rng.uniform()
    # the random-walk kernel shares the contract
    records = advance(
        _DegenerateRows(stuck={0}), fresh_state(dim=4, seed=32, chains=2),
        HmcConfig(variant=SamplerVariant.RANDOM_WALK),
    )
    assert not records[0].accepted and records[0].alpha == 0.0
    assert math.isnan(records[0].h_init)
    assert records[1].accepted


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
        records = advance(circle_energy(), together, cfg)
        for i, state in enumerate(alone):
            (rec,) = advance(circle_energy(), state, cfg)
            assert rec.mh_accept == records[i].mh_accept
            assert np.array_equal(rec.proposed, records[i].proposed)
            assert rec.h_prop == records[i].h_prop


def test_identical_seed_gives_identical_record_stream(small_snapshot):
    ctx = pair_energy(small_snapshot, k=3, chains=2)
    midpoint = small_snapshot.midpoint(ClusterPair(0, 1))
    t_minus = neg_log_max_id_prob(small_snapshot, midpoint, 2.0) - 0.1

    def run(variant):
        cfg = HmcConfig(variant=variant, rng_seed=17)
        state = pair_state(small_snapshot, 17, t_minus, chains=2)
        return [rec for _ in range(8) for rec in advance(ctx, state, cfg)]

    for variant in SamplerVariant:
        first, second = run(variant), run(variant)
        for a, b in zip(first, second):
            assert np.array_equal(a.proposed, b.proposed)
            assert (a.h_init, a.h_prop, a.alpha, a.accepted) == (
                b.h_init,
                b.h_prop,
                b.alpha,
                b.accepted,
            )


def test_accepted_equals_mh_and_margin(small_snapshot):
    ctx = pair_energy(small_snapshot, k=3, chains=2)
    midpoint = small_snapshot.midpoint(ClusterPair(0, 1))
    t_minus = neg_log_max_id_prob(small_snapshot, midpoint, 2.0) - 0.1
    for variant in SamplerVariant:
        cfg = HmcConfig(variant=variant, rng_seed=23)
        state = pair_state(small_snapshot, 23, t_minus, chains=2)
        for _ in range(10):
            for rec in advance(ctx, state, cfg):
                assert rec.accepted == (rec.mh_accept and rec.margin_pass)
