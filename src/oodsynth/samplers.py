"""Markov transition kernels on the unit hypersphere, run in lockstep.

Three variants share one Metropolis-Hastings skeleton: spherical HMC
(default), random-walk MH, and MALA (HMC with a single integrator step).
A proposal is accepted only if it passes both the MH test and the
hard-margin test; otherwise the chain keeps its position and contributes
nothing that round. Every chain is Markov and makes exactly one proposal
per round. One that meets a degenerate point (a NaN potential) is
rejected with NaN energies and alpha = 0, as MH rejects a point of zero
density.

``advance`` moves M chains one round together as one (M, d) array. Each
chain owns its Generator and draws from it, in order, its momentum (or
random-walk noise) and then its MH uniform, so it sees exactly the random
numbers it would see alone.

The momentum q is a standard normal draw projected onto the tangent space
at z, and the kinetic energy is K = ||q||^2 / 2. The volume-preserving,
reversible geodesic leapfrog with the MH test leaves exp(-U(z) - K(q))
invariant, whose z-marginal is exp(-U(z)).

Kernels only need an energy object exposing ``potential(z)``,
``value_and_grad(z)`` and ``margin_exceeds(z, t_minus)`` over the rows of
z, so they can be validated against analytic stand-in targets
independently of the kNN energy. No burn-in or step-size adaptation is
performed here: chains are meant to roam, not to converge.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadConfigError, require_field_types
from .sphere import geodesic_step, normalize, project_tangent


class SamplerVariant(str, Enum):
    RANDOM_WALK = "random_walk"
    HMC = "hmc"
    MALA = "mala"


@dataclass
class HmcConfig:
    """Sampler hyperparameters.

    MALA is a single-step integrator by definition, so selecting it forces
    ``leapfrog_steps`` to 1.
    """

    leapfrog_steps: int = 3
    step_size: float = 0.1
    rounds: int = 5
    variant: SamplerVariant = SamplerVariant.HMC
    rng_seed: int = 0

    def __post_init__(self):
        self.variant = SamplerVariant(self.variant)
        require_field_types(self)
        if self.leapfrog_steps < 1:
            raise BadConfigError(f"leapfrog_steps must be >= 1, got {self.leapfrog_steps}")
        if self.step_size < 0:
            raise BadConfigError(f"step_size must be nonnegative, got {self.step_size}")
        if self.rounds < 1:
            raise BadConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.rng_seed < 0:
            raise BadConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.variant is SamplerVariant.MALA:
            self.leapfrog_steps = 1


@dataclass
class ChainState:
    """M chains in lockstep: row i of ``positions`` and ``rngs[i]`` belong to chain i.

    ``t_minus`` holds each chain's hard-margin threshold.
    """

    positions: np.ndarray
    t_minus: np.ndarray
    rngs: list[np.random.Generator]

    def __post_init__(self):
        self.positions = np.array(self.positions, dtype=float, ndmin=2)
        self.t_minus = np.asarray(self.t_minus, dtype=float)


@dataclass
class TransitionRecord:
    proposed: np.ndarray
    h_init: float
    h_prop: float
    alpha: float
    mh_accept: bool
    margin_pass: bool
    accepted: bool


def _normals(rngs: Sequence[np.random.Generator], dim: int) -> np.ndarray:
    """Row i: one standard-normal draw of length ``dim`` from rngs[i]."""
    return np.array([rng.standard_normal(dim) for rng in rngs]).reshape(len(rngs), dim)


def draw_momentum(z: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Row i: a standard-normal draw of rngs[i] projected onto the tangent space at z[i]."""
    return project_tangent(_normals(rngs, z.shape[-1]), z)


def kinetic(q: np.ndarray) -> np.ndarray:
    """Kinetic energy ||q||^2 / 2 of each row of q."""
    return 0.5 * np.einsum("...i,...i->...", q, q)


def _integrate(ctx, z0: np.ndarray, q0: np.ndarray, steps: int, step_size: float):
    """Leapfrog trajectories that also report the endpoint potentials.

    Each update is a half momentum kick with the tangent-projected
    gradient, a great-circle rotation of position and momentum, and a
    second half kick at the new position.

    Returns (z, q, potential(z0), potential(z), degenerate), where a row is
    degenerate when any point of its trajectory has a NaN potential.
    Potential and gradient come from a single neighbor query per point,
    and the gradient at the end of one update is reused at the start of
    the next, so the whole trajectory costs steps + 1 energy evaluations.
    """
    z = np.asarray(z0, dtype=float)
    q = np.asarray(q0, dtype=float)
    eps = step_size
    u, grad = ctx.value_and_grad(z)
    u_first = u
    degenerate = np.isnan(u)
    for _ in range(steps):
        q = q - 0.5 * eps * project_tangent(grad, z)
        z, q = geodesic_step(z, q, eps)
        u, grad = ctx.value_and_grad(z)
        degenerate |= np.isnan(u)
        q = q - 0.5 * eps * project_tangent(grad, z)
    return z, q, u_first, u, degenerate


def _uniforms(rngs: Sequence[np.random.Generator]) -> np.ndarray:
    return np.array([rng.uniform() for rng in rngs])


def _hamiltonian_proposal(ctx, chains: ChainState, cfg: HmcConfig):
    """Momentum draws, MH uniforms, then one leapfrog trajectory per chain."""
    z = chains.positions
    q = draw_momentum(z, chains.rngs)
    uniforms = _uniforms(chains.rngs)
    z_prop, q_prop, u_init, u_prop, degenerate = _integrate(
        ctx, z, q, cfg.leapfrog_steps, cfg.step_size
    )
    h_init = u_init + kinetic(q)
    h_prop = u_prop + kinetic(q_prop)
    return z_prop, h_init, h_prop, degenerate, uniforms


def _random_walk_proposal(ctx, chains: ChainState, cfg: HmcConfig):
    """Gaussian-perturbation proposals re-projected to the sphere."""
    z = chains.positions
    g = _normals(chains.rngs, z.shape[-1])
    uniforms = _uniforms(chains.rngs)
    z_prop = normalize(z + cfg.step_size * g) if cfg.step_size > 0 else z.copy()
    u_init = ctx.potential(z)
    u_prop = ctx.potential(z_prop)
    return z_prop, u_init, u_prop, np.isnan(u_init) | np.isnan(u_prop), uniforms


def advance(ctx, chains: ChainState, cfg: HmcConfig) -> list[TransitionRecord]:
    """Advance every chain one round with one proposal each.

    ``cfg.variant`` picks the random walk or the Hamiltonian kernel.
    Returns one record per chain, in chain order. An accepted proposal
    becomes the chain's position; a degenerate one is recorded as a
    rejection with NaN energies, alpha = 0 and the current position.
    """
    if cfg.variant is SamplerVariant.RANDOM_WALK:
        propose = _random_walk_proposal
    else:
        propose = _hamiltonian_proposal
    z_prop, h_init, h_prop, degenerate, uniforms = propose(ctx, chains, cfg)
    z_prop[degenerate] = chains.positions[degenerate]
    h_init[degenerate] = h_prop[degenerate] = np.nan
    with np.errstate(over="ignore"):
        alpha = np.exp(h_init - h_prop)
    alpha[degenerate] = 0.0
    mh_accept = uniforms < np.minimum(1.0, alpha)
    margin_pass = ctx.margin_exceeds(z_prop, chains.t_minus) & ~degenerate
    accepted = mh_accept & margin_pass
    records = [
        TransitionRecord(
            proposed=z_prop[i],
            h_init=float(h_init[i]),
            h_prop=float(h_prop[i]),
            alpha=float(alpha[i]),
            mh_accept=bool(mh_accept[i]),
            margin_pass=bool(margin_pass[i]),
            accepted=bool(accepted[i]),
        )
        for i in range(len(chains.rngs))
    ]
    chains.positions[accepted] = z_prop[accepted]
    return records
