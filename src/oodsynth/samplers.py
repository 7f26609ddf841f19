"""Markov transition kernels on the unit hypersphere, run in lockstep.

Three variants share one Metropolis-Hastings skeleton: spherical HMC
(default), random-walk MH, and MALA (HMC with a single integrator step).
A proposal is accepted only if it passes both the MH test and the
hard-margin test; otherwise the chain keeps its position and contributes
nothing that round. Every chain is Markov and makes exactly one proposal
per round. One that meets a degenerate point (a NaN potential) is
rejected with NaN energies and alpha = 0, as MH rejects a point of zero
density.

``advance`` moves M chains one round together as one (M, d) array and
logs the round as one (M,) record array (``transition_log``). Each
chain owns its Generator and draws from it, in order, its momentum (or
random-walk noise) and then its MH uniform, so it sees exactly the random
numbers it would see alone.

The chain state carries each chain's potential and gradient at its
position, as HMC carries U(z) and grad U(z) with z: the start of a round
is the end of an accepted proposal or the start of a rejected one, both
already evaluated. So no point is evaluated twice: the starting positions
are evaluated once, and after that a round costs ``leapfrog_steps``
evaluations (HMC, MALA) or one (random walk, which keeps the gradient it
does not use so that every kernel shares one state and one degenerate
rule). The last of them, at the proposal, is the energy's ``endpoint``,
which also gives the margin statistic; the steps before it use
``value_and_grad``.

The momentum q is a standard normal draw projected onto the tangent space
at z, and the kinetic energy is K = ||q||^2 / 2. The volume-preserving,
reversible geodesic leapfrog with the MH test leaves exp(-U(z) - K(q))
invariant, whose z-marginal is exp(-U(z)).

Kernels only need an energy object exposing ``value_and_grad(z)``, which
returns (potential, gradient), and ``endpoint(z)``, which returns
(potential, gradient, margin statistic), over the rows of z; a proposal
passes the margin when its statistic exceeds its chain's t_-. So they can
be validated against analytic stand-in targets independently of the kNN
energy. No burn-in or step-size adaptation is performed here: chains are
meant to roam, not to converge.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadConfigError, require_field_types
from .sphere import geodesic_step, normalize, project_tangent


# Largest step size eps: eps^2 is at most sqrt(float max), so a trajectory's
# momentum, about L eps ||grad U||, its square in the kinetic energy and the
# geodesic arc ||q|| eps stay finite for every gradient below 1e77 / L.
MAX_STEP_SIZE = float(np.finfo(float).max) ** 0.25


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
        if not 0 <= self.step_size <= MAX_STEP_SIZE:
            raise BadConfigError(
                f"step_size must be in [0, {MAX_STEP_SIZE:.6g}], got {self.step_size}"
            )
        if self.rounds < 1:
            raise BadConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.rng_seed < 0:
            raise BadConfigError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if self.variant is SamplerVariant.MALA:
            self.leapfrog_steps = 1


@dataclass
class ChainState:
    """M chains in lockstep: row i of ``positions`` and ``rngs[i]`` belong to chain i.

    ``t_minus`` holds each chain's hard-margin threshold. ``potential``
    ((M,)) and ``grad`` ((M, d)) cache the energy at ``positions``: the
    first ``advance`` fills them and every accepted proposal overwrites its
    row. A state therefore belongs to the one energy it is advanced with; a
    caller that replaces ``positions`` resets both fields to None.
    """

    positions: np.ndarray
    t_minus: np.ndarray
    rngs: list[np.random.Generator]
    potential: np.ndarray | None = None
    grad: np.ndarray | None = None

    def __post_init__(self):
        self.positions = np.array(self.positions, dtype=float, ndmin=2)
        self.t_minus = np.asarray(self.t_minus, dtype=float)


def transition_log(shape: int | tuple[int, ...], dim: int) -> np.recarray:
    """Uninitialised transition records of ``shape``: (M,) for a round, (rounds, M) for a batch.

    ``proposed`` is each record's (dim,) proposal; a degenerate proposal
    has NaN ``h_init`` and ``h_prop``.
    """
    dtype = [
        ("proposed", float, (dim,)),
        ("h_init", float),
        ("h_prop", float),
        ("alpha", float),
        ("mh_accept", bool),
        ("margin_pass", bool),
        ("accepted", bool),
    ]
    return np.recarray(shape, dtype=dtype)


def _normals(rngs: Sequence[np.random.Generator], dim: int) -> np.ndarray:
    """Row i: one standard-normal draw of length ``dim`` from rngs[i]."""
    return np.array([rng.standard_normal(dim) for rng in rngs]).reshape(len(rngs), dim)


def draw_momentum(z: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Row i: a standard-normal draw of rngs[i] projected onto the tangent space at z[i]."""
    return project_tangent(_normals(rngs, z.shape[-1]), z)


def kinetic(q: np.ndarray) -> np.ndarray:
    """Kinetic energy ||q||^2 / 2 of each row of q."""
    return 0.5 * np.einsum("...i,...i->...", q, q)


def _integrate(
    ctx,
    z0: np.ndarray,
    q0: np.ndarray,
    u0: np.ndarray,
    grad0: np.ndarray,
    steps: int,
    step_size: float,
):
    """Leapfrog trajectories from z0, whose potential u0 and gradient grad0 are given.

    Each update is a half momentum kick with the tangent-projected
    gradient, a great-circle rotation of position and momentum, and a
    second half kick at the new position.

    Returns (z, q, potential(z), gradient at z, margin statistic at z,
    degenerate), where a row is degenerate when any point of its
    trajectory, z0 included, has a NaN potential. Potential and gradient
    come from a single neighbor query per point, the last one the energy's
    ``endpoint``, and the gradient at the end of one update is reused at
    the start of the next, so the whole trajectory costs ``steps`` energy
    evaluations.
    """
    z = np.asarray(z0, dtype=float)
    q = np.asarray(q0, dtype=float)
    eps = step_size
    u, grad = u0, grad0
    degenerate = np.isnan(u)
    for step in range(1, steps + 1):
        q = q - 0.5 * eps * project_tangent(grad, z)
        z, q = geodesic_step(z, q, eps)
        if step < steps:
            u, grad = ctx.value_and_grad(z)
        else:
            u, grad, score = ctx.endpoint(z)
        degenerate |= np.isnan(u)
        q = q - 0.5 * eps * project_tangent(grad, z)
    return z, q, u, grad, score, degenerate


def _uniforms(rngs: Sequence[np.random.Generator]) -> np.ndarray:
    return np.array([rng.uniform() for rng in rngs])


def advance(ctx, chains: ChainState, cfg: HmcConfig) -> np.recarray:
    """Advance every chain one round with one proposal each.

    ``cfg.variant`` picks the random walk or the Hamiltonian kernel; each
    chain draws its noise (or momentum) and then its MH uniform. Returns
    the round's (M,) ``transition_log``, in chain order. An accepted
    proposal becomes the chain's position, and its endpoint potential and
    gradient the chain's cached ones; a degenerate one is recorded as a
    rejection with NaN energies, alpha = 0 and the current position.
    """
    if chains.potential is None:
        chains.potential, chains.grad = ctx.value_and_grad(chains.positions)
    z = chains.positions
    rec = transition_log(len(z), z.shape[1])
    if cfg.variant is SamplerVariant.RANDOM_WALK:
        g = _normals(chains.rngs, z.shape[1])
        uniforms = _uniforms(chains.rngs)
        z_prop = normalize(z + cfg.step_size * g) if cfg.step_size > 0 else z
        u_prop, grad_prop, score = ctx.endpoint(z_prop)
        rec.h_init, rec.h_prop = chains.potential, u_prop
        degenerate = np.isnan(chains.potential) | np.isnan(u_prop)
    else:
        q = draw_momentum(z, chains.rngs)
        uniforms = _uniforms(chains.rngs)
        z_prop, q_prop, u_prop, grad_prop, score, degenerate = _integrate(
            ctx, z, q, chains.potential, chains.grad, cfg.leapfrog_steps, cfg.step_size
        )
        rec.h_init, rec.h_prop = chains.potential + kinetic(q), u_prop + kinetic(q_prop)
    rec.margin_pass = (score > chains.t_minus) & ~degenerate
    z_prop = np.where(degenerate[:, None], z, z_prop)
    rec.proposed = z_prop
    rec.h_init[degenerate] = rec.h_prop[degenerate] = np.nan
    with np.errstate(over="ignore"):
        rec.alpha = np.exp(rec.h_init - rec.h_prop)
    rec.alpha[degenerate] = 0.0
    rec.mh_accept = uniforms < np.minimum(1.0, rec.alpha)
    rec.accepted = accepted = rec.mh_accept & rec.margin_pass
    chains.positions[accepted] = z_prop[accepted]
    chains.potential[accepted] = u_prop[accepted]
    chains.grad[accepted] = grad_prop[accepted]
    return rec
