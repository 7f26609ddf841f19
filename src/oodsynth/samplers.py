"""Markov transition kernels on the unit hypersphere, run in lockstep.

Five variants share one Metropolis-Hastings skeleton: spherical HMC
(default), random-walk MH, MALA (HMC with a single integrator step),
mMALA, and RMHMC (momentum drawn with a covariance estimated from the
recently accepted positions). A proposal is accepted only if it passes
both the MH test and the hard-margin test, and rejected proposals are
discarded: the chain keeps its current position and contributes nothing
for that round.

``advance`` moves M chains one round together: their positions are one
(M, d) array, and the integrator, the energy and the margin test each run
once over all rows. Each chain still owns its Generator and draws, in
order, its momentum (or random-walk noise) and then its MH uniform, so it
sees exactly the random numbers it would see alone. A chain whose
proposal meets a degenerate point (a NaN potential) redraws, up to
``DEGENERATE_RETRIES`` attempts, and only those chains are integrated
again.

Kernels only need an energy object exposing ``potential(z)``,
``value_and_grad(z)`` and ``margin_exceeds(z, t_minus)`` over the rows of
z, plus ``take(rows)`` for the energy of a subset of the chains, so they
can be validated against analytic stand-in targets independently of the
kNN energy. No burn-in or step-size adaptation is performed here: chains
are meant to roam, not to converge.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import BadConfigError
from .sphere import geodesic_step, normalize, project_tangent

DEGENERATE_RETRIES = 3
COV_RIDGE = 1e-6


class SamplerVariant(str, Enum):
    RANDOM_WALK = "random_walk"
    HMC = "hmc"
    MALA = "mala"
    MMALA = "mmala"
    RMHMC = "rmhmc"


_HISTORY_VARIANTS = (SamplerVariant.MMALA, SamplerVariant.RMHMC)


@dataclass
class HmcConfig:
    """Sampler hyperparameters.

    MALA and mMALA are single-step integrators by definition, so selecting
    either forces ``leapfrog_steps`` to 1.
    """

    leapfrog_steps: int = 3
    step_size: float = 0.1
    rounds: int = 5
    variant: SamplerVariant = SamplerVariant.HMC
    rng_seed: int = 0
    history_window: int = 2  # J: how many previous states feed the RMHMC covariance

    def __post_init__(self):
        self.variant = SamplerVariant(self.variant)
        if self.leapfrog_steps < 1:
            raise BadConfigError(f"leapfrog_steps must be >= 1, got {self.leapfrog_steps}")
        if self.step_size < 0:
            raise BadConfigError(f"step_size must be nonnegative, got {self.step_size}")
        if self.rounds < 1:
            raise BadConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.history_window < 1:
            raise BadConfigError(f"history_window must be >= 1, got {self.history_window}")
        if self.variant in (SamplerVariant.MALA, SamplerVariant.MMALA):
            self.leapfrog_steps = 1


@dataclass
class ChainState:
    """M chains in lockstep: row i of ``positions`` and ``rngs[i]`` belong to chain i.

    ``t_minus`` holds each chain's hard-margin threshold and ``history``
    its most recently accepted positions (for the history covariance).
    """

    positions: np.ndarray
    t_minus: np.ndarray
    rngs: list[np.random.Generator]
    history: list[list[np.ndarray]] = field(default_factory=list)
    round_index: int = 0

    def __post_init__(self):
        self.positions = np.array(self.positions, dtype=float, ndmin=2)
        self.t_minus = np.asarray(self.t_minus, dtype=float)
        if not self.history:
            self.history = [[] for _ in self.rngs]


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
    """Row i: a standard normal from rngs[i] projected onto the tangent space at z[i]."""
    return project_tangent(_normals(rngs, z.shape[-1]), z)


def _history_momentum(
    z: np.ndarray,
    rngs: Sequence[np.random.Generator],
    histories: Sequence[list[np.ndarray]],
    window: int,
) -> np.ndarray:
    """Momentum from N(0, Sigma*) with Sigma* estimated over recent accepted positions.

    A chain falls back to the identity covariance (a plain tangent
    normal) until it has accepted at least two positions. A small ridge
    keeps the estimate positive definite even for collinear histories.
    """
    raw = _normals(rngs, z.shape[-1])
    for j, history in enumerate(histories):
        recent = history[-(window + 1):]
        if len(recent) >= 2:
            cov = np.cov(np.array(recent), rowvar=False) + COV_RIDGE * np.eye(z.shape[-1])
            raw[j] = np.linalg.cholesky(cov) @ raw[j]
    return project_tangent(raw, z)


def _squared_norms(q: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", q, q)


def hamiltonian(ctx, z: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Total energy of each row: potential(z) + ||q||^2 / 2."""
    return ctx.potential(z) + 0.5 * _squared_norms(q)


def _integrate(ctx, z0: np.ndarray, q0: np.ndarray, steps: int, step_size: float):
    """Leapfrog trajectories that also report the endpoint potentials.

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


def leapfrog_trajectory(
    ctx, z0: np.ndarray, q0: np.ndarray, steps: int, step_size: float
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate ``steps`` leapfrog updates on the sphere.

    Each update is a half momentum kick with the tangent-projected
    gradient, a great-circle rotation of position and momentum, and a
    second half kick at the new position.
    """
    z, q, _, _, _ = _integrate(ctx, z0, q0, steps, step_size)
    return z, q


def _uniforms(rngs: Sequence[np.random.Generator]) -> np.ndarray:
    return np.array([rng.uniform() for rng in rngs])


def _hamiltonian_proposal(ctx, chains: ChainState, rows: np.ndarray, cfg: HmcConfig):
    """Momentum draws, MH uniforms, then one leapfrog trajectory per row."""
    z = chains.positions[rows]
    rngs = [chains.rngs[i] for i in rows]
    if cfg.variant in _HISTORY_VARIANTS:
        histories = [chains.history[i] for i in rows]
        q = _history_momentum(z, rngs, histories, cfg.history_window)
    else:
        q = draw_momentum(z, rngs)
    uniforms = _uniforms(rngs)
    z_prop, q_prop, u_init, u_prop, degenerate = _integrate(
        ctx, z, q, cfg.leapfrog_steps, cfg.step_size
    )
    h_init = u_init + 0.5 * _squared_norms(q)
    h_prop = u_prop + 0.5 * _squared_norms(q_prop)
    return z_prop, h_init, h_prop, degenerate, uniforms


def _random_walk_proposal(ctx, chains: ChainState, rows: np.ndarray, cfg: HmcConfig):
    """Gaussian-perturbation proposals re-projected to the sphere."""
    z = chains.positions[rows]
    rngs = [chains.rngs[i] for i in rows]
    g = _normals(rngs, z.shape[-1])
    uniforms = _uniforms(rngs)
    z_prop = normalize(z + cfg.step_size * g) if cfg.step_size > 0 else z.copy()
    u_init = ctx.potential(z)
    u_prop = ctx.potential(z_prop)
    return z_prop, u_init, u_prop, np.isnan(u_init) | np.isnan(u_prop), uniforms


def advance(ctx, chains: ChainState, cfg: HmcConfig) -> list[TransitionRecord]:
    """Advance every chain one round with the kernel selected by ``cfg.variant``.

    Returns one record per chain, in chain order. An accepted proposal
    becomes the chain's position; after ``DEGENERATE_RETRIES`` degenerate
    attempts a chain records a rejection with NaN energies.
    """
    if cfg.variant is SamplerVariant.RANDOM_WALK:
        propose = _random_walk_proposal
    else:
        propose = _hamiltonian_proposal
    records: list[TransitionRecord | None] = [None] * len(chains.rngs)
    pending = np.arange(len(chains.rngs))
    for _ in range(DEGENERATE_RETRIES):
        z_prop, h_init, h_prop, degenerate, uniforms = propose(
            ctx.take(pending), chains, pending, cfg
        )
        done = np.flatnonzero(~degenerate)
        with np.errstate(over="ignore"):
            alpha = np.exp(h_init[done] - h_prop[done])
        mh_accept = uniforms[done] < np.minimum(1.0, alpha)
        margin_pass = ctx.margin_exceeds(z_prop[done], chains.t_minus[pending[done]])
        for j, row in enumerate(done.tolist()):
            mh, margin = bool(mh_accept[j]), bool(margin_pass[j])
            records[pending[row]] = TransitionRecord(
                proposed=z_prop[row],
                h_init=float(h_init[row]),
                h_prop=float(h_prop[row]),
                alpha=float(alpha[j]),
                mh_accept=mh,
                margin_pass=margin,
                accepted=mh and margin,
            )
        pending = pending[degenerate]
        if not pending.size:
            break
    for i in pending.tolist():
        records[i] = TransitionRecord(
            proposed=chains.positions[i].copy(),
            h_init=math.nan,
            h_prop=math.nan,
            alpha=0.0,
            mh_accept=False,
            margin_pass=False,
            accepted=False,
        )
    chains.round_index += 1
    for i, rec in enumerate(records):
        if rec.accepted:
            chains.positions[i] = rec.proposed
            chains.history[i].append(rec.proposed)
            del chains.history[i][: -(cfg.history_window + 1)]
    return records
