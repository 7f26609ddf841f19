"""Geometry primitives on the unit hypersphere.

Positions are unit-norm float64 vectors; momenta live in the tangent
space of their base point (inner product with the base is zero). Every
function works on the last axis, so an (M, d) array advances M points at
once and a 1-D vector is one point. All functions are pure, so they are
safe under any amount of concurrency.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroVectorError

# Anything below this norm is treated as the zero vector (unit-scale data).
ZERO_NORM_TOL = 1e-12


def normalize(v: np.ndarray) -> np.ndarray:
    """Return v / ||v||_2 along the last axis.

    Raises ZeroVectorError when a norm is at machine-epsilon scale, which
    signals a degenerate input (e.g. the midpoint of antipodal prototypes).

    The norm is numpy's own sum of squares, never a BLAS dot, so it does
    not depend on the BLAS kernel, and each row of a C-contiguous array
    rounds exactly like the same row normalized as a 1-D vector. A
    Fortran-ordered array may sum its rows in another order and round
    differently.
    """
    v = np.asarray(v, dtype=float)
    n = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    if np.size(n) and np.min(n) <= ZERO_NORM_TOL:
        raise ZeroVectorError(f"cannot normalize vector with norm {np.min(n):.3e}")
    return v / n


def project_tangent(q: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Project q onto the tangent space at z: (I - z z^T) q."""
    q = np.asarray(q, dtype=float)
    z = np.asarray(z, dtype=float)
    return q - z * np.einsum("...i,...i->...", z, q)[..., None]


def geodesic_step(
    z: np.ndarray, q: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """Advance (z, q) along the great circle through z in direction q.

    The position rotates by arc length ||q||*eps and the momentum is
    transported with it:

        z' = z cos(||q|| eps) + (q/||q||) sin(||q|| eps)
        q' = -z ||q|| sin(||q|| eps) + q cos(||q|| eps)

    The rotation preserves ||q|| (kinetic energy) and keeps q' tangent at
    z'. Zero momentum is a valid limit and returns (z, q) unchanged. The
    position is re-normalized on return so drift cannot accumulate over
    long trajectories.
    """
    z = np.asarray(z, dtype=float)
    q = np.asarray(q, dtype=float)
    speed = np.linalg.norm(q, axis=-1, keepdims=True)
    moving = speed > 0.0
    arc = speed * eps
    c = np.cos(arc)
    s = np.sin(arc)
    direction = np.divide(q, speed, out=np.zeros_like(q), where=moving)
    z_new = z * c + direction * s
    q_new = -z * (speed * s) + q * c
    return np.where(moving, normalize(z_new), z), q_new
