"""OOD-ness potential over cluster pairs, its gradient, and the vMF KDE.

The OOD-ness of a point z against a pair of ID classes is the mean of its
two k-th-nearest-neighbor distances; the sampler's potential energy is the
negative log of that mean. The constant that an unnormalized density would
contribute is absorbed into the log, so exp(-potential) round-trips to the
OOD-ness exactly.

Two gradient conventions are provided:

* ``analytic`` -(u_hat + v_hat) / (d_u + d_v), the exact derivative of
               the potential when the neighbor indices are held fixed;
* ``scaled``   -(d_u + d_v)/2 * (u_hat + v_hat), the unit directions
               scaled by the OOD-ness itself (equivalently, the negative
               gradient of the squared OOD-ness rather than of its -log).

Both share the direction u_hat + v_hat; their magnitudes differ by twice
the squared OOD-ness. Only the analytic mode conserves the Hamiltonian
along leapfrog trajectories, which is what keeps the MH acceptance rate
near 1; the scaled mode is kept selectable for comparison. The neighbor
indices are re-queried at every evaluation, so the potential is treated
as piecewise smooth.

An ``EnergyContext`` evaluates the rows of an (M, d) array at once, row i
against its own pair, so the M chains of a batch share every kNN query:
one evaluation makes one ``kth_neighbors`` call per class, over the rows
whose pair names that class. A degenerate row (a point on a k-th
neighbor) gets a NaN potential instead of failing the whole batch. This
is U(z); ``samplers`` adds the kinetic energy ||q||^2 / 2, makes one
proposal per chain per round and rejects one that meets a degenerate row.

The ID probability is a kernel density estimate with the (unnormalized)
von Mises-Fisher kernel exp(kappa * mu^T z); the normalizer is class
independent and cancels in the final softmax, so Bessel functions are
never needed. The densities of M points come from one (M x N) GEMM.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import blas
from .errors import BadArgError, EmptyBufferError, InsufficientDataError
from .metrics import kth_neighbors, shifted_logsumexp
from .store import ClusterPair, IdSnapshot


def log_class_densities(store: IdSnapshot, z: np.ndarray, kappa: float) -> np.ndarray:
    """log of the per-class vMF kernel density estimates at z, shape z.shape[:-1] + (C,).

    One GEMM against the concatenated buffers (on one BLAS thread), then a
    log-sum-exp per class via shifted reduceat; stable for any positive
    bandwidth.
    """
    z = np.asarray(z, dtype=float)
    offsets = store.offsets
    counts = np.diff(offsets)
    if np.any(counts == 0):
        empty = np.flatnonzero(counts == 0).tolist()
        raise EmptyBufferError(f"classes {empty} have no embeddings for the density estimate")
    rows = z.reshape(-1, z.shape[-1])
    with blas.one_thread():
        ips = kappa * (rows @ store.embeddings.T)
    starts = offsets[:-1]
    highs = np.maximum.reduceat(ips, starts, axis=1)
    ips -= np.repeat(highs, counts, axis=1)
    sums = np.add.reduceat(np.exp(ips, out=ips), starts, axis=1)
    logs = highs + np.log(sums) - np.log(counts)
    return logs.reshape(z.shape[:-1] + (len(counts),))


def neg_log_max_id_prob(store: IdSnapshot, z: np.ndarray, kappa: float) -> np.ndarray:
    """-log(max_c P_c^ID(z)), the quantity compared against the margin threshold.

    P^ID(z) is the softmax of the class KDE values, so this is the
    log-sum-exp of the class log-densities minus their maximum. The
    threshold t_- of a chain is this value at its pair midpoint minus delta.
    """
    return shifted_logsumexp(log_class_densities(store, z, kappa))


def passes_margin(
    store: IdSnapshot, z: np.ndarray, kappa: float, t_minus: float | np.ndarray
) -> np.ndarray:
    """True iff z is sufficiently unlike every ID class: -log max_c P_c^ID(z) > t_-."""
    return neg_log_max_id_prob(store, z, kappa) > t_minus


@dataclass(frozen=True)
class EnergyContext:
    """Frozen view of the OOD-ness energy of M chains, row i against ``pairs[i]``.

    Methods take z of shape (M, d), or (d,) when M = 1, and return one
    value per row. Pure functions over a store snapshot.
    """

    store: IdSnapshot
    pairs: Sequence[ClusterPair]
    k: int
    kappa: float
    grad_mode: str = "analytic"

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        for c in sorted({c for p in self.pairs for c in (p.u, p.v)}):
            if self.store.count(c) < self.k:
                raise InsufficientDataError(
                    f"class {c} holds {self.store.count(c)} embeddings, fewer than k={self.k}"
                )
        if self.grad_mode not in ("analytic", "scaled"):
            raise BadArgError(f"unknown grad_mode {self.grad_mode!r}")

    def _pair_query(self, z: np.ndarray):
        """k-th distances and neighbors of every row against both classes of its pair.

        The u-rows and v-rows are stacked (2M queries) and each class is
        queried once, for the rows whose pair names it.
        """
        rows = z.reshape(-1, z.shape[-1])
        m = rows.shape[0]
        if m != len(self.pairs):
            raise ValueError(f"{m} rows for {len(self.pairs)} pairs")
        classes = np.array([p.u for p in self.pairs] + [p.v for p in self.pairs])
        queries = np.concatenate([rows, rows])
        dist = np.empty(2 * m)
        nbrs = np.empty_like(queries)
        for c in np.unique(classes).tolist():
            sel = np.flatnonzero(classes == c)
            emb = self.store.class_embeddings(c)
            dist[sel], idx = kth_neighbors(emb, queries[sel], self.k)
            nbrs[sel] = emb[idx]
        return dist[:m], nbrs[:m], dist[m:], nbrs[m:]

    def potential(self, z: np.ndarray) -> np.ndarray:
        """-log of the OOD-ness, the mean of the two per-class k-th-neighbor distances.

        May be negative since distances can exceed 1. NaN where the OOD-ness
        is 0 (z on buffered points of both classes).
        """
        z = np.asarray(z, dtype=float)
        d_u, _, d_v, _ = self._pair_query(z)
        p = (0.5 * (d_u + d_v)).reshape(z.shape[:-1])
        return -np.log(np.where(p > 0.0, p, np.nan))

    def value_and_grad(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Potential and its ambient-space gradient (``grad_mode``) from one neighbor query.

        A row whose k-th neighbor in either class coincides with it has a
        NaN potential and a zero gradient.
        """
        z = np.asarray(z, dtype=float)
        rows = z.reshape(-1, z.shape[-1])
        d_u, n_u, d_v, n_v = self._pair_query(rows)
        degenerate = (d_u == 0.0) | (d_v == 0.0)
        d_u = np.where(degenerate, 1.0, d_u)
        d_v = np.where(degenerate, 1.0, d_v)
        p = 0.5 * (d_u + d_v)
        value = np.where(degenerate, np.nan, -np.log(p))
        dirs = (rows - n_u) / d_u[:, None] + (rows - n_v) / d_v[:, None]
        if self.grad_mode == "scaled":
            grad = -p[:, None] * dirs
        else:
            grad = -dirs / (2.0 * p)[:, None]
        grad[degenerate] = 0.0
        return value.reshape(z.shape[:-1]), grad.reshape(z.shape)

    def margin_exceeds(self, z: np.ndarray, t_minus: float | np.ndarray) -> np.ndarray:
        return passes_margin(self.store, z, self.kappa, t_minus)
