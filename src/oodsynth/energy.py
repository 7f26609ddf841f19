"""OOD-ness potential over cluster pairs, its gradient, and the vMF KDE.

The OOD-ness of a point z against a pair of ID classes is the mean of its
two k-th-nearest-neighbor distances; the sampler's potential energy is the
negative log of that mean. The constant that an unnormalized density would
contribute is absorbed into the log, so exp(-potential) round-trips to the
OOD-ness exactly.

The gradient is -(u_hat + v_hat) / (d_u + d_v), the exact derivative of
the potential when the neighbor indices are held fixed, so leapfrog
trajectories conserve the Hamiltonian and the MH acceptance rate stays
near 1. The neighbor indices are re-queried at every evaluation, so the
potential is treated as piecewise smooth.

An ``EnergyContext`` evaluates the rows of an (M, d) array at once, row i
against its own pair, row i of an (M, 2) array of class ids (a batch's
``chains.pair``), so the M chains of a batch share every kNN query:
one evaluation ranks all 2M (row, class) queries in one matrix, class by
class, and makes one ``select_kth`` pass over it. Every ranking entry
carries one per-evaluation ``ranking_shift`` added to the squared norms,
which keeps it positive and changes no row's order, so that pass
partitions the float64 ranking as int64. It offers the samplers
two methods. ``value_and_grad(z)`` fills each class's block of the
ranking with one GEMM of the rows against that class. ``endpoint(z)``,
for the points where the margin is tested, makes the KDE's one (M x N)
GEMM against every buffer and takes each class's block from a column
slice of the same inner products, so it returns the potential, the
gradient and -log max_c P_c^ID from one pass. A row is degenerate when
either of its k-th distances is 0 (z sits on its k-th neighbor in that
class): it gets a NaN potential and a zero gradient instead of failing
the whole batch. This is U(z); ``samplers`` adds the kinetic energy
||q||^2 / 2, makes one proposal per chain per round and rejects one that
meets a degenerate row.

The ID probability is a kernel density estimate with the (unnormalized)
von Mises-Fisher kernel exp(kappa * mu^T z); the normalizer is class
independent and cancels in the final softmax, so Bessel functions are
never needed. The densities of M points come from one (M x N) GEMM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blas
from .errors import BadArgError, EmptyBufferError, InsufficientDataError
from .metrics import ranking_shift, select_kth, shifted_logsumexp, tie_window
from .store import IdSnapshot


def _inner_products(store: IdSnapshot, rows: np.ndarray) -> np.ndarray:
    """(rows, N) inner products of the rows with every embedding, on one BLAS thread."""
    with blas.one_thread():
        return rows @ store.embeddings.T


def _log_densities(store: IdSnapshot, ips: np.ndarray, kappa: float) -> np.ndarray:
    """(rows, C) log vMF KDE values from ``_inner_products``, which it overwrites.

    Scales by kappa in place, then takes a log-sum-exp per class via
    shifted reduceat; stable for any positive bandwidth. The class maxima
    are subtracted once per maximal run of classes with equal counts,
    broadcast over a (rows, classes, count) view of the run's columns: one
    run for a store whose classes are all full, the same bits as a
    subtraction per class.
    """
    offsets = store.offsets
    counts = np.diff(offsets)
    if np.any(counts == 0):
        empty = np.flatnonzero(counts == 0).tolist()
        raise EmptyBufferError(f"classes {empty} have no embeddings for the density estimate")
    ips *= kappa
    starts = offsets[:-1]
    highs = np.maximum.reduceat(ips, starts, axis=1)
    runs = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), len(counts)]
    for a, b in zip(runs[:-1], runs[1:]):
        run = ips[:, offsets[a] : offsets[b]].reshape(len(ips), b - a, counts[a])  # a view
        run -= highs[:, a:b, None]
    sums = np.add.reduceat(np.exp(ips, out=ips), starts, axis=1)
    return highs + np.log(sums) - np.log(counts)


def log_class_densities(store: IdSnapshot, z: np.ndarray, kappa: float) -> np.ndarray:
    """log of the per-class vMF kernel density estimates at z, shape z.shape[:-1] + (C,).

    One GEMM against the concatenated buffers, then ``_log_densities``.
    """
    z = np.asarray(z, dtype=float)
    logs = _log_densities(store, _inner_products(store, z.reshape(-1, z.shape[-1])), kappa)
    return logs.reshape(z.shape[:-1] + (store.num_classes,))


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


@dataclass(frozen=True, eq=False)
class EnergyContext:
    """Frozen view of the OOD-ness energy of M chains, row i against ``pairs[i]``.

    ``pairs`` is an (M, 2) array of class ids, each row two distinct
    classes; the context keeps a read-only copy. Methods take z of shape
    (M, d), or (d,) when M = 1, and return one value per row. Pure
    functions over a store snapshot.
    """

    store: IdSnapshot
    pairs: np.ndarray
    k: int
    kappa: float
    # (first, end, start, stop) per class the pairs name: the class owns rows
    # first:end of ``store.embeddings`` and rows start:stop of the ranking
    _groups: tuple = field(init=False, repr=False, compare=False)
    # the ranking's 2M rows, class-major: the row of z each one queries, the
    # ``embeddings`` row its column 0 ranks, and each stacked (u-rows, then
    # v-rows) query's ranking row
    _points: np.ndarray = field(init=False, repr=False, compare=False)
    _firsts: np.ndarray = field(init=False, repr=False, compare=False)
    _rank_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise BadArgError(f"k must be >= 1, got {self.k}")
        pairs = np.array(self.pairs, dtype=np.intp)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise BadArgError(f"pairs must be an (M, 2) array of class ids, not {pairs.shape}")
        same = pairs[:, 0] == pairs[:, 1]
        if same.any():
            u, v = pairs[same][0].tolist()
            raise BadArgError(f"cluster pair needs two distinct classes, got ({u}, {v})")
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)
        classes = pairs.T.ravel()  # every u, then every v
        offsets = self.store.offsets.tolist()
        groups, stacked = [], []
        for c in sorted(set(classes.tolist())):
            if self.store.count(c) < self.k:
                raise InsufficientDataError(
                    f"class {c} holds {self.store.count(c)} embeddings, fewer than k={self.k}"
                )
            sel = np.flatnonzero(classes == c)
            groups.append((offsets[c], offsets[c + 1], len(stacked), len(stacked) + len(sel)))
            stacked.extend(sel.tolist())
        stacked = np.array(stacked, dtype=np.intp)
        object.__setattr__(self, "_groups", tuple(groups))
        object.__setattr__(self, "_points", stacked % max(len(self.pairs), 1))
        object.__setattr__(self, "_firsts", np.array(offsets)[classes[stacked]])
        object.__setattr__(self, "_rank_rows", np.argsort(stacked))

    def _pair_query(
        self, rows: np.ndarray, ips: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """k-th distances and ``embeddings`` row indices, (2, M) each: u-class row, v-class row.

        The 2M (row, class) queries are ranked class-major in one (2M, max
        class count) matrix, ``+inf`` past a class's count. Each class's
        block is one GEMM of its query rows against the class, or, given
        the rows' ``_inner_products`` ``ips``, -2 times their column slice,
        plus the class's squared norms and the evaluation's
        ``ranking_shift``; ``tie_window`` covers either summation order, so
        both select the same neighbors. One ``select_kth`` call selects every
        row's neighbor.
        """
        m = rows.shape[0]
        if m != len(self.pairs):
            raise ValueError(f"{m} rows for {len(self.pairs)} pairs")
        store = self.store
        queries = rows[self._points]
        width = max((end - first for first, end, _, _ in self._groups), default=0)
        sq_max = float(store.sq_norms.max())  # over every class: it only widens the window
        shift = ranking_shift(sq_max, queries)
        ranking = np.empty((2 * m, width))
        with blas.one_thread():
            for first, end, start, stop in self._groups:
                block = ranking[start:stop, : end - first]
                if ips is None:
                    np.matmul(-2.0 * queries[start:stop], store.embeddings[first:end].T, out=block)
                else:
                    np.multiply(ips[self._points[start:stop], first:end], -2.0, out=block)
                block += store.sq_norms[first:end] + shift
                ranking[start:stop, end - first :] = np.inf
        window = tie_window(sq_max + shift, queries)
        idx = select_kth(
            ranking, np.empty_like(ranking), self.k, window, store.embeddings, queries, self._firsts
        )
        dist = np.linalg.norm(store.embeddings[idx] - queries, axis=1)
        return dist[self._rank_rows].reshape(2, m), idx[self._rank_rows].reshape(2, m)

    def _potential(
        self, rows: np.ndarray, ips: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(M,) potentials and (M, d) gradients of the rows; ``ips`` as in ``_pair_query``."""
        (d_u, d_v), idx = self._pair_query(rows, ips)
        n_u, n_v = self.store.embeddings[idx]
        degenerate = (d_u == 0.0) | (d_v == 0.0)
        d_u = np.where(degenerate, 1.0, d_u)
        d_v = np.where(degenerate, 1.0, d_v)
        p = 0.5 * (d_u + d_v)
        value = np.where(degenerate, np.nan, -np.log(p))
        dirs = (rows - n_u) / d_u[:, None] + (rows - n_v) / d_v[:, None]
        grad = -dirs / (2.0 * p)[:, None]
        grad[degenerate] = 0.0
        return value, grad

    def value_and_grad(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Potential and its ambient-space gradient from one neighbor query.

        The potential is -log of the OOD-ness, the mean of the two
        per-class k-th-neighbor distances; it may be negative since
        distances can exceed 1. A row whose k-th neighbor in either class
        coincides with it has a NaN potential and a zero gradient.
        """
        z = np.asarray(z, dtype=float)
        value, grad = self._potential(z.reshape(-1, z.shape[-1]))
        return value.reshape(z.shape[:-1]), grad.reshape(z.shape)

    def endpoint(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``value_and_grad(z)`` and ``neg_log_max_id_prob`` at z, from one (M x N) GEMM.

        The margin test of a proposal compares the third value with its
        chain's t_-. A degenerate row's margin value is still computed.
        """
        z = np.asarray(z, dtype=float)
        rows = z.reshape(-1, z.shape[-1])
        ips = _inner_products(self.store, rows)
        value, grad = self._potential(rows, ips)  # before _log_densities overwrites ips
        score = shifted_logsumexp(_log_densities(self.store, ips, self.kappa))
        return value.reshape(z.shape[:-1]), grad.reshape(z.shape), score.reshape(z.shape[:-1])
