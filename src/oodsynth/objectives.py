"""Training losses as pure functions over embeddings and prototypes.

No autodiff here: values are plain floats. The discernment loss is an
average of log-softmax values and is therefore always <= 0; it attains
-log C exactly when every outlier is equidistant from all prototypes, and
minimizing it pushes outliers away from every prototype.
"""

from __future__ import annotations

import numpy as np

from .metrics import shifted_logsumexp


def _logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, stable for any magnitude."""
    return a.max(axis=-1) + shifted_logsumexp(a)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    return logits - _logsumexp(logits)[..., None]


def ood_discernment_loss(
    outliers: np.ndarray, prototypes: np.ndarray, tau: float
) -> float:
    """Mean over outliers of the mean log-softmax prototype assignment.

    outliers: (M, d) unit rows; prototypes: (C, d) unit rows; tau > 0.
    """
    outliers = np.atleast_2d(np.asarray(outliers, dtype=float))
    prototypes = np.asarray(prototypes, dtype=float)
    logits = outliers @ prototypes.T / tau  # (M, C)
    return float(_log_softmax(logits).mean())


def cider_losses(
    embeddings: np.ndarray,
    labels: np.ndarray,
    prototypes: np.ndarray,
    tau: float,
) -> tuple[float, float]:
    """(dispersion, compactness) contrastive losses over ID embeddings.

    Dispersion pushes prototypes apart; compactness pulls each embedding
    toward its own class prototype.
    """
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=float))
    labels = np.asarray(labels, dtype=int)
    prototypes = np.asarray(prototypes, dtype=float)
    C = prototypes.shape[0]
    sims = prototypes @ prototypes.T / tau  # (C, C)
    others = sims[~np.eye(C, dtype=bool)].reshape(C, C - 1)  # row i: sims to every j != i
    l_disp = float(np.mean(_logsumexp(others) - np.log(C - 1)))
    logits = embeddings @ prototypes.T / tau  # (N, C)
    log_p = _log_softmax(logits)
    l_comp = float(-log_p[np.arange(len(labels)), labels].mean())
    return l_disp, l_comp


def combined_objective(
    ce_value: float, id_con_value: float, ood_disc_value: float, lambda_d: float
) -> float:
    """Weighted total: classification + ID contrastive + lambda_d * discernment."""
    return ce_value + id_con_value + lambda_d * ood_disc_value


def temperature_from_kappa(kappa: float) -> float:
    """The loss temperature is the reciprocal of the KDE concentration."""
    return 1.0 / kappa
