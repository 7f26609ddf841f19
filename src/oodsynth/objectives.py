"""Training losses as pure functions over embeddings and prototypes.

No autodiff here: values are plain floats. The discernment loss is
Outlier Exposure's cross-entropy from the prototype softmax to the uniform
assignment (Hendrycks et al., arXiv 1812.04606), the negated mean of
log-softmax values, and is therefore always >= log C; it attains log C
exactly when every outlier is equidistant from all prototypes, and
minimizing it pushes outliers away from their nearest prototypes.
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
    """Mean over outliers of -mean_c log p_c, p the softmax prototype assignment.

    outliers: (M, d) unit rows; prototypes: (C, d) unit rows; tau > 0.
    """
    outliers = np.atleast_2d(np.asarray(outliers, dtype=float))
    prototypes = np.asarray(prototypes, dtype=float)
    logits = np.einsum("md,cd->mc", outliers, prototypes) / tau
    return -float(_log_softmax(logits).mean())


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
    sims = np.einsum("id,jd->ij", prototypes, prototypes) / tau
    others = sims[~np.eye(C, dtype=bool)].reshape(C, C - 1)  # row i: sims to every j != i
    l_disp = float(np.mean(_logsumexp(others) - np.log(C - 1)))
    logits = np.einsum("nd,cd->nc", embeddings, prototypes) / tau
    log_p = _log_softmax(logits)
    l_comp = float(-log_p[np.arange(len(labels)), labels].mean())
    return l_disp, l_comp


def combined_objective(id_con_value: float, ood_disc_value: float, lambda_d: float) -> float:
    """Weighted total: ID contrastive + lambda_d * discernment."""
    return id_con_value + lambda_d * ood_disc_value


def temperature_from_kappa(kappa: float) -> float:
    """The loss temperature is the reciprocal of the KDE concentration."""
    return 1.0 / kappa
