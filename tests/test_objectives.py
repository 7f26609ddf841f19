import math

import numpy as np
import pytest
from scipy.special import logsumexp

from oodsynth.objectives import (
    cider_losses,
    combined_objective,
    ood_discernment_loss,
    temperature_from_kappa,
)
from oodsynth.sphere import normalize


def random_unit_rows(n, d, rng):
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def oracle_discernment(outliers, prototypes, tau):
    """Direct summation, no vectorization, no log-softmax shift."""
    M, C = len(outliers), len(prototypes)
    total = 0.0
    for z in outliers:
        logits = [float(z @ mu) / tau for mu in prototypes]
        denom = sum(math.exp(s) for s in logits)
        total += sum(math.log(math.exp(s) / denom) for s in logits) / C
    return total / M


def oracle_cider(embeddings, labels, prototypes, tau):
    C = len(prototypes)
    disp = 0.0
    for i in range(C):
        acc = sum(
            math.exp(float(prototypes[i] @ prototypes[j]) / tau) for j in range(C) if j != i
        )
        disp += math.log(acc / (C - 1))
    disp /= C
    comp = 0.0
    for z, y in zip(embeddings, labels):
        logits = [math.exp(float(z @ mu) / tau) for mu in prototypes]
        comp -= math.log(logits[y] / sum(logits))
    return disp, comp / len(labels)


def scipy_discernment(outliers, prototypes, tau):
    """``ood_discernment_loss`` as it was written on scipy's ``logsumexp``, kept as its oracle."""
    logits = outliers @ prototypes.T / tau
    return float((logits - logsumexp(logits, axis=-1, keepdims=True)).mean())


def scipy_cider(embeddings, labels, prototypes, tau):
    """``cider_losses`` as it was written on scipy's ``logsumexp``, kept as its oracle."""
    C = prototypes.shape[0]
    sims = prototypes @ prototypes.T / tau
    off_diag = ~np.eye(C, dtype=bool)
    l_disp = float(np.mean([logsumexp(sims[i][off_diag[i]]) - np.log(C - 1) for i in range(C)]))
    logits = embeddings @ prototypes.T / tau
    log_p = logits - logsumexp(logits, axis=-1, keepdims=True)
    return l_disp, float(-log_p[np.arange(len(labels)), labels].mean())


# -- discernment loss ----------------------------------------------------------


def test_equidistant_outlier_gives_neg_log_C():
    prototypes = np.eye(4)[:3]
    z = normalize(np.array([0.0, 0.0, 0.0, 1.0]))  # orthogonal to every prototype
    assert np.isclose(ood_discernment_loss(z[None], prototypes, tau=0.5), -math.log(3), rtol=1e-12)


def test_two_prototype_closed_form():
    prototypes = np.eye(2)
    z = np.array([1.0, 0.0])
    want = 0.5 * (math.log(math.e / (math.e + 1)) + math.log(1 / (math.e + 1)))
    assert np.isclose(ood_discernment_loss(z[None], prototypes, tau=1.0), want, rtol=1e-12)


def test_discernment_matches_direct_summation():
    rng = np.random.default_rng(0)
    for _ in range(10):
        outliers = random_unit_rows(7, 5, rng)
        prototypes = random_unit_rows(4, 5, rng)
        got = ood_discernment_loss(outliers, prototypes, tau=0.5)
        want = oracle_discernment(outliers, prototypes, 0.5)
        assert np.isclose(got, want, rtol=1e-12)


def test_discernment_nonpositive_and_max_at_equidistant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        outliers = random_unit_rows(5, 6, rng)
        prototypes = random_unit_rows(3, 6, rng)
        value = ood_discernment_loss(outliers, prototypes, tau=0.5)
        assert value <= 0.0
        assert value <= -math.log(3) + 1e-12


# -- CIDER losses ----------------------------------------------------------------


def test_dispersion_zero_for_two_orthogonal_prototypes():
    disp, _ = cider_losses(np.eye(2)[:1], np.array([0]), np.eye(2), tau=1.0)
    assert np.isclose(disp, 0.0, atol=1e-12)  # log(exp(0))


def test_compactness_closed_form():
    prototypes = np.eye(2)
    z = np.array([1.0, 0.0])
    _, comp = cider_losses(z[None], np.array([0]), prototypes, tau=1.0)
    assert np.isclose(comp, -math.log(math.e / (math.e + 1)), rtol=1e-12)


def test_cider_matches_direct_summation():
    rng = np.random.default_rng(3)
    for _ in range(10):
        embeddings = random_unit_rows(12, 6, rng)
        labels = rng.integers(0, 4, size=12)
        prototypes = random_unit_rows(4, 6, rng)
        got = cider_losses(embeddings, labels, prototypes, tau=0.5)
        want = oracle_cider(embeddings, labels, prototypes, 0.5)
        assert np.allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("tau", [0.5, 1e-3])
def test_losses_match_the_scipy_logsumexp_path(tau):
    # at tau = 1e-3 the logits reach 1000, where an unshifted exp overflows
    rng = np.random.default_rng(6)
    for _ in range(10):
        outliers = random_unit_rows(9, 6, rng)
        embeddings = random_unit_rows(12, 6, rng)
        labels = rng.integers(0, 5, size=12)
        prototypes = random_unit_rows(5, 6, rng)
        got = ood_discernment_loss(outliers, prototypes, tau)
        assert np.isclose(got, scipy_discernment(outliers, prototypes, tau), rtol=1e-12, atol=0)
        got = cider_losses(embeddings, labels, prototypes, tau)
        want = scipy_cider(embeddings, labels, prototypes, tau)
        assert np.allclose(got, want, rtol=1e-12, atol=0)
        assert np.isfinite(got).all()


@pytest.mark.parametrize("dim", [2, 16, 128])
@pytest.mark.parametrize("tau", [0.5, 1e-3])
def test_losses_agree_with_the_blas_products_to_a_few_ulps(dim, tau):
    # the scipy oracles' GEMM logits round per OpenBLAS kernel; a unit-vector cosine
    # moves by an ulp or two of 1, so each loss by a few ulps of 1 / tau
    rng = np.random.default_rng(dim)
    for _ in range(10):
        outliers = random_unit_rows(200, dim, rng)
        embeddings = random_unit_rows(300, dim, rng)
        labels = rng.integers(0, 10, size=300)
        prototypes = random_unit_rows(10, dim, rng)
        got = [ood_discernment_loss(outliers, prototypes, tau)]
        got += cider_losses(embeddings, labels, prototypes, tau)
        want = [scipy_discernment(outliers, prototypes, tau)]
        want += scipy_cider(embeddings, labels, prototypes, tau)
        assert np.abs(np.subtract(got, want)).max() <= 4 * np.finfo(float).eps / tau


def test_losses_invariant_under_global_rotation():
    rng = np.random.default_rng(4)
    embeddings = random_unit_rows(10, 6, rng)
    labels = rng.integers(0, 3, size=10)
    prototypes = random_unit_rows(3, 6, rng)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    base_d = ood_discernment_loss(embeddings, prototypes, 0.5)
    base_c = cider_losses(embeddings, labels, prototypes, 0.5)
    rot_d = ood_discernment_loss(embeddings @ q.T, prototypes @ q.T, 0.5)
    rot_c = cider_losses(embeddings @ q.T, labels, prototypes @ q.T, 0.5)
    assert np.isclose(base_d, rot_d, atol=1e-9)
    assert np.allclose(base_c, rot_c, atol=1e-9)


# -- combined objective ------------------------------------------------------------


@pytest.mark.parametrize(
    "idc,ood,lam,want",
    [
        (0.7, -3.0, 0.0, 0.7),
        (0.0, 0.0, 0.5, 0.0),
        (0.5, -2.3, 0.1, 0.27),
    ],
)
def test_combined_objective_arithmetic(idc, ood, lam, want):
    assert np.isclose(combined_objective(idc, ood, lam), want, rtol=1e-12)


def test_temperature_identity():
    rng = np.random.default_rng(5)
    outliers = random_unit_rows(6, 5, rng)
    prototypes = random_unit_rows(3, 5, rng)
    kappa = 2.0
    via_tau = ood_discernment_loss(outliers, prototypes, tau=0.5)
    via_kappa = ood_discernment_loss(outliers, prototypes, tau=temperature_from_kappa(kappa))
    assert via_tau == via_kappa
