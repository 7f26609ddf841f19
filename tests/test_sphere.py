import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodsynth.errors import ZeroVectorError
from oodsynth.sphere import geodesic_step, normalize, project_tangent


@st.composite
def sphere_instances(draw):
    """A random (z, q, eps) with z unit and q tangent at z."""
    dim = draw(st.integers(2, 48))
    seed = draw(st.integers(0, 2**32 - 1))
    eps = draw(st.floats(1e-3, 1.5))
    rng = np.random.default_rng(seed)
    z = normalize(rng.standard_normal(dim))
    q = project_tangent(rng.standard_normal(dim), z)
    return z, q, eps


def test_normalize_scaling():
    assert np.allclose(normalize(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)


def test_normalize_already_unit():
    v = np.array([1.0, 0.0, 0.0])
    assert np.array_equal(normalize(v), v)


def test_normalize_random_high_dim():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(128)
    assert abs(np.linalg.norm(normalize(v)) - 1.0) <= 1e-9


def test_normalize_zero_raises():
    with pytest.raises(ZeroVectorError):
        normalize(np.zeros(4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 9),
    st.integers(2, 300),
    st.integers(-100, 100),
    st.integers(0, 2**32 - 1),
)
def test_normalize_rounds_each_row_like_a_1d_vector(rows, dim, exponent, seed):
    # a C-contiguous row sums its squares in the order a 1-D vector does
    v = np.random.default_rng(seed).standard_normal((rows, dim)) * 10.0**exponent
    try:
        want = np.stack([normalize(row) for row in v])
    except ZeroVectorError:
        with pytest.raises(ZeroVectorError):
            normalize(v)
        return
    assert normalize(v).tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [2, 3, 16, 128, 1000])
def test_normalize_agrees_with_the_blas_norm_to_a_few_ulps(dim):
    # the 1-D norm as first written: np.linalg.norm's BLAS dot, rounded per OpenBLAS kernel
    rng = np.random.default_rng(dim)
    for scale in (1e-10, 1.0, 1e100):
        for v in rng.standard_normal((20, dim)) * scale:
            assert np.abs(normalize(v) - v / np.linalg.norm(v)).max() <= 4 * np.finfo(float).eps


def test_project_parallel_gives_zero():
    out = project_tangent(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert np.allclose(out, 0.0, atol=1e-15)


def test_project_tangent_unchanged():
    out = project_tangent(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)


def test_project_random_orthogonality():
    rng = np.random.default_rng(11)
    z = normalize(rng.standard_normal(64))
    q = project_tangent(rng.standard_normal(64), z)
    assert abs(q @ z) <= 1e-8


@settings(max_examples=50, deadline=None)
@given(sphere_instances())
def test_project_idempotent(inst):
    z, q, _ = inst
    once = project_tangent(q, z)
    twice = project_tangent(once, z)
    assert np.abs(twice - once).max() <= 1e-12


def test_geodesic_zero_momentum_is_identity():
    z = normalize(np.array([1.0, 2.0, -1.0]))
    q = np.zeros(3)
    z2, q2 = geodesic_step(z, q, 0.7)
    assert np.array_equal(z2, z)
    assert np.array_equal(q2, q)


def test_geodesic_quarter_great_circle():
    z = np.array([1.0, 0.0])
    q = np.array([0.0, np.pi / 2])
    z2, q2 = geodesic_step(z, q, 1.0)
    assert np.allclose(z2, [0.0, 1.0], atol=1e-9)
    # momentum transported: now pointing along -e1 with unchanged speed
    assert np.allclose(q2, [-np.pi / 2, 0.0], atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(sphere_instances())
def test_geodesic_invariants(inst):
    z, q, eps = inst
    z2, q2 = geodesic_step(z, q, eps)
    assert abs(np.linalg.norm(z2) - 1.0) <= 1e-9
    assert abs(z2 @ q2) <= 1e-8
    # kinetic energy is preserved exactly up to rounding
    assert abs(np.linalg.norm(q2) - np.linalg.norm(q)) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(sphere_instances())
def test_geodesic_time_reversible(inst):
    z, q, eps = inst
    z2, q2 = geodesic_step(z, q, eps)
    z3, _ = geodesic_step(z2, -q2, eps)
    assert np.abs(z3 - z).max() <= 1e-7
