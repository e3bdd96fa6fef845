"""Realification, chart maps and tangents."""

import numpy as np
import pytest

from okacert.errors import DegenerateChart, ZeroGradient
from okacert.geometry import (
    AffineSubspaceC,
    AffineSubspaceR,
    cayley_forward,
    cayley_inverse,
    complex_gradient_from_real,
    complex_tangent,
    complexify,
    mgs,
    realify,
    realify_span,
    siegel_defect,
)


def test_realify_roundtrip_and_isometry():
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = rng.integers(1, 6)
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = realify(z)
        assert x.shape == (2 * n,)
        assert np.allclose(complexify(x), z)
        # interleaving: z_j = x[2j] + i x[2j+1]
        assert np.allclose(x[0::2], z.real) and np.allclose(x[1::2], z.imag)
        # Re <z, w> equals the Euclidean product of realifications
        herm = np.vdot(w, z)
        assert abs(herm.real - realify(z) @ realify(w)) < 1e-12


def test_realify_span_orthonormal():
    rng = np.random.default_rng(102)
    dirs = mgs(rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4)))
    R = realify_span(dirs)
    assert R.shape == (4, 8)
    assert np.allclose(R @ R.T, np.eye(4), atol=1e-10)


def test_mgs_drops_dependent_rows():
    v = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    B = mgs(v)
    assert B.shape == (2, 2)
    assert np.allclose(B @ B.T, np.eye(2), atol=1e-12)


def test_cayley_roundtrip_and_defect_identity():
    rng = np.random.default_rng(103)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        w *= rng.uniform(0.0, 0.999) / np.linalg.norm(w)
        if abs(1.0 - w[-1]) <= 0.05:
            continue
        z = cayley_forward(w)
        assert np.allclose(cayley_inverse(z), w, atol=1e-12)
        lhs = siegel_defect(z)
        rhs = (1.0 - np.sum(np.abs(w) ** 2)) / abs(1.0 - w[-1]) ** 2
        assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(rhs))
        # interior of the ball lands strictly inside the model domain
        assert lhs > 0


def test_cayley_sphere_to_boundary():
    rng = np.random.default_rng(104)
    w = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w = w[np.abs(1.0 - w[:, -1]) > 0.05]
    z = cayley_forward(w)
    assert np.max(np.abs(siegel_defect(z))) < 1e-10


def test_cayley_degenerate_chart():
    with pytest.raises(DegenerateChart):
        cayley_forward(np.array([0.0 + 0j, 1.0 + 0j]))
    with pytest.raises(DegenerateChart):
        cayley_inverse(np.array([0.0 + 0j, -1j]))


def test_complex_tangent_is_complex_hyperplane():
    rng = np.random.default_rng(105)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        grad = rng.normal(size=n) + 1j * rng.normal(size=n)
        p = rng.normal(size=n) + 1j * rng.normal(size=n)
        T = complex_tangent(grad, p)
        assert T.dim == n - 1
        assert T.contains_point(p)
        # every direction annihilates the gradient functional
        assert np.max(np.abs(T.directions @ grad)) < 1e-10
        # J-invariance: i * direction still annihilates the functional
        v = T.directions[0]
        assert abs(np.dot(1j * v, grad)) < 1e-10
        assert T.contains_point(T.base + 1j * v)


def test_complex_tangent_zero_gradient():
    with pytest.raises(ZeroGradient):
        complex_tangent(np.zeros(3, dtype=complex), np.zeros(3, dtype=complex))


def test_subspace_contains_and_translate():
    S = AffineSubspaceR(np.array([1.0, 0.0]), np.array([[0.0, 1.0]]))
    assert S.contains_point(np.array([1.0, 7.5]))
    assert not S.contains_point(np.array([1.2, 0.0]))
    T = S.translate(np.array([2.0, 0.0]))
    assert T.contains_point(np.array([3.0, -4.0]))


def test_complex_gradient_from_real():
    # rho(z) = Im z on C^1: real gradient (0, 1) -> d rho / dz = -i/2
    g = complex_gradient_from_real(np.array([0.0, 1.0]))
    assert np.allclose(g, np.array([-0.5j]))
    # rho(z) = |z|^2: real gradient at x is 2x -> d rho / dz = conj(z)
    rng = np.random.default_rng(107)
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    g = complex_gradient_from_real(2.0 * realify(z))
    assert np.allclose(g, np.conj(z), atol=1e-12)
