"""Complex-affine geometry over C^n and its realification R^{2n}.

Conventions used throughout the package:

* a point of C^n is a 1-D complex ndarray of length n;
* the realification interleaves coordinates, z_j = x[2j] + i x[2j+1];
* Hermitian inner product <v, w> = sum v_j conj(w_j); its real part equals the
  Euclidean product of the realifications, so realification is an isometry;
* hyperplanes and tangents use complex-bilinear functionals
  {v : sum_j a_j v_j = beta}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateChart, DimensionMismatch, ZeroGradient

CHART_TOL = 1e-14
ORTHO_TOL = 1e-12


def realify(z):
    """Realify points: complex (..., n) -> real (..., 2n), interleaved."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape[:-1] + (2 * z.shape[-1],))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


def complexify(x):
    """Inverse of :func:`realify`; requires even trailing dimension."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 2:
        raise DimensionMismatch("realified vectors need an even length")
    return x[..., 0::2] + 1j * x[..., 1::2]


def realify_span(dirs):
    """Real orthonormal basis of the real span of complex directions.

    Given Hermitian-orthonormal rows d_1..d_k, the realifications of
    d_1, i d_1, ..., d_k, i d_k are Euclidean-orthonormal and span the same
    real subspace.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=complex))
    out = np.empty((2 * dirs.shape[0], 2 * dirs.shape[1]))
    out[0::2] = realify(dirs)
    out[1::2] = realify(1j * dirs)
    return out


def mgs(vectors, tol=ORTHO_TOL):
    """Modified Gram-Schmidt with one re-orthogonalization pass.

    Rows that are (numerically) dependent on earlier rows are dropped.
    Works for real or complex rows; uses the Hermitian inner product.
    """
    vectors = np.atleast_2d(np.asarray(vectors))
    basis = []
    for v in vectors:
        w = v.astype(complex if np.iscomplexobj(vectors) else float).copy()
        for _ in range(2):  # second pass tightens near-dependent inputs
            for b in basis:
                w = w - np.vdot(b, w) * b
        nrm = np.linalg.norm(w)
        if nrm > tol:
            basis.append(w / nrm)
    if not basis:
        return np.zeros((0, vectors.shape[1]), dtype=vectors.dtype)
    return np.array(basis)


def cayley_forward(w):
    """Map w in the unit ball (minus the w_n = 1 chart locus) into C^n.

    z' = i w' / (1 - w_n),   z_n = i (1 + w_n) / (1 - w_n).
    Sends the unit sphere (off the locus) onto {Im z_n = |z'|^2} and the open
    ball onto {Im z_n > |z'|^2}; vectorized over leading axes.
    """
    w = np.asarray(w, dtype=complex)
    wn = w[..., -1]
    denom = 1.0 - wn
    if np.any(np.abs(denom) <= CHART_TOL):
        raise DegenerateChart("1 - w_n is numerically zero")
    zp = 1j * w[..., :-1] / denom[..., None]
    zn = 1j * (1.0 + wn) / denom
    return np.concatenate([zp, zn[..., None]], axis=-1)


def cayley_inverse(z):
    """Inverse chart: w' = 2 z' / (z_n + i), w_n = (z_n - i) / (z_n + i)."""
    z = np.asarray(z, dtype=complex)
    zn = z[..., -1]
    denom = zn + 1j
    if np.any(np.abs(denom) <= CHART_TOL):
        raise DegenerateChart("z_n + i is numerically zero")
    wp = 2.0 * z[..., :-1] / denom[..., None]
    wn = (zn - 1j) / denom
    return np.concatenate([wp, wn[..., None]], axis=-1)


def siegel_defect(z):
    """Im z_n - |z'|^2, the defining function of the model boundary."""
    z = np.asarray(z, dtype=complex)
    return z[..., -1].imag - np.sum(np.abs(z[..., :-1]) ** 2, axis=-1)


@dataclass(frozen=True)
class AffineSubspaceC:
    """Affine subspace of C^n: base point + Hermitian-orthonormal direction rows."""

    base: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        base = np.asarray(self.base, dtype=complex)
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=complex))
        if dirs.size == 0:
            dirs = dirs.reshape(0, base.shape[0])
        if dirs.shape[1] != base.shape[0]:
            raise DimensionMismatch("direction rows must match base length")
        gram = dirs @ dirs.conj().T
        if dirs.shape[0] and np.max(np.abs(gram - np.eye(dirs.shape[0]))) > 1e-10:
            raise ValueError("direction rows must be orthonormal")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "directions", dirs)

    @property
    def n(self):
        return self.base.shape[0]

    @property
    def dim(self):
        return self.directions.shape[0]

    def contains_point(self, z, tol=1e-10):
        z = np.asarray(z, dtype=complex)
        d = z - self.base
        proj = self.directions.conj() @ d if self.dim else np.zeros(0)
        resid = d - (self.directions.T @ proj if self.dim else 0.0)
        return np.linalg.norm(resid) <= tol * (1.0 + np.linalg.norm(z))

    def translate(self, w):
        return AffineSubspaceC(self.base + np.asarray(w, dtype=complex), self.directions)

    def real_directions(self):
        return realify_span(self.directions) if self.dim else np.zeros((0, 2 * self.n))

    def to_real(self):
        return AffineSubspaceR(realify(self.base), self.real_directions())


@dataclass(frozen=True)
class AffineSubspaceR:
    """Affine subspace of R^m: base point + orthonormal direction rows."""

    base: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        base = np.asarray(self.base, dtype=float)
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        if dirs.size == 0:
            dirs = dirs.reshape(0, base.shape[0])
        if dirs.shape[1] != base.shape[0]:
            raise DimensionMismatch("direction rows must match base length")
        gram = dirs @ dirs.T
        if dirs.shape[0] and np.max(np.abs(gram - np.eye(dirs.shape[0]))) > 1e-10:
            raise ValueError("direction rows must be orthonormal")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "directions", dirs)

    @property
    def m(self):
        return self.base.shape[0]

    @property
    def dim(self):
        return self.directions.shape[0]

    def contains_point(self, x, tol=1e-10):
        x = np.asarray(x, dtype=float)
        d = x - self.base
        resid = d - self.directions.T @ (self.directions @ d) if self.dim else d
        return np.linalg.norm(resid) <= tol * (1.0 + np.linalg.norm(x))

    def translate(self, w):
        return AffineSubspaceR(self.base + np.asarray(w, dtype=float), self.directions)

    def real_directions(self):
        return self.directions

    def to_real(self):
        return self


def complex_tangent(grad, p):
    """Complex tangent hyperplane {v : sum_j grad_j (v - p)_j = 0} through p.

    ``grad`` is the complex gradient (dρ/dz_j) of a defining function at p.
    The returned subspace is a complex hyperplane, hence J-invariant.
    """
    grad = np.asarray(grad, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if np.linalg.norm(grad) <= 1e-12:
        raise ZeroGradient("tangent undefined where the gradient vanishes")
    _, _, vh = np.linalg.svd(grad[None, :])
    dirs = np.conj(vh[1:])
    return AffineSubspaceC(p, dirs)


def complex_gradient_from_real(grad_real):
    """Convert a real gradient on R^{2n} to dρ/dz: ½(∂x - i ∂y)."""
    grad_real = np.asarray(grad_real, dtype=float)
    return 0.5 * (grad_real[0::2] - 1j * grad_real[1::2])
