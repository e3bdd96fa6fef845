"""Stability of affine subspaces relative to a closed convex set.

An affine subspace L is stable for E when the recession cone of E meets the
real span of L's directions only at the origin.  Equivalently the truncated
cones around L (aperture c) cut E in compact pieces, which is what the
certification layer ultimately consumes.  This module provides:

* ``is_stable`` -- the recession-cone criterion, with a recession direction
  inside L's span as the witness of an unstable L,
* ``stability_states`` -- stable or not, with a proven aperture, for many
  complex hyperplanes at once, exactly from the generators of the recession
  cone,
* ``halfline_in_intersection`` -- a halfline witness inside E intersect L
  from a given point of E in L,
* ``tube_or_support`` -- a parallel translate of a stable L that supports E,
  from the support of E in a polar direction of its recession cone.

Subspaces may be given over C (``AffineSubspaceC``) or over R; all cone
arithmetic happens on the interleaved realification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnsupportedVariant
from .geometry import (
    AffineSubspaceC,
    AffineSubspaceR,
    complex_tangent,
    complexify,
    realify,
)
from .sets import PLANAR_MARGIN, ConvexSet, _nullspace_rows, _widest_gap


@dataclass
class StabilityVerdict:
    """Outcome of the stability test for one affine subspace."""

    tag: str  # "stable" | "unstable"
    witness: Optional[np.ndarray] = None  # real unit recession direction

    @property
    def stable(self) -> bool:
        return self.tag == "stable"


@dataclass
class SupportingTranslate:
    """A parallel translate of L touching E at ``contact`` from outside.

    ``normal`` is a real unit covector vanishing on the directions of L with
    sup over E of <normal, x> == support_value attained at the contact point.
    """

    translate: object  # AffineSubspaceC or AffineSubspaceR, parallel to input
    contact: np.ndarray  # real coordinates of the contact point
    normal: np.ndarray
    support_value: float


def _to_real_subspace(subspace) -> AffineSubspaceR:
    if isinstance(subspace, AffineSubspaceR):
        return subspace
    return subspace.to_real()


def is_stable(E: ConvexSet, subspace) -> StabilityVerdict:
    """Decide whether the recession cone of E meets the span of ``subspace``.

    Unstable verdicts carry a unit recession direction inside the span.
    """
    S = _to_real_subspace(subspace)
    if S.directions.shape[1] != E.m:
        raise ValueError("subspace lives in a different ambient dimension")
    v = E.recession_cone().intersect_subspace(S.directions)
    return StabilityVerdict("stable" if v is None else "unstable", witness=v)


def stability_states(E: ConvexSet, coeffs):
    """(stable, aperture), one entry per coefficient row c.

    Stable: is the complex hyperplane stable, its real span, the kernel of
    phi(v) = c . v from R^m onto C = R^2, meeting the recession cone K only
    at 0?  With K = cone(rays) + span(L) (``RecessionCone.generators``) it is
    exactly when phi is one-to-one on span(L) and, by Gordan's alternative,
    the rays' images u_i in C / phi(L) lie in one open half-plane.  For unit
    c, the singular values of phi on L (so dim L <= 2), each |u_i|, and the
    widest angular gap gamma between the u_i less pi must all exceed
    PLANAR_MARGIN.  Past the vertex cap the span search
    ``intersect_subspace`` decides each row.

    Aperture: a proven c > 0 with |r''| > c |r'| on K minus 0, r' the part of
    r in the hyperplane's span and r'' = phi r the rest (phi has orthonormal
    rows).  Write r = p + l, p = sum lam_i g_i over the unit rays, l in
    span(L), |r| = 1.  With delta = min |u_i| (-cos(gamma / 2)), the bisector
    of the arc holding the u_i gives |phi r| >= delta |p|; with sigma the
    least singular value of phi on L, |phi r| >= sigma |l| - |p|.  The larger
    of the two is least, over |p|^2 + |l|^2 = 1, at
    rho = delta sigma / sqrt((1 + delta)^2 + sigma^2): delta alone without
    lineality, sigma alone without rays.  So c = 0.999 rho / sqrt(1 - rho^2),
    1.0 on a {0} cone, and NaN on unstable rows and past the vertex cap,
    where no aperture is proven."""
    coeffs = coeffs / np.linalg.norm(coeffs, axis=1, keepdims=True)
    cone = E.recession_cone()
    unproven = np.full(coeffs.shape[0], np.nan)
    if cone.generators is None:
        return np.array([cone.intersect_subspace(complex_tangent(c, 0 * c).to_real().directions)
                         is None for c in coeffs], bool), unproven
    rays, L = cone.generators
    phi = np.swapaxes(realify(np.conj(np.stack([coeffs, -1j * coeffs], axis=1))), 1, 2)
    images, stable = rays @ phi, np.full(coeffs.shape[0], L.shape[0] <= 2)
    rho = None  # stays None on a {0} cone, where any aperture holds
    if L.shape[0]:
        _, s, vh = np.linalg.svd(L @ phi)
        Q = vh[:, L.shape[0]:]  # orthonormal rows across phi(L)
        stable &= np.all(s > PLANAR_MARGIN, axis=1)
        images = images @ np.swapaxes(Q, 1, 2) @ Q
        rho = s[:, -1]
    if rays.shape[0]:
        length, gap = np.linalg.norm(images, axis=-1), _widest_gap(images)
        stable &= (length > PLANAR_MARGIN).all(axis=1) & (gap > np.pi + PLANAR_MARGIN)
        delta = length.min(axis=1) * -np.cos(gap / 2)
        rho = delta if rho is None else delta * rho / np.sqrt((1 + delta) ** 2 + rho ** 2)
    if rho is None:
        return stable, np.ones(coeffs.shape[0])
    # the floor keeps c finite where rounding puts rho at 1
    aperture = 0.999 * rho / np.sqrt(np.maximum(1 - rho ** 2, 2.0 ** -60))
    return stable, np.where(stable, aperture, unproven)


def halfline_in_intersection(E: ConvexSet, subspace, base_point):
    """A halfline contained in E intersect L from ``base_point``, as (point,
    unit direction), or None.

    Convexity makes the construction complete: with a point of E in L, a
    halfline exists in the closed convex set E intersect L iff some recession
    direction of E lies in L's direction span.  None also when the base point
    is not in E to 1e-7.
    """
    v = E.recession_cone().intersect_subspace(_to_real_subspace(subspace).directions)
    x0 = np.asarray(base_point, dtype=float)
    if v is None or not E.contains(x0, tol=1e-7):
        return None
    for t in (1.0, 8.0, 64.0):
        if not E.contains(x0 + t * v, tol=1e-6 * (1.0 + t)):
            return None
    return x0, v


def tube_or_support(E: ConvexSet, subspace):
    """A parallel translate of a stable subspace L that supports E: the
    support of E in the recession cone's polar direction across L, or
    ``UnsupportedVariant`` when none is finite.  E is no tube over L when
    dim lin E <= 1, as in ``check_line_lift``: codim L >= 2 (README)."""
    S = _to_real_subspace(subspace)
    W = _nullspace_rows(S.directions, cols=E.m)
    eta = E.recession_cone().polar_direction_in(W)
    res = E.support(eta) if eta is not None else None
    if res is None or not res.finite or res.point is None:
        raise UnsupportedVariant("no finite supporting direction across the subspace")
    q = np.asarray(res.point, dtype=float)
    if isinstance(subspace, AffineSubspaceC):
        translate = AffineSubspaceC(base=complexify(q), directions=subspace.directions)
    else:
        translate = AffineSubspaceR(base=q, directions=S.directions)
    return SupportingTranslate(translate=translate, contact=q,
                               normal=eta, support_value=float(res.value))
