"""Stability of affine subspaces relative to a closed convex set.

An affine subspace L is stable for E when the recession cone of E meets the
real span of L's directions only at the origin.  Equivalently the truncated
cones around L (aperture c) cut E in compact pieces, which is what the
certification layer ultimately consumes.  This module provides:

* ``is_stable`` -- the recession-cone criterion with a constructive witness
  (an aperture for stable L, a recession direction inside L's span otherwise),
* ``stability_states`` -- stable or not, for many complex hyperplanes at once,
  exactly from the generators of the recession cone,
* ``halfline_in_intersection`` -- a halfline witness inside E intersect L,
* ``tube_or_support`` -- the dichotomy between "E is a tube over E intersect L"
  and "some parallel translate of L supports E", the first read off the
  lineality space of E, the second from the support of E in a polar
  direction of its recession cone.

Subspaces may be given over C (``AffineSubspaceC``) or over R; all cone
arithmetic happens on the interleaved realification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SliceUnbounded, UnsupportedVariant
from .geometry import (
    AffineSubspaceC,
    AffineSubspaceR,
    complex_tangent,
    complexify,
    mgs,
    realify,
)
from .sets import PLANAR_MARGIN, ConvexSet, _nullspace_rows, _widest_gap


@dataclass
class StabilityVerdict:
    """Outcome of the stability test for one affine subspace."""

    tag: str  # "stable" | "unstable"
    aperture: Optional[float] = None
    witness: Optional[np.ndarray] = None  # real unit recession direction

    @property
    def stable(self) -> bool:
        return self.tag == "stable"


@dataclass
class TubeFound:
    """E equals (E intersect L) + span(fiber rows); fiber rows are orthonormal
    and lie in the lineality space of E."""

    fiber: np.ndarray


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


def direction_ratios(rays: np.ndarray, D: np.ndarray) -> np.ndarray:
    """|r''| / |r'| for each row r of ``rays``, split by the orthonormal rows of D.

    r' is the component of r in span(D) and r'' the rest; rows whose r' is
    shorter than 1e-12 get ``inf``.
    """
    along = (rays @ D.T) @ D
    na = np.linalg.norm(along, axis=1)
    nc = np.linalg.norm(rays - along, axis=1)
    out = np.full(rays.shape[0], np.inf)
    ok = na >= 1e-12
    out[ok] = nc[ok] / na[ok]
    return out


def _aperture(ratios: np.ndarray) -> float:
    """Aperture c violated by every sampled recession direction: |r''| > c |r'|.

    c = max(0.999 * min(min finite ratio, 2**30), 1e-12), or 1.0 when no ratio
    is finite.  Every sampled finite ratio is strictly greater than c, except
    when the smallest one is at or below the 1e-12 floor.
    """
    finite = ratios[np.isfinite(ratios)]
    if not finite.shape[0]:
        return 1.0
    return max(0.999 * min(float(finite.min()), 2.0 ** 30), 1e-12)


def is_stable(E: ConvexSet, subspace) -> StabilityVerdict:
    """Decide whether the recession cone of E meets the span of ``subspace``.

    Unstable verdicts carry a unit recession direction inside the span;
    stable verdicts carry an aperture c > 0 such that every sampled recession
    direction violates the cone inequality |r''| <= c |r'|.
    """
    S = _to_real_subspace(subspace)
    if S.directions.shape[1] != E.m:
        raise ValueError("subspace lives in a different ambient dimension")
    v = E.recession_cone().intersect_subspace(S.directions)
    if v is not None:
        return StabilityVerdict("unstable", witness=v)
    return stable_verdict(E, S)


def stable_verdict(E: ConvexSet, subspace) -> StabilityVerdict:
    """``is_stable``'s verdict on a subspace already known to be stable."""
    D = _to_real_subspace(subspace).directions
    return StabilityVerdict("stable", aperture=_aperture(direction_ratios(
        E.recession_cone().seeded_members, D)))


def stability_states(E: ConvexSet, coeffs) -> np.ndarray:
    """One bool per coefficient row c: is the complex hyperplane stable, its
    real span, the kernel of phi(v) = c . v from R^m onto C = R^2, meeting
    the recession cone K only at 0?  With K = cone(rays) + span(L)
    (``RecessionCone.generators``) it is exactly when phi is one-to-one on
    span(L) and, by Gordan's alternative, the rays' images in C / phi(L) lie
    in one open half-plane.  For unit c, the singular values of phi on L
    (so dim L <= 2), the length of each projected image, and the widest
    angular gap between them less pi must all exceed PLANAR_MARGIN.  Past
    the vertex cap the span search ``intersect_subspace`` decides each row."""
    coeffs = coeffs / np.linalg.norm(coeffs, axis=1, keepdims=True)
    cone = E.recession_cone()
    if cone.generators is None:
        return np.array([cone.intersect_subspace(complex_tangent(c, 0 * c).to_real().directions)
                         is None for c in coeffs], bool)
    rays, L = cone.generators
    phi = np.swapaxes(realify(np.conj(np.stack([coeffs, -1j * coeffs], axis=1))), 1, 2)
    images, stable = rays @ phi, np.full(coeffs.shape[0], L.shape[0] <= 2)
    if L.shape[0]:
        _, s, vh = np.linalg.svd(L @ phi)
        Q = vh[:, L.shape[0]:]  # orthonormal rows across phi(L)
        stable &= np.all(s > PLANAR_MARGIN, axis=1)
        images = images @ np.swapaxes(Q, 1, 2) @ Q
    if rays.shape[0]:
        long = np.linalg.norm(images, axis=-1) > PLANAR_MARGIN
        stable &= long.all(axis=1) & (_widest_gap(images) > np.pi + PLANAR_MARGIN)
    return stable


def halfline_in_intersection(E: ConvexSet, subspace, base_point=None):
    """A halfline contained in E intersect L, as (point, unit direction), or None.

    Convexity makes the construction complete: a halfline exists in the closed
    convex set E intersect L iff some recession direction of E lies in L's
    direction span and the intersection is nonempty.
    """
    S = _to_real_subspace(subspace)
    v = E.recession_cone().intersect_subspace(S.directions)
    if v is None:
        return None
    if base_point is not None:
        x0 = np.asarray(base_point, dtype=float)
        if not E.contains(x0, tol=1e-7):
            x0 = None
    else:
        x0 = None
    if x0 is None:
        x0 = E.slice_point(S)
    if x0 is None:
        return None
    for t in (1.0, 8.0, 64.0):
        if not E.contains(x0 + t * v, tol=1e-6 * (1.0 + t)):
            return None
    return x0, v


def _fiber_from_lineality(L: np.ndarray, W: np.ndarray):
    """Rows v_j in span(L) with v_j . w_k = delta_jk, or None if there are none."""
    if not L.shape[0] or not W.shape[0]:
        return None
    I = np.eye(W.shape[0])
    gamma, _, _, _ = np.linalg.lstsq(W @ L.T, I, rcond=None)
    V = gamma.T @ L
    if np.linalg.norm(V @ W.T - I, axis=1).max() > 1e-9:
        return None
    return V


def tube_or_support(E: ConvexSet, subspace):
    """Dichotomy for a subspace whose slice of E is bounded.

    Either E decomposes as (E intersect L) + V for a fiber subspace V
    complementary to L (``TubeFound``), or some parallel translate of L
    supports E at a contact point (``SupportingTranslate``): the support of E
    in the recession cone's polar direction across L, when it is finite.
    Raises ``SliceUnbounded`` when E intersect L already contains a halfline
    and ``UnsupportedVariant`` when no finite supporting direction is found.
    """
    S = _to_real_subspace(subspace)
    if halfline_in_intersection(E, subspace) is not None:
        raise SliceUnbounded("E meets the subspace along a halfline")
    W = _nullspace_rows(S.directions, cols=E.m)

    V = _fiber_from_lineality(E.lineality(), W)
    if V is not None:
        # V spans a complement of L inside lin E, and E + lin E = E: every
        # x in E is s + beta V with s in L, and s = x - beta V is in E.
        return TubeFound(fiber=mgs(V))

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
