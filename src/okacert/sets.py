"""Closed convex set variants over R^m (complex ambient space realified).

Every variant provides membership, an explicit polyhedral recession cone
{v : E v = 0, I v <= 0}, a support function with attainer, boundary sampling
and nearest-boundary projection. Complex sets use the interleaved
realification from :mod:`okacert.geometry` (m = 2n).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (DimensionMismatch, InfeasiblePolyhedron, LPNumericalFailure,
                     PointInsideSet, ProjectionDidNotConverge, UnsupportedVariant)
from .functions import MAX_VERTEX_SUBSYSTEMS, NormCombo, Quadratic, midpoint_convexity_check
from .geometry import mgs
from .lp import feasible_point, solve_lp

DEFAULT_TOL = 1e-9
# Margin of the planar stability tests (``_planar_cone``, ``stability_states``):
# on angles (rad), and on lengths relative to the rows or unit covectors they come from
PLANAR_MARGIN = 1e-6


@dataclass
class SupportResult:
    value: float  # +inf when unbounded above
    point: np.ndarray | None  # attainer when finite

    @property
    def finite(self):
        return np.isfinite(self.value)


class RecessionCone:
    """Polyhedral cone {v : eq v = 0, ineq v <= 0} in R^m."""

    def __init__(self, m, eq=None, ineq=None):
        self.m = m
        self.eq = np.zeros((0, m)) if eq is None or not len(eq) else np.atleast_2d(np.asarray(eq, float))
        self.ineq = np.zeros((0, m)) if ineq is None or not len(ineq) else np.atleast_2d(np.asarray(ineq, float))

    def member(self, v, tol=1e-9):
        v = np.asarray(v, dtype=float)
        ok = True
        if self.eq.shape[0]:
            ok = ok and np.max(np.abs(self.eq @ v)) <= tol
        if ok and self.ineq.shape[0]:
            ok = ok and np.max(self.ineq @ v) <= tol
        return bool(ok)

    def lineality_rows(self):
        return self._lineality

    @cached_property
    def _lineality(self):
        """Orthonormal basis of {v : eq v = 0, ineq v = 0}, memoized."""
        return _nullspace_rows(np.vstack([self.eq, self.ineq]))

    def subspace_rows(self):
        """Orthonormal basis of {v : eq v = 0}."""
        if not self.eq.shape[0]:
            return np.eye(self.m)
        return _nullspace_rows(self.eq)

    @cached_property
    def is_zero(self):
        """True when the cone is {0}: it has no lineality and the full-space
        member search finds nothing.

        Memoized; the search is the one ``intersect_subspace`` runs, so it
        costs at most 2m projections for an inequality cone and none when
        ``eq`` has full rank (a ball) or the cone has lineality.
        """
        return not self.lineality_rows().shape[0] and self._member_in_span(np.eye(self.m)) is None

    def intersect_subspace(self, directions):
        """A unit cone member inside span(directions), or None if only {0}."""
        if self.is_zero:
            return None
        return self._member_in_span(directions)

    def _member_in_span(self, directions):
        """A unit member in span(directions), or None.  After the planar
        Gordan test: the cone in that span is {0} exactly when every +-e_j
        projects onto it at 0 (Moreau), so the first projection of the +-e_j
        that gives a member to 1e-7 is returned."""
        B = mgs(np.atleast_2d(np.asarray(directions, float)))
        if not B.shape[0]:
            return None
        if self.eq.shape[0]:
            M = self.eq @ B.T
            alpha = _nullspace_rows(M, cols=B.shape[0])
            if not alpha.shape[0]:
                return None
            V = alpha @ B
        else:
            V = B
        if not self.ineq.shape[0]:
            return V[0] / np.linalg.norm(V[0])
        w = V.shape[0]
        if w <= 2 and _planar_cone(self._unit_rows(self.ineq @ V.T)):
            return None
        signed = np.kron(np.eye(w), [[1.0], [-1.0]])  # e_0, -e_0, e_1, -e_1, ...
        return next(self._members(V, signed, 1e-7), None)

    def _members(self, V, Q, tol):
        """Lazily, the unit vectors along those ``_projections`` of the rows
        of Q that are longer than 1e-7 and give cone members to tol."""
        for a in self._projections(V, Q):
            if np.linalg.norm(a) > 1e-7:
                v = a @ V
                v = v / np.linalg.norm(v)
                if self.member(v, tol=tol):
                    yield v

    def _projections(self, V, Q):
        """Lazily, the projection of each row of Q onto the cone in span(V),
        in the coordinates of V (orthonormal rows inside ker(eq)), cut out by
        the ``_unit_rows`` of ineq V^T: left unnormalised, rows that vanish
        on span(V) stall ``_project``."""
        U = self._unit_rows(self.ineq @ V.T)
        return (_project(U, np.zeros(U.shape[0]), q) for q in Q)

    def _unit_rows(self, G):
        """The rows of G = ineq V^T normalised, those shorter than
        PLANAR_MARGIN times their ``ineq`` row left out."""
        n = np.linalg.norm(G, axis=1)
        keep = n > PLANAR_MARGIN * np.linalg.norm(self.ineq, axis=1)
        return G[keep] / n[keep, None]

    @cached_property
    def generators(self):
        """(rays, L) with K = cone(rays) + span(L) (Minkowski-Weyl), memoized;
        None past MAX_VERTEX_SUBSYSTEMS subsystems.  L is ``lineality_rows()``.
        The rays are the unit extreme rays of K cap ker(eq) cap L^perp: in an
        orthonormal basis B of that space (the identity without eq rows and
        lineality), the null lines of the (d-1)-row subsystems of rank d-1 of
        the ``_unit_rows`` of ineq B^T, signed to keep every row <= 1e-9, each
        once.  A {0} cone enumerates nothing."""
        L = self.lineality_rows()
        B = _nullspace_rows(np.vstack([self.eq, L])) if self.eq.shape[0] or L.shape[0] else None
        U = self._unit_rows(self.ineq if B is None else self.ineq @ B.T)
        k, d = U.shape
        if not d or self.is_zero:
            return np.zeros((0, self.m)), L
        if math.comb(k, d - 1) > MAX_VERTEX_SUBSYSTEMS:
            return None
        idx = np.array(list(itertools.combinations(range(k), d - 1)), dtype=int)
        _, s, vh = np.linalg.svd(U[idx])
        a = vh[np.all(s > 1e-10, axis=1), -1]
        P = U @ a.T
        R = np.vstack([a[np.all(P <= 1e-9, axis=0)], -a[np.all(P >= -1e-9, axis=0)]])
        R = R[~np.triu(R @ R.T > 1 - 1e-12, 1).any(axis=0)]
        return (R if B is None else R @ B), L

    def sample_members(self, rng, count):
        """Up to ``count`` unit cone members: the nonzero projections onto the
        cone of standard-normal points of ker(eq), drawn one at a time, at
        most 3 * count of them.  A {0} cone has none and draws nothing."""
        if self.is_zero:
            return np.zeros((0, self.m))
        sub = self.subspace_rows()
        draws = (rng.normal(size=sub.shape[0]) for _ in range(3 * count))
        out = list(itertools.islice(self._members(sub, draws, 1e-8), count))
        return np.array(out) if out else np.zeros((0, self.m))

    def polar_direction_in(self, W, tol=1e-9):
        """Unit eta in span(W rows) with <eta, v> <= 0 on the whole cone, or None.

        By Farkas' lemma the polar cone is {ineq^T lam + eq^T mu : lam >= 0},
        so one LP over (c, lam, mu, t) -- W^T c = ineq^T lam + eq^T mu,
        t <= lam <= 1, maximize t -- finds eta = W^T c, strictly negative on
        every ray outside the lineality space, whenever t > tol.  Otherwise
        (a polar direction in span(W) may need some lam_i = 0) the candidates
        are +-each nullspace direction of span(W) orthogonal to the lineality
        space.  By Moreau's decomposition a unit eta is polar exactly when its
        projection onto the cone is 0, and the length of that projection is
        the max of <eta, v> over the cone's unit ball, so a candidate is taken
        when that length is at most 1e-7.  A {0} cone takes W[0].
        """
        W = mgs(np.atleast_2d(np.asarray(W, float)))
        if not W.shape[0]:
            return None
        if self.is_zero:
            return W[0] / np.linalg.norm(W[0])
        (w, m), k, e = W.shape, self.ineq.shape[0], self.eq.shape[0]
        if k:  # variables (c, lam, mu, t); rows lam <= 1, then t - lam <= 0
            lam = np.hstack([np.zeros((k, w)), np.eye(k), np.zeros((k, e + 1))])
            t = np.zeros_like(lam)
            t[:, -1] = 1.0
            res = solve_lp(t[0], A_ub=np.vstack([lam, t - lam]),
                           b_ub=np.concatenate([np.ones(k), np.zeros(k)]),
                           A_eq=np.hstack([W.T, -self.ineq.T, -self.eq.T, np.zeros((m, 1))]),
                           b_eq=np.zeros(m), maximize=True)
            if res.optimal and res.value > tol:
                eta = res.x[:w] @ W
                nv = np.linalg.norm(eta)
                if nv > 1e-10:
                    return eta / nv
        sub = self.subspace_rows()
        L = self.lineality_rows()
        for c in _nullspace_rows(L @ W.T, cols=w):
            for eta in (c @ W, -c @ W):
                nv = np.linalg.norm(eta)
                if nv > 1e-10:
                    eta = eta / nv
                    if np.linalg.norm(next(self._projections(sub, [sub @ eta]))) <= 1e-7:
                        return eta
        return None


def _rows_dot(C, x):
    """C @ x one row at a time: each value is that of its row alone, bit for
    bit, which a matrix-vector product over many rows is not."""
    return (C[:, None, :] @ x)[:, 0]


def _widest_gap(G):
    """The widest angle between consecutive rows of G (two columns, at least
    one row) around the circle, over any leading shape."""
    ang = np.sort(np.arctan2(G[..., 1], G[..., 0]), -1)
    return np.diff(ang, axis=-1, append=ang[..., :1] + 2 * np.pi).max(-1)


def _planar_cone(U):
    """The planar Gordan test on {a : U a <= 0}, for U the ``_unit_rows`` of
    a cone projected onto one or two columns: is the cone {0}?

    By Gordan's alternative the rows must positively span the line or the
    plane: both signs occur (one column), or more than two rows whose angles
    leave no gap of pi (two columns).  The gap must miss pi by PLANAR_MARGIN,
    so a True is never a rounding artefact.
    """
    if U.shape[1] == 1:
        return bool(np.any(U > 0) and np.any(U < 0))
    return U.shape[0] > 2 and _widest_gap(U) < np.pi - PLANAR_MARGIN


def _with_box(A, b, bound):
    """A x <= b followed by the box rows x_j <= bound, then -x_j <= bound."""
    w = A.shape[1]
    return (np.vstack([A, np.eye(w), -np.eye(w)]),
            np.concatenate([b, np.full(2 * w, float(bound))]))


def _project(A, b, q):
    """The exact nearest point of {A x <= b} to q, by the dual active-set
    method of Goldfarb & Idnani (Math. Prog. 27, 1983) for min |x - q|^2 / 2.

    From x = q with no active rows, it takes the most violated row p and
    moves x along z, the part of a_p orthogonal to the active rows N, while
    the multipliers u (q - x = N^T u) stay >= 0: a full step makes p active,
    a partial step drops the row whose multiplier reaches 0 first and tries p
    again.  It ends when no row is violated by more than 1e-12 (1 + |b|).
    Raises ProjectionDidNotConverge after 10 k + 10 steps on k rows, or on a singular active set.
    """
    if not A.shape[0]:
        return q.copy()
    tol = 1e-12 * (1.0 + np.linalg.norm(b))
    x, act, u, p = q.copy(), [], np.zeros(0), None
    for _ in range(10 * len(b) + 10):
        if p is None:
            viol = A @ x - b
            p = int(np.argmax(viol))
            if viol[p] <= tol:
                return x
            up = 0.0
        N = A[act]
        try:
            r = np.linalg.solve(N @ N.T, N @ A[p]) if act else np.zeros(0)
        except np.linalg.LinAlgError:
            raise ProjectionDidNotConverge("active rows became linearly dependent") from None
        z = A[p] - r @ N
        zz = z @ z
        moves = zz > 1e-20  # else a_p depends on the active rows: partial steps only
        t1 = (A[p] @ x - b[p]) / zz if moves else np.inf
        ratio = np.full(len(act), np.inf)
        np.divide(u, r, out=ratio, where=r > 1e-12)
        t = min(t1, ratio.min(initial=np.inf))
        if t == np.inf:
            break  # no step meets row p: numerically, the polyhedron is empty
        if moves:
            x = x - t * z
        u, up = u - t * r, up + t
        if t == t1:
            act, u, p = act + [p], np.append(u, up), None
        else:
            k = int(np.argmin(ratio))
            del act[k]
            u = np.delete(u, k)
    raise ProjectionDidNotConverge("active-set steps did not reach a feasible point")


def _nullspace_rows(M, cols=None, tol=1e-9):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    cols = M.shape[1] if cols is None else cols
    if not M.shape[0]:
        return np.eye(cols)
    _, s, vh = np.linalg.svd(M)
    return vh[int(np.sum(s > tol * max(M.shape) * s[:1])):]


def _fraction_nullspace(A):
    """Exact rational nullspace basis rows of a float/int matrix."""
    rows = [[Fraction(v) for v in row] for row in np.atleast_2d(A).tolist()]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc]
        basis.append([float(x) for x in v])
    out = np.array(basis) if basis else np.zeros((0, ncols))
    return mgs(out) if out.shape[0] else out


class ConvexSet:
    """Base class; subclasses fill in the variant-specific pieces."""

    json_type = "abstract"
    is_c1_boundary = False
    is_degenerate = False

    def __init__(self, m):
        self.m = int(m)
        self._cone = None

    # --- variant API -----------------------------------------------------
    def _violation(self, x):
        raise NotImplementedError

    def _build_cone(self) -> RecessionCone:
        raise NotImplementedError

    def support(self, c) -> SupportResult:
        raise NotImplementedError

    def support_values(self, C):
        """Support values of the rows of C, in order.

        Variants with a closed form return an array.  Here the values come
        lazily, one ``support`` call per row, so a caller that stops at the
        first value it needs solves no further LPs.
        """
        return (self.support(c).value for c in np.atleast_2d(C))

    def nearest_boundary(self, q):
        raise NotImplementedError

    def sample_boundary(self, rng, count, window):
        raise NotImplementedError

    def boundary_gradient(self, p):
        raise UnsupportedVariant(f"{self.json_type} has no C1 boundary gradient")

    def to_jsonable(self):
        raise NotImplementedError

    # --- shared ----------------------------------------------------------
    def contains(self, x, tol=DEFAULT_TOL):
        v = self._violation(np.asarray(x, dtype=float))
        if np.ndim(v) == 0:
            return bool(v <= tol)
        return v <= tol

    def recession_cone(self):
        if self._cone is None:
            self._cone = self._build_cone()
        return self._cone

    def recession_member(self, v, tol=DEFAULT_TOL):
        v = np.asarray(v, dtype=float)
        if abs(np.linalg.norm(v) - 1.0) > 1e-6:
            raise ValueError("direction must be a unit vector")
        return self.recession_cone().member(v, tol=tol)

    def lineality(self):
        return self.recession_cone().lineality_rows()

    def lineality_exact(self):
        """(lineality rows, exact), memoized as ``recession_cone`` is."""
        return self._lineality_exact

    @cached_property
    def _lineality_exact(self):
        """Exact when the rational nullspace of the cone's stacked eq/ineq
        rows has as many rows as ``lineality()``."""
        rows = self.lineality()
        cone = self.recession_cone()
        stacked = np.vstack([cone.eq, cone.ineq])
        return rows, _fraction_nullspace(stacked).shape[0] == rows.shape[0]

    def complex_n(self):
        if self.m % 2:
            raise UnsupportedVariant("odd ambient dimension has no complex structure")
        return self.m // 2

    def sample_exterior(self, rng, count, window):
        out = []
        for _ in range(60 * count):
            x = rng.uniform(-window, window, size=self.m)
            if self._violation(x) > 1e-7:
                out.append(x)
            if len(out) >= count:
                break
        return np.array(out) if out else np.zeros((0, self.m))


class HPolyhedron(ConvexSet):
    """{x : A x <= b}; rows stored normalized, original data kept for exact work."""

    json_type = "polyhedron"

    def __init__(self, A, b):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if A.shape[0] != b.shape[0]:
            raise DimensionMismatch("one offset per inequality row")
        norms = np.linalg.norm(A, axis=1)
        if np.any(norms < 1e-12):
            raise ValueError("zero rows not allowed")
        super().__init__(A.shape[1])
        self.A_raw, self.b_raw = A, b
        self.A = A / norms[:, None]
        self.b = b / norms
        if feasible_point(A_ub=self.A, b_ub=self.b) is None:
            raise InfeasiblePolyhedron("no point satisfies the system")
        self._cheb = {}
        self._verts = None

    @property
    def is_c1_boundary(self):
        return self.A.shape[0] == 1

    def _violation(self, x):
        return np.max(x @ self.A.T - self.b, axis=-1)

    def _build_cone(self):
        return RecessionCone(self.m, ineq=self.A)

    @cached_property
    def _lineality_exact(self):
        return _fraction_nullspace(self.A_raw), True

    def support(self, c):
        res = solve_lp(np.asarray(c, float), A_ub=self.A, b_ub=self.b, maximize=True)
        if res.status == "infeasible":  # the constructor found a point
            raise LPNumericalFailure("support LP reported a nonempty polyhedron infeasible")
        if not res.optimal:
            return SupportResult(np.inf, None)
        return SupportResult(float(res.value), res.x)

    def support_values(self, C):
        """Minkowski-Weyl form when the polyhedron is pointed and small
        enough to enumerate: the max of C @ V.T over the vertices V, each row
        on its own (``_rows_dot``), and +inf on rows with C @ r > 1e-9 for an
        extreme ray r.  Otherwise one lazy
        LP per row, except on rows with |L c| > 1e-9 for the lineality space
        L: a functional that does not vanish on L is unbounded, +inf."""
        C = np.atleast_2d(np.asarray(C, dtype=float))
        V = self._vertex_array()
        if V is None:
            unbounded = np.max(np.abs(C @ self.lineality().T), axis=1, initial=0.0) > 1e-9
            inner = super().support_values(C[~unbounded])
            return (np.inf if u else next(inner) for u in unbounded)
        out = np.max(_rows_dot(C, V.T), axis=1)
        R = self.recession_cone().generators[0]
        out[np.max(C @ R.T, axis=1, initial=-np.inf) > 1e-9] = np.inf
        return out

    def _vertex_array(self):
        """Every vertex, from the nonsingular m-row subsystems of the normalized
        rows whose solution is feasible to 1e-9; None (memoized as an empty
        array) for polyhedra that are not pointed and too many subsystems."""
        if self._verts is None:
            k, m = self.A.shape
            self._verts = np.zeros((0, m))
            if 0 < math.comb(k, m) <= MAX_VERTEX_SUBSYSTEMS \
                    and (gens := self.recession_cone().generators) is not None \
                    and not gens[1].shape[0]:
                idx = np.array(list(itertools.combinations(range(k), m)), dtype=int)
                sub = self.A[idx]
                ok = np.abs(np.linalg.det(sub)) > 1e-10
                X = np.linalg.solve(sub[ok], self.b[idx[ok]][..., None])[..., 0]
                self._verts = X[np.all(X @ self.A.T <= self.b + 1e-9, axis=1)]
        return self._verts if self._verts.shape[0] else None

    def nearest_boundary(self, q):
        """The exact nearest point of {A x <= b} to an exterior q (``_project``)."""
        q = np.asarray(q, dtype=float)
        if self.contains(q):
            raise PointInsideSet("q already lies in the set")
        return _project(self.A, self.b, q)

    def chebyshev(self, window=100.0):
        key = float(window)
        if key not in self._cheb:
            m = self.m
            A, b = _with_box(self.A, self.b, window)
            rows = np.hstack([A, np.ones((A.shape[0], 1))])
            obj = np.zeros(m + 1)
            obj[-1] = 1.0
            res = solve_lp(obj, A_ub=rows, b_ub=b, maximize=True)
            if not res.optimal:
                raise InfeasiblePolyhedron("no interior box point")
            self._cheb[key] = (res.x[:m], float(res.value))
        return self._cheb[key]

    @property
    def is_degenerate(self):
        try:
            _, t = self.chebyshev()
        except InfeasiblePolyhedron:
            return True
        return t <= 1e-10

    def _vertices(self, rng, count, window):
        A, b = _with_box(self.A, self.b, window)
        verts = []
        for _ in range(count):
            obj = rng.normal(size=self.m)
            res = solve_lp(obj, A_ub=A, b_ub=b, maximize=True)
            if res.optimal:
                verts.append(res.x)
        return verts

    def sample_boundary(self, rng, count, window):
        if self.is_degenerate:
            verts = self._vertices(rng, max(8, count // 4), window)
            if not verts:
                return np.zeros((0, self.m))
            V = np.array(verts)
            w = rng.uniform(size=(count, V.shape[0]))
            w /= w.sum(axis=1, keepdims=True)
            return w @ V
        x0, _ = self.chebyshev(window)
        slack = self.b - self.A @ x0
        out = []
        for _ in range(40 * count):
            d = rng.normal(size=self.m)
            d /= np.linalg.norm(d)
            Ad = self.A @ d
            rising = Ad > 1e-12
            if not np.any(rising):
                continue  # recession direction; resample
            t = float(np.min(slack[rising] / Ad[rising]))
            out.append(x0 + t * d)
            if len(out) >= count:
                break
        return np.array(out) if out else np.zeros((0, self.m))

    def boundary_gradient(self, p):
        resid = self.A @ np.asarray(p, float) - self.b
        active = np.where(np.abs(resid) <= 1e-7 * (1.0 + np.abs(self.b)))[0]
        if active.shape[0] != 1:
            raise UnsupportedVariant("boundary point is on an edge or corner")
        return self.A[active[0]].copy()

    def to_jsonable(self):
        return {"type": "polyhedron", "A": self.A_raw.tolist(), "b": self.b_raw.tolist()}


class QuadricBall(ConvexSet):
    json_type = "ball"
    is_c1_boundary = True

    def __init__(self, center, radius):
        center = np.asarray(center, dtype=float)
        super().__init__(center.shape[0])
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.center, self.radius = center, float(radius)

    def _violation(self, x):
        return np.linalg.norm(x - self.center, axis=-1) - self.radius

    def _build_cone(self):
        return RecessionCone(self.m, eq=np.eye(self.m))

    def support(self, c):
        c = np.asarray(c, dtype=float)
        nc = np.linalg.norm(c)
        if nc < 1e-14:
            return SupportResult(0.0, self.center.copy())
        return SupportResult(float(c @ self.center + self.radius * nc),
                             self.center + self.radius * c / nc)

    def support_values(self, C):
        C = np.atleast_2d(np.asarray(C, dtype=float))
        nc = np.linalg.norm(C, axis=1)
        return np.where(nc < 1e-14, 0.0, _rows_dot(C, self.center) + self.radius * nc)

    def nearest_boundary(self, q):
        q = np.asarray(q, dtype=float)
        if self.contains(q):
            raise PointInsideSet("q already lies in the set")
        d = q - self.center
        return self.center + self.radius * d / np.linalg.norm(d)

    def sample_boundary(self, rng, count, window):
        d = rng.normal(size=(count, self.m))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return self.center + self.radius * d

    def boundary_gradient(self, p):
        return 2.0 * (np.asarray(p, float) - self.center)

    def to_jsonable(self):
        return {"type": "ball", "center": self.center.tolist(), "radius": self.radius}


class Epigraph(ConvexSet):
    """{x : x[graph] >= phi(x[base])} with optional free coordinates."""

    json_type = "epigraph"

    def __init__(self, phi, m, graph_index, base_indices, free_indices=(),
                 meta=None, convexity_rng=None):
        super().__init__(m)
        self.phi = phi
        self.gi = int(graph_index)
        self.bi = np.asarray(base_indices, dtype=int)
        self.fi = np.asarray(free_indices, dtype=int)
        if phi.k != self.bi.shape[0]:
            raise DimensionMismatch("phi arity must match base coordinates")
        claimed = set(self.bi.tolist()) | set(self.fi.tolist()) | {self.gi}
        if len(claimed) != m or claimed != set(range(m)):
            raise DimensionMismatch("indices must partition the ambient axes")
        self.meta = dict(meta or {})
        rng = convexity_rng or np.random.default_rng(20240801)
        if not midpoint_convexity_check(phi, rng):
            raise ValueError("phi failed the midpoint convexity spot-check")

    @property
    def is_c1_boundary(self):
        return self.phi.is_c1

    def _violation(self, x):
        x = np.asarray(x, dtype=float)
        return self.phi.value(x[..., self.bi]) - x[..., self.gi]

    def assemble(self, u, g, free=None):
        x = np.zeros(self.m)
        x[self.bi] = u
        x[self.gi] = g
        if self.fi.shape[0]:
            x[self.fi] = 0.0 if free is None else free
        return x

    def _build_cone(self):
        eq_u, ineq_u = self.phi.recession_rows()
        eq = np.zeros((eq_u.shape[0], self.m))
        if eq_u.shape[0]:
            eq[:, self.bi] = eq_u
        ineq = np.zeros((ineq_u.shape[0], self.m))
        if ineq_u.shape[0]:
            ineq[:, self.bi] = ineq_u[:, :-1]
            ineq[:, self.gi] = ineq_u[:, -1]
        return RecessionCone(self.m, eq=eq, ineq=ineq)

    def support(self, c):
        c = np.asarray(c, dtype=float)
        cb, cg = c[self.bi], c[self.gi]
        cf = c[self.fi] if self.fi.shape[0] else np.zeros(0)
        if cf.shape[0] and np.max(np.abs(cf)) > 1e-12:
            return SupportResult(np.inf, None)
        if cg > 1e-12:
            return SupportResult(np.inf, None)
        if abs(cg) <= 1e-12:
            if np.max(np.abs(cb), initial=0.0) <= 1e-12:
                p = self.assemble(np.zeros(self.phi.k), self.phi.value(np.zeros(self.phi.k)))
                return SupportResult(float(c @ p), p)
            return SupportResult(np.inf, None)
        val, ustar = self.phi.conjugate_attain(cb / (-cg))
        if not np.isfinite(val):
            return SupportResult(np.inf, None)
        p = self.assemble(ustar, float(self.phi.value(ustar)))
        return SupportResult(float(c @ p), p)

    def support_values(self, C):
        """Closed forms, else lazily.  A quadratic phi takes one multi-RHS
        ``lstsq`` with the residual test of ``Quadratic.conjugate_attain``.  A
        NormCombo phi of full rank, with no free coordinates, gives 0 where
        y = cb / -cg lies in its zonotope, |N y| <= h on every facet, and +inf
        elsewhere."""
        facets = None if self.fi.shape[0] else getattr(self.phi, "zonotope_facets", None)
        if facets is None and not isinstance(self.phi, Quadratic):
            return super().support_values(C)
        C = np.atleast_2d(np.asarray(C, dtype=float))
        cb, cg = C[:, self.bi], C[:, self.gi]
        out = np.full(C.shape[0], np.inf)
        bounded = (cg <= 1e-12) & (np.max(np.abs(C[:, self.fi]), axis=1, initial=0.0) <= 1e-12)
        flat = bounded & (np.abs(cg) <= 1e-12)
        vertex = flat & (np.max(np.abs(cb), axis=1, initial=0.0) <= 1e-12)
        out[vertex] = cg[vertex] * self.phi.value(np.zeros(self.phi.k))
        rows = np.flatnonzero(bounded & ~flat)
        if rows.shape[0] and facets is not None:
            Y = cb[rows] / (-cg[rows])[:, None]
            out[rows[np.all(np.abs(Y @ facets[0].T) <= facets[1] + 1e-9, axis=1)]] = 0.0
        elif rows.shape[0]:
            Q, l = self.phi.Q, self.phi.l
            rhs = cb[rows] / (-cg[rows])[:, None] - l
            U, *_ = np.linalg.lstsq(2.0 * Q, rhs.T, rcond=None)
            U = U.T
            resid = np.linalg.norm(U @ (2.0 * Q).T - rhs, axis=1)
            ok = resid <= 1e-8 * (1.0 + np.linalg.norm(rhs, axis=1))
            rows, U = rows[ok], U[ok]
            out[rows] = (np.sum(cb[rows] * U, axis=1)
                         + cg[rows] * self.phi.value(U))
        return out

    def nearest_boundary(self, q):
        """The exact nearest point of E to an exterior q; free coordinates stay.

        A NormCombo phi is positively homogeneous, so E is its own recession
        cone and ``_project`` onto the cone's unit rows answers.  For a
        quadratic phi = u.Q u + l.u + c with Q = V diag(lam) V^T, the nearest
        point is u(mu) = V (I + 2 mu diag(lam))^-1 V^T (q_u - mu l), g = q_g + mu,
        at the root mu of the secular function F(mu) = phi(u(mu)) - q_g - mu
        (More & Sorensen, 1983).  F is convex with F' = -sum_j (V^T grad
        phi)_j^2 / (1 + 2 mu lam_j) - 1 <= -1 and F(0) > 0, so Newton from 0
        climbs to the root without overshooting; it stops at a step of at
        most 1e-15 (1 + mu) and raises ProjectionDidNotConverge after 100.
        Other phi raise UnsupportedVariant.
        """
        q = np.asarray(q, dtype=float)
        if self.contains(q):
            raise PointInsideSet("q already lies in the set")
        if isinstance(self.phi, NormCombo):
            return next(self.recession_cone()._projections(np.eye(self.m), [q]))
        if not isinstance(self.phi, Quadratic):
            raise UnsupportedVariant("no exact projection onto this epigraph")
        lam, V = np.linalg.eigh(self.phi.Q)
        qt, lt = V.T @ q[self.bi], V.T @ self.phi.l
        qg, mu = float(q[self.gi]), 0.0
        for _ in range(100):
            d = 1.0 + 2.0 * mu * lam
            u = V @ ((qt - mu * lt) / d)
            gt = V.T @ self.phi.grad(u)
            step = (float(self.phi.value(u)) - qg - mu) / (gt @ (gt / d) + 1.0)
            if step <= 1e-15 * (1.0 + mu):
                return self.assemble(u, qg + mu, q[self.fi])
            mu += step
        raise ProjectionDidNotConverge("secular Newton steps did not reach the root")

    def sample_boundary(self, rng, count, window):
        u = rng.normal(size=(count, self.phi.k))
        u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-12)
        u *= rng.uniform(0.0, window, size=(count, 1)) ** (1.0 / max(self.phi.k, 1))
        out = np.zeros((count, self.m))
        out[:, self.bi] = u
        out[:, self.gi] = self.phi.value(u)
        if self.fi.shape[0]:
            out[:, self.fi] = rng.uniform(-window, window, size=(count, self.fi.shape[0]))
        return out

    def boundary_gradient(self, p):
        if not self.phi.is_c1:
            raise UnsupportedVariant("phi is not C1")
        g = np.zeros(self.m)
        g[self.bi] = self.phi.grad(np.asarray(p, float)[self.bi])
        g[self.gi] = -1.0
        return g

    def to_jsonable(self):
        if self.meta:
            return dict(self.meta)
        return {"type": "epigraph", "m": self.m, "graph_index": self.gi,
                "base_indices": self.bi.tolist(), "free_indices": self.fi.tolist(),
                "phi": self.phi.to_jsonable()}


def _unit(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class SiegelClosure(Epigraph):
    """Closure of the model domain {Im z_n > |z'|^2} in C^n, realified."""

    json_type = "siegel"

    def __init__(self, n):
        if n < 2:
            raise ValueError("needs n >= 2")
        self.n = int(n)
        m = 2 * n
        base = list(range(0, 2 * n - 2))
        super().__init__(Quadratic(np.eye(2 * n - 2)), m,
                         graph_index=2 * n - 1, base_indices=base,
                         free_indices=[2 * n - 2],
                         meta={"type": "siegel", "n": int(n)})


class Tube(ConvexSet):
    """base set in the base coordinates, every fiber coordinate free."""

    json_type = "tube"

    def __init__(self, base: ConvexSet, base_indices, fiber_indices):
        self.base = base
        self.bi = np.asarray(base_indices, dtype=int)
        self.fi = np.asarray(fiber_indices, dtype=int)
        m = self.bi.shape[0] + self.fi.shape[0]
        if set(self.bi.tolist()) | set(self.fi.tolist()) != set(range(m)):
            raise DimensionMismatch("indices must partition the ambient axes")
        if base.m != self.bi.shape[0]:
            raise DimensionMismatch("base set dimension mismatch")
        super().__init__(m)

    @property
    def is_c1_boundary(self):
        return self.base.is_c1_boundary

    @property
    def is_degenerate(self):
        return self.base.is_degenerate

    def _violation(self, x):
        return self.base._violation(np.asarray(x, dtype=float)[..., self.bi])

    def _build_cone(self):
        bc = self.base.recession_cone()
        eq = np.zeros((bc.eq.shape[0], self.m))
        if bc.eq.shape[0]:
            eq[:, self.bi] = bc.eq
        ineq = np.zeros((bc.ineq.shape[0], self.m))
        if bc.ineq.shape[0]:
            ineq[:, self.bi] = bc.ineq
        return RecessionCone(self.m, eq=eq, ineq=ineq)

    def _lift(self, xb, xf):
        x = np.zeros(self.m)
        x[self.bi] = xb
        x[self.fi] = xf
        return x

    def support(self, c):
        c = np.asarray(c, dtype=float)
        if self.fi.shape[0] and np.max(np.abs(c[self.fi])) > 1e-12:
            return SupportResult(np.inf, None)
        res = self.base.support(c[self.bi])
        if not res.finite:
            return res
        pt = self._lift(res.point, np.zeros(self.fi.shape[0])) if res.point is not None else None
        return SupportResult(res.value, pt)

    def support_values(self, C):
        C = np.atleast_2d(np.asarray(C, dtype=float))
        bounded = np.max(np.abs(C[:, self.fi]), axis=1, initial=0.0) <= 1e-12
        inner = self.base.support_values(C[bounded][:, self.bi])
        if isinstance(inner, np.ndarray):
            out = np.full(C.shape[0], np.inf)
            out[bounded] = inner
            return out
        inner = iter(inner)
        return (next(inner) if b else np.inf for b in bounded)

    def nearest_boundary(self, q):
        q = np.asarray(q, dtype=float)
        if self.contains(q):
            raise PointInsideSet("q already lies in the set")
        xb = self.base.nearest_boundary(q[self.bi])
        return self._lift(xb, q[self.fi])

    def sample_boundary(self, rng, count, window):
        xb = self.base.sample_boundary(rng, count, window)
        out = np.zeros((xb.shape[0], self.m))
        out[:, self.bi] = xb
        out[:, self.fi] = rng.uniform(-window, window, size=(xb.shape[0], self.fi.shape[0]))
        return out

    def boundary_gradient(self, p):
        g = np.zeros(self.m)
        g[self.bi] = self.base.boundary_gradient(np.asarray(p, float)[self.bi])
        return g

    def to_jsonable(self):
        return {"type": "tube", "base": self.base.to_jsonable(),
                "base_indices": self.bi.tolist(), "fiber_indices": self.fi.tolist()}


class Dilation(ConvexSet):
    """center + factor * (base - center), factor >= 1."""

    json_type = "dilation"

    def __init__(self, base: ConvexSet, factor, center=None):
        super().__init__(base.m)
        if factor < 1.0:
            raise ValueError("factor must be >= 1")
        self.base = base
        self.factor = float(factor)
        self.center = np.zeros(base.m) if center is None else np.asarray(center, float)
        if not base.contains(self.center, tol=1e-7):
            raise ValueError("dilation center must lie in the base set")

    @property
    def is_c1_boundary(self):
        return self.base.is_c1_boundary

    @property
    def is_degenerate(self):
        return self.base.is_degenerate

    def pull(self, x):
        return self.center + (np.asarray(x, float) - self.center) / self.factor

    def push(self, x):
        return self.center + self.factor * (np.asarray(x, float) - self.center)

    def _violation(self, x):
        x = np.asarray(x, dtype=float)
        return self.base._violation(self.center + (x - self.center) / self.factor)

    def _build_cone(self):
        bc = self.base.recession_cone()
        return RecessionCone(self.m, eq=bc.eq, ineq=bc.ineq)

    def support(self, c):
        c = np.asarray(c, dtype=float)
        res = self.base.support(c)
        if not res.finite:
            return res
        val = float(c @ self.center + self.factor * (res.value - c @ self.center))
        pt = self.push(res.point) if res.point is not None else None
        return SupportResult(val, pt)

    def support_values(self, C):
        C = np.atleast_2d(np.asarray(C, dtype=float))
        cc = _rows_dot(C, self.center)
        inner = self.base.support_values(C)
        if isinstance(inner, np.ndarray):
            return cc + self.factor * (inner - cc)
        return (float(a + self.factor * (v - a)) for a, v in zip(cc, inner))

    def nearest_boundary(self, q):
        if self.contains(q):
            raise PointInsideSet("q already lies in the set")
        return self.push(self.base.nearest_boundary(self.pull(q)))

    def sample_boundary(self, rng, count, window):
        xb = self.base.sample_boundary(rng, count, max(window / self.factor, 1.0))
        return np.array([self.push(x) for x in xb]) if xb.shape[0] else xb

    def boundary_gradient(self, p):
        return self.base.boundary_gradient(self.pull(p))

    def to_jsonable(self):
        return {"type": "dilation", "base": self.base.to_jsonable(),
                "factor": self.factor, "center": self.center.tolist()}


def normcombo_cone_set(n, re_coefs, im_coefs, last_re_coef):
    """Graph-form epigraph of an irreducible weighted-absolute-value family:

    {Im z_n >= last_re_coef * |Re z_n| + sum_j (a_j |Re z_j| + b_j |Im z_j|)}.
    """
    n = int(n)
    re_coefs = np.asarray(re_coefs, dtype=float)
    im_coefs = np.asarray(im_coefs, dtype=float)
    if re_coefs.shape[0] != n - 1 or im_coefs.shape[0] != n - 1:
        raise DimensionMismatch("need n-1 coefficients per part")
    k = 2 * n - 1
    vecs, coefs = [], []
    for j in range(n - 1):
        vecs.append(_unit(k, 2 * j))
        coefs.append(re_coefs[j])
        vecs.append(_unit(k, 2 * j + 1))
        coefs.append(im_coefs[j])
    vecs.append(_unit(k, 2 * n - 2))
    coefs.append(float(last_re_coef))
    phi = NormCombo(coefs, vecs)
    meta = {"type": "normcombo", "n": n, "a": re_coefs.tolist(),
            "b": im_coefs.tolist(), "c": float(last_re_coef)}
    return Epigraph(phi, 2 * n, graph_index=2 * n - 1,
                    base_indices=list(range(2 * n - 1)), free_indices=[], meta=meta)
