"""Convex function variants used as epigraph data.

Each variant knows its value, a polyhedral description of its recession cone
(as epigraph-cone rows) and how to maximize ``y.u - phi(u)`` (conjugate with
attainer), which is what the support-function code needs.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .errors import NotIrreducibleFamily, UnsupportedVariant
from .lp import solve_lp

PSD_TOL = 1e-10
_SIGN_CAP = 12
# Closed forms enumerate at most this many row subsystems; above it the LP stays
MAX_VERTEX_SUBSYSTEMS = 4096


class Quadratic:
    """phi(u) = u.Q u + l.u + c with Q positive semidefinite."""

    is_c1 = True
    kind = "quadratic"

    def __init__(self, Q, l=None, c=0.0):
        self.Q = np.atleast_2d(np.asarray(Q, dtype=float))
        self.k = self.Q.shape[0]
        self.l = np.zeros(self.k) if l is None else np.asarray(l, dtype=float)
        self.c = float(c)
        if self.Q.shape != (self.k, self.k):
            raise ValueError("Q must be square")
        if np.max(np.abs(self.Q - self.Q.T)) > 1e-12:
            raise ValueError("Q must be symmetric")
        if self.k and np.linalg.eigvalsh(self.Q).min() < -PSD_TOL:
            raise ValueError("Q must be positive semidefinite")

    def value(self, u):
        u = np.asarray(u, dtype=float)
        return np.einsum("...i,ij,...j->...", u, self.Q, u) + u @ self.l + self.c

    def grad(self, u):
        return 2.0 * self.Q @ np.asarray(u, dtype=float) + self.l

    def recession_rows(self):
        eq = self.Q.copy()
        ineq = np.concatenate([self.l, [-1.0]])[None, :]
        return eq, ineq

    def conjugate_attain(self, y):
        y = np.asarray(y, dtype=float)
        rhs = y - self.l
        u, *_ = np.linalg.lstsq(2.0 * self.Q, rhs, rcond=None)
        if np.linalg.norm(2.0 * self.Q @ u - rhs) > 1e-8 * (1.0 + np.linalg.norm(rhs)):
            return np.inf, None
        return float(y @ u - self.value(u)), u

    def to_jsonable(self):
        return {"kind": "quadratic", "Q": self.Q.tolist(), "l": self.l.tolist(), "c": self.c}


class NormCombo:
    """phi(u) = sum_i coef_i |<w_i, u>| with coef_i >= 0."""

    is_c1 = False
    kind = "normcombo"

    def __init__(self, coefs, vectors):
        self.coefs = np.asarray(coefs, dtype=float)
        self.vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        self.k = self.vectors.shape[1]
        if self.coefs.shape[0] != self.vectors.shape[0]:
            raise ValueError("one coefficient per functional")
        if np.any(self.coefs < 0):
            raise ValueError("coefficients must be nonnegative")

    @property
    def terms(self):
        return self.coefs.shape[0]

    def value(self, u):
        u = np.asarray(u, dtype=float)
        return np.abs(u @ self.vectors.T) @ self.coefs

    def is_irreducible(self):
        """All weights strictly positive and the functionals span R^k."""
        if np.any(self.coefs <= 0):
            return False
        return np.linalg.matrix_rank(self.vectors) == self.k

    def require_irreducible(self):
        if not self.is_irreducible():
            raise NotIrreducibleFamily(
                "needs strictly positive weights and spanning functionals")

    def smoothed(self, eta):
        return SmoothedNormCombo(self, eta)

    def recession_rows(self):
        # positively homogeneous: recession function = phi itself; expand signs
        if self.terms > _SIGN_CAP:
            raise UnsupportedVariant("too many normcombo terms for sign expansion")
        rows = []
        for mask in range(2 ** self.terms):
            signs = np.array([1.0 if mask & (1 << i) else -1.0 for i in range(self.terms)])
            rows.append(np.concatenate([(self.coefs * signs) @ self.vectors, [-1.0]]))
        return np.zeros((0, self.k)), np.array(rows)

    def conjugate_attain(self, y):
        # conjugate = indicator of the zonotope {sum gamma_i w_i : |gamma_i| <= coef_i}
        y = np.asarray(y, dtype=float)
        T = self.terms
        eye = np.eye(T)
        res = solve_lp(np.zeros(T), A_ub=np.vstack([eye, -eye]),
                       b_ub=np.concatenate([self.coefs, self.coefs]),
                       A_eq=self.vectors.T, b_eq=y)
        if res.optimal:
            return 0.0, np.zeros(self.k)
        return np.inf, None

    @cached_property
    def zonotope_facets(self):
        """(N, h): unit facet normals N of the zonotope {sum_i g_i w_i :
        |g_i| <= coef_i} and its support values h_j = sum_i coef_i |N_j . w_i|,
        one normal per (k-1)-subset of the w_i spanning a hyperplane.  None
        when the w_i do not span R^k or there are more than
        MAX_VERTEX_SUBSYSTEMS subsets."""
        W, k = self.vectors, self.k
        if np.linalg.matrix_rank(W) < k or math.comb(self.terms, k - 1) > MAX_VERTEX_SUBSYSTEMS:
            return None
        idx = np.array(list(itertools.combinations(range(self.terms), k - 1)), dtype=int)
        _, s, vh = np.linalg.svd(W[idx])
        N = vh[np.all(s > 1e-10 * np.max(np.abs(W)), axis=1), -1]
        return N, np.abs(N @ W.T) @ self.coefs

    def to_jsonable(self):
        return {"kind": "normcombo",
                "terms": [{"coef": float(c), "u": v.tolist()}
                          for c, v in zip(self.coefs, self.vectors)]}


class SmoothedNormCombo:
    """psi(u) = sum_i coef_i (sqrt(<w_i,u>^2 + eta^2) - eta); smooth minorant shift."""

    is_c1 = True
    kind = "smoothed-normcombo"

    def __init__(self, base: NormCombo, eta):
        if eta <= 0:
            raise ValueError("eta must be positive")
        self.base = base
        self.eta = float(eta)
        self.k = base.k

    def value(self, u):
        u = np.asarray(u, dtype=float)
        t = u @ self.base.vectors.T
        return (np.sqrt(t * t + self.eta ** 2) - self.eta) @ self.base.coefs

    def grad(self, u):
        t = np.asarray(u, dtype=float) @ self.base.vectors.T
        w = t / np.sqrt(t * t + self.eta ** 2)
        return (self.base.coefs * w) @ self.base.vectors

    def hess(self, u):
        t = np.asarray(u, dtype=float) @ self.base.vectors.T
        w = self.eta ** 2 / (t * t + self.eta ** 2) ** 1.5
        return (self.base.vectors.T * (self.base.coefs * w)) @ self.base.vectors

    def to_jsonable(self):
        return {"kind": "smoothed-normcombo", "eta": self.eta,
                "base": self.base.to_jsonable()}


class MaxAffine:
    """phi(u) = max_i (a_i . u + b_i)."""

    is_c1 = False
    kind = "maxaffine"

    def __init__(self, A, b):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.asarray(b, dtype=float)
        self.k = self.A.shape[1]
        if self.A.shape[0] != self.b.shape[0]:
            raise ValueError("one offset per affine piece")
        if self.A.shape[0] == 0:
            raise ValueError("need at least one affine piece")

    def value(self, u):
        u = np.asarray(u, dtype=float)
        return np.max(u @ self.A.T + self.b, axis=-1)

    def recession_rows(self):
        ineq = np.hstack([self.A, -np.ones((self.A.shape[0], 1))])
        return np.zeros((0, self.k)), ineq

    def conjugate_attain(self, y):
        # max y.u - t  s.t.  a_i.u - t <= -b_i   (vars: u, t)
        y = np.asarray(y, dtype=float)
        c = np.concatenate([y, [-1.0]])
        A_ub = np.hstack([self.A, -np.ones((self.A.shape[0], 1))])
        res = solve_lp(c, A_ub=A_ub, b_ub=-self.b, maximize=True)
        if not res.optimal:
            return np.inf, None
        return float(res.value), res.x[:-1]

    def to_jsonable(self):
        return {"kind": "maxaffine", "A": self.A.tolist(), "b": self.b.tolist()}


def function_from_jsonable(data):
    kind = data.get("kind")
    if kind == "quadratic":
        return Quadratic(data["Q"], data.get("l"), data.get("c", 0.0))
    if kind == "normcombo":
        coefs = [t["coef"] for t in data["terms"]]
        vecs = [t["u"] for t in data["terms"]]
        return NormCombo(coefs, vecs)
    if kind == "maxaffine":
        return MaxAffine(data["A"], data["b"])
    raise UnsupportedVariant(f"unknown function kind {kind!r}")


def midpoint_convexity_check(fn, rng, scale=10.0, samples=1000, tol=1e-9):
    """Spot-check phi((x+y)/2) <= (phi(x)+phi(y))/2 on random segments."""
    x = rng.normal(size=(samples, fn.k)) * scale
    y = rng.normal(size=(samples, fn.k)) * scale
    mid = fn.value((x + y) / 2.0)
    avg = (fn.value(x) + fn.value(y)) / 2.0
    return bool(np.all(mid <= avg + tol * (1.0 + np.abs(avg))))
