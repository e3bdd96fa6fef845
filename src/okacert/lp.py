"""Dense two-phase simplex with Bland's rule.

Small self-contained solver used for support functions, feasibility probes and
the Farkas LP of ``RecessionCone.polar_direction_in``. Variables are free (internally split into positive
parts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LPNumericalFailure

_MAX_ITER = 20000


@dataclass
class LPResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    x: np.ndarray | None
    value: float | None

    @property
    def optimal(self):
        return self.status == "optimal"


def _pivot(T, r, j):
    T[r] = T[r] / T[r][j]
    for i in range(T.shape[0]):
        if i != r and T[i][j] != 0:
            T[i] = T[i] - T[i][j] * T[r]


def _run_simplex(T, basis, tol, cost_tol):
    """Minimize the objective row in place; returns 'optimal' or 'unbounded'.
    A column enters when its reduced cost is below -cost_tol."""
    m = T.shape[0] - 1
    for _ in range(_MAX_ITER):
        obj = T[-1]
        enter = -1
        for j in range(T.shape[1] - 1):
            if obj[j] < -cost_tol:
                enter = j  # Bland: smallest improving index
                break
        if enter < 0:
            return "optimal"
        leave, best, best_basis = -1, None, None
        for i in range(m):
            a = T[i][enter]
            if a > tol:
                ratio = T[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < best_basis):
                    leave, best, best_basis = i, ratio, basis[i]
        if leave < 0:
            return "unbounded"
        _pivot(T, leave, enter)
        basis[leave] = enter
    raise LPNumericalFailure("simplex iteration budget exhausted")


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, maximize=False):
    """Solve min (or max) c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x free."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    rows, rhs, kinds = [], [], []
    if A_ub is not None and len(np.atleast_2d(A_ub)):
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        for row, b in zip(A_ub, np.atleast_1d(np.asarray(b_ub, dtype=float))):
            rows.append(row)
            rhs.append(b)
            kinds.append("ub")
    if A_eq is not None and len(np.atleast_2d(A_eq)):
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        for row, b in zip(A_eq, np.atleast_1d(np.asarray(b_eq, dtype=float))):
            rows.append(row)
            rhs.append(b)
            kinds.append("eq")

    m = len(rows)
    nslack = sum(1 for k in kinds if k == "ub")
    # columns: x+ (n) | x- (n) | slacks (nslack) | artificials (<= m)
    # ub rows come first, so ub row i owns slack column 2n + i
    width = 2 * n + nslack
    A = np.zeros((m, width))
    b = np.asarray(rhs, dtype=float)
    cc = (-c if maximize else c).astype(float)
    tol = 1e-9

    for i, row in enumerate(rows):
        A[i, :n] = row
        A[i, n:2 * n] = -row
        if kinds[i] == "ub":
            A[i, 2 * n + i] = 1.0

    # make rhs nonnegative
    for i in range(m):
        if b[i] < 0.0:
            A[i] = -A[i]
            b[i] = -b[i]

    # initial basis: slack where usable, artificial otherwise
    basis, art_cols, art_rows = [], [], []
    for i in range(m):
        col = -1
        if kinds[i] == "ub" and A[i][2 * n + i] == 1.0:
            col = 2 * n + i
        if col < 0:
            art_rows.append(i)
            col = width + len(art_cols)
            art_cols.append(col)
        basis.append(col)

    total = width + len(art_cols)
    T = np.zeros((m + 1, total + 1))
    T[:m, :width] = A
    T[:m, -1] = b
    for r_i, c_i in zip(art_rows, art_cols):
        T[r_i, c_i] = 1.0

    if art_cols:
        # phase 1: minimize sum of artificials
        for j in art_cols:
            T[-1, j] = 1.0
        for i in range(m):
            if basis[i] in art_cols:
                T[-1] = T[-1] - T[i]
        status = _run_simplex(T, basis, tol, tol)
        if status != "optimal":
            raise LPNumericalFailure("phase-1 simplex did not terminate optimal")
        phase1 = -T[-1][-1]
        if phase1 > tol:
            return LPResult("infeasible", None, None)
        # drive remaining artificials out of the basis
        drop = []
        for i in range(m):
            if basis[i] in art_cols:
                piv = -1
                for j in range(width):
                    if abs(T[i][j]) > tol:
                        piv = j
                        break
                if piv >= 0:
                    _pivot(T, i, piv)
                    basis[i] = piv
                else:
                    drop.append(i)
        if drop:
            keep = [i for i in range(m) if i not in drop]
            T = np.vstack([T[keep], T[-1:][:]])
            basis = [basis[i] for i in keep]
            m = len(keep)
        T = np.hstack([T[:, :width], T[:, -1:]])

    # phase 2 objective
    T[-1, :] = 0.0
    T[-1, :n] = cc
    T[-1, n:2 * n] = -cc
    for i in range(m):
        if T[-1][basis[i]] != 0.0:
            T[-1] = T[-1] - T[-1][basis[i]] * T[i]
    # reduced costs scale with c, so a component of c below tol still enters
    status = _run_simplex(T, basis, tol, min(tol, 1e-12 * float(np.max(np.abs(cc), initial=0.0))))
    if status == "unbounded":
        return LPResult("unbounded", None, None)

    x = np.zeros(2 * n)
    for i in range(m):
        if basis[i] < 2 * n:
            x[basis[i]] = T[i][-1]
    val = float(-T[-1][-1])
    return LPResult("optimal", x[:n] - x[n:2 * n], -val if maximize else val)


def feasible_point(A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """A point satisfying the system, or None."""
    n = None
    if A_ub is not None and len(np.atleast_2d(A_ub)):
        n = np.atleast_2d(A_ub).shape[1]
    if n is None and A_eq is not None and len(np.atleast_2d(A_eq)):
        n = np.atleast_2d(A_eq).shape[1]
    if n is None:
        return np.zeros(0)
    res = solve_lp(np.zeros(n), A_ub, b_ub, A_eq, b_eq)
    return res.x if res.optimal else None
