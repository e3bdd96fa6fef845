"""Dense two-phase simplex: agreement with vertex enumeration, edge cases."""

import itertools

import numpy as np
import pytest

from okacert.lp import LPResult, feasible_point, solve_lp


def _brute_force_lp(c, A, b, maximize=False):
    """Optimal value over the vertices of {A x <= b} (bounded polytopes only).

    Enumerates all square subsystems, keeps feasible intersection points, and
    optimizes over them; valid because a bounded feasible LP attains its
    optimum at a vertex.
    """
    m, n = A.shape
    best = None
    for rows in itertools.combinations(range(m), n):
        sub = A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, b[list(rows)])
        if np.all(A @ x <= b + 1e-9):
            v = float(c @ x)
            if best is None or (v > best if maximize else v < best):
                best = v
    return best


def test_simplex_matches_vertex_enumeration():
    rng = np.random.default_rng(201)
    solved = 0
    for _ in range(120):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(n + 1, n + 5))
        A = rng.normal(size=(m, n))
        # bounding box keeps the polytope compact
        A = np.vstack([A, np.eye(n), -np.eye(n)])
        b = np.concatenate([rng.uniform(0.2, 2.0, size=m), np.full(2 * n, 5.0)])
        c = rng.normal(size=n)
        res = solve_lp(c, A_ub=A, b_ub=b)
        ref = _brute_force_lp(c, A, b)
        assert res.optimal and ref is not None
        assert abs(res.value - ref) < 1e-7 * (1.0 + abs(ref))
        assert np.all(A @ res.x <= b + 1e-7)
        solved += 1
    assert solved == 120


def test_simplex_maximize_flag():
    A = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b = np.array([1.0, 0.0, 0.0])
    res = solve_lp(np.array([1.0, 2.0]), A_ub=A, b_ub=b, maximize=True)
    assert res.optimal
    assert abs(res.value - 2.0) < 1e-9
    assert np.allclose(res.x, [0.0, 1.0], atol=1e-9)


def test_simplex_counts_objective_components_below_the_pivot_tolerance():
    """Reduced costs scale with c, so a component of 1e-10 still moves the
    optimum: max over the box [-1, 2] x [-3, 3] of (1, 1e-10) and (0, 1e-10)."""
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.array([2.0, 3.0, 1.0, 3.0])
    for c, want in (([1.0, 1e-10], 2.0 + 3e-10), ([0.0, 1e-10], 3e-10)):
        res = solve_lp(np.array(c), A_ub=A, b_ub=b, maximize=True)
        assert res.optimal
        assert res.value == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert res.x[1] == pytest.approx(3.0, abs=1e-12)


def test_simplex_unbounded():
    # min -x subject to x >= 0 (free to grow)
    res = solve_lp(np.array([-1.0]), A_ub=np.array([[-1.0]]), b_ub=np.array([0.0]))
    assert res.status == "unbounded"
    assert res.x is None


def test_simplex_infeasible():
    A = np.array([[1.0], [-1.0]])
    b = np.array([-1.0, -1.0])  # x <= -1 and x >= 1
    res = solve_lp(np.zeros(1), A_ub=A, b_ub=b)
    assert res.status == "infeasible"


def test_simplex_equality_constraints():
    # min x + y with x + y = 2, x, y >= 0
    res = solve_lp(
        np.array([1.0, 1.0]),
        A_ub=-np.eye(2), b_ub=np.zeros(2),
        A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([2.0]),
    )
    assert res.optimal
    assert abs(res.value - 2.0) < 1e-9


def test_free_variables_both_signs():
    rng = np.random.default_rng(202)
    for _ in range(30):
        target = rng.normal(size=2) * 3
        # min c.x over the box [target - 1, target + 1]; optimum at a corner
        A = np.vstack([np.eye(2), -np.eye(2)])
        b = np.concatenate([target + 1.0, -(target - 1.0)])
        c = rng.normal(size=2)
        res = solve_lp(c, A_ub=A, b_ub=b)
        corner = target - np.sign(c)
        corner[c == 0] = target[c == 0] - 1.0
        assert res.optimal
        assert abs(res.value - c @ corner) < 1e-8


def test_feasible_point():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([2.0, -1.0, 2.0, -1.0])  # box [1, 2]^2
    x = feasible_point(A_ub=A, b_ub=b)
    assert x is not None and np.all(A @ x <= b + 1e-9)
    none = feasible_point(A_ub=np.array([[1.0], [-1.0]]), b_ub=np.array([-1.0, -1.0]))
    assert none is None


def _seeded_lp(rng, kind):
    """A random LP with 2-8 free variables whose status follows from ``kind``.

    "bounded" adds the box |x_i| <= 10, "infeasible" adds a pair of rows
    a x <= beta, a x >= beta + 1, "free" adds neither (optimal or unbounded).
    Half the LPs also get one consistent equality row.
    """
    n = int(rng.integers(2, 9))
    x0 = rng.normal(size=n)
    A = rng.normal(size=(int(rng.integers(1, 2 * n + 3)), n))
    b = A @ x0 + rng.uniform(0.0, 1.0, size=A.shape[0])
    if kind == "bounded":
        A = np.vstack([A, np.eye(n), -np.eye(n)])
        b = np.concatenate([b, np.full(2 * n, 10.0)])
    elif kind == "infeasible":
        a = rng.normal(size=n)
        beta = float(rng.normal())
        A = np.vstack([A, a, -a])
        b = np.concatenate([b, [beta, -beta - 1.0]])
    A_eq = b_eq = None
    if rng.uniform() < 0.5:
        A_eq = rng.normal(size=(1, n))
        b_eq = A_eq @ x0
    return rng.normal(size=n), A, b, A_eq, b_eq


def test_simplex_matches_highs_on_seeded_lps():
    """Status and optimal value agree with SciPy's HiGHS on 500 seeded LPs."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(205)
    status_of = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    seen = set()
    for i in range(500):
        c, A, b, A_eq, b_eq = _seeded_lp(rng, ("bounded", "free", "infeasible")[i % 3])
        res = solve_lp(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq)
        ref = linprog(c, A_ub=A, b_ub=b, A_eq=A_eq, b_eq=b_eq,
                      bounds=(None, None), method="highs")
        assert res.status == status_of[ref.status], i
        seen.add(res.status)
        if res.optimal:
            assert abs(res.value - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun)), i
    assert seen == {"optimal", "infeasible", "unbounded"}
