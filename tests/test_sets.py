"""Convex set variants: membership, support, projection, recession, slices."""

import itertools
import types

import numpy as np
import pytest

import okacert.functions
import okacert.sets
from okacert.errors import LPNumericalFailure, PointInsideSet
from okacert.functions import NormCombo, Quadratic
from okacert.gallery import build_example
from okacert.geometry import AffineSubspaceR, mgs
from okacert.lp import LPResult, solve_lp
from okacert.stability import halfline_in_intersection
from okacert.sets import (
    Dilation,
    Epigraph,
    HPolyhedron,
    QuadricBall,
    RecessionCone,
    SiegelClosure,
    Tube,
    _project,
    normcombo_cone_set,
)


def _box(lo, hi):
    m = len(lo)
    A = np.vstack([np.eye(m), -np.eye(m)])
    b = np.concatenate([hi, -np.asarray(lo, float)])
    return HPolyhedron(A, b)


def _cut_polytope(cuts, b):
    """The box rows of R^4, then four unit cuts: a bounded, line-free polytope."""
    return HPolyhedron(np.vstack([np.eye(4), -np.eye(4), cuts]), b)


# The seeded cut polytopes of seeds 1 and 2 of the benchmark's
# certify-polyhedral workload, to six decimals.
_BENCH_CUT_POLYTOPES = [
    ([[-0.451956, -0.844327, 0.042724, 0.284644], [-0.781108, 0.107384, -0.374952, -0.487597],
      [0.60712, -0.551225, 0.560799, -0.114285], [0.330189, -0.279401, 0.752065, 0.497302]],
     [0.952978, 1.456337, 1.167077, 1.277376, 1.423815, 0.98562, 0.939941, 0.587335,
      0.59703, 0.820092, 0.858243, 0.524802]),
    ([[0.378935, -0.455729, 0.507603, -0.625347], [0.364138, 0.262578, -0.697615, -0.558381],
      [-0.810201, -0.412578, -0.197165, -0.366715], [-0.131533, -0.141335, 0.887471, 0.418471]],
     [1.461007, 0.927794, 1.218814, 0.924852, 1.455768, 0.862801, 0.905757, 1.014077,
      0.741374, 0.991222, 0.517553, 0.898078]),
]

# The benchmark's two six-facet pointed cones {x : A x <= b}
# (tests/test_stability.py::_POINTED_CONES).
_BENCH_POINTED_CONES = [
    ([[0.832695, 0.342572, -0.221863, -0.374219], [0.683274, 0.711058, -0.161042, -0.039976],
      [0.651092, 0.546447, -0.463249, -0.25075], [0.324265, 0.243151, -0.856319, -0.320075],
      [-0.043702, 0.810131, -0.584399, 0.015959], [0.449397, 0.516027, -0.394933, -0.613013]],
     [0.120099, -0.170765, -0.028719, 0.090641, -0.363966, 0.012728]),
    ([[-0.090907, -0.342462, -0.417537, 0.836731], [-0.571289, -0.66526, -0.480632, 0.007169],
      [-0.896531, -0.333342, -0.284719, -0.063638], [-0.771608, -0.283265, -0.465418, -0.328282],
      [-0.808915, -0.497233, -0.227199, -0.216322], [-0.342654, -0.043952, -0.839544, 0.419312]],
     [0.04859, 0.169458, -0.462783, -0.290798, -0.182432, -0.297704]),
]


# ---------------------------------------------------------------------------
# support functions
# ---------------------------------------------------------------------------

def test_support_dominates_samples():
    """sup over sampled members never exceeds the reported support value,
    and the attainer is a member achieving it."""
    rng = np.random.default_rng(301)
    sets = [
        _box([-1, -2], [3, 1]),
        QuadricBall(np.array([1.0, -1.0, 0.0]), 2.0),
        SiegelClosure(2),
        normcombo_cone_set(2, [1.0], [1.0], 1.0),
    ]
    for E in sets:
        pts = E.sample_boundary(rng, 40, window=8.0)
        for _ in range(25):
            c = rng.normal(size=E.m)
            c /= np.linalg.norm(c)
            res = E.support(c)
            if res.finite:
                assert E.contains(res.point, tol=1e-6)
                hi = res.value + 1e-7 * (1.0 + abs(res.value))
                assert float(c @ res.point) >= res.value - 1e-7 * (1.0 + abs(res.value))
                for p in pts:
                    assert float(c @ p) <= hi
            else:
                # unbounded direction: c pairs positively with some recession
                # ray, so (Moreau) its projection onto the cone is nonzero
                assert _cone_projection_length(E.recession_cone(), c) > 1e-9


def _cone_projection_length(cone, c):
    """|P_K(c)| for the recession cone K, projecting inside ker(eq)."""
    sub = cone.subspace_rows()
    G = cone.ineq @ sub.T
    return float(np.linalg.norm(_project(G, np.zeros(G.shape[0]), sub @ c)))


def test_support_halfspace_directions():
    E = HPolyhedron(np.array([[0.0, 1.0]]), np.array([0.0]))  # {y <= 0}
    up = E.support(np.array([0.0, 1.0]))
    assert up.finite and abs(up.value) < 1e-12
    side = E.support(np.array([1.0, 0.0]))
    assert not side.finite


def _support_cases(rng, m, zero=(), graph=None):
    """Covector rows reaching every support branch: random rows, rows vanishing
    on the ``zero`` coordinates with a negative ``graph`` coordinate, rows
    vanishing except at ``graph``, and the zero row."""
    C = rng.normal(size=(24, m))
    B = rng.normal(size=(24, m))
    B[:, list(zero)] = 0.0
    V = np.zeros((2, m))
    if graph is not None:
        B[:, graph] = -np.abs(B[:, graph])
        V[0, graph] = -1.0
    return np.vstack([C, B, V])


def test_support_values_match_support():
    rng = np.random.default_rng(309)
    siegel2 = SiegelClosure(2)
    cases = [
        (QuadricBall(np.array([1.0, -1.0, 0.5, 0.0]), 2.0), (), None),
        (siegel2, (2,), 3),
        (SiegelClosure(3), (4,), 5),
        (Tube(QuadricBall(np.array([0.2, -0.1, 0.3]), 0.8), [1, 2, 3], [0]), (0,), None),
        (Dilation(siegel2, 2.5, center=np.array([0.3, -0.4, 0.1, 1.0])), (2,), 3),
        (_box([-1, -2, -1, 0], [1, 1, 2, 3]), (), None),
        (HPolyhedron(np.array([[0.0, 0.0, 0.0, -1.0]]), np.array([0.0])), (0, 1, 2), 3),
        (normcombo_cone_set(2, [1.0], [1.0], 1.0), (), 3),
    ]
    for E, zero, graph in cases:
        C = _support_cases(rng, E.m, zero, graph)
        got = np.array(list(E.support_values(C)), dtype=float)
        want = np.array([E.support(c).value for c in C])
        assert got.shape == want.shape
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert np.isfinite(want).any()
        fin = np.isfinite(want)
        np.testing.assert_allclose(got[fin], want[fin], rtol=1e-12)


def _cut_box(rng, m=4, cuts=4):
    """A bounded polytope: a box with random offsets cut by random halfspaces."""
    A = np.vstack([np.eye(m), -np.eye(m), rng.normal(size=(cuts, m))])
    b = np.concatenate([rng.uniform(0.5, 1.5, size=2 * m), rng.uniform(0.3, 1.0, size=cuts)])
    return HPolyhedron(A, b)


def _pointed_cone(seed):
    """{x : A x <= A x0} with six unit rows flipped so that A d <= 0 for one d."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(6, 4))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    d = rng.normal(size=4)
    A[A @ d > 0] *= -1.0
    return HPolyhedron(A, A @ rng.normal(size=4))


def test_polytope_support_values_use_vertices():
    """Bounded polyhedra answer support_values from their vertices, with the
    LP support values to rtol 1e-9."""
    rng = np.random.default_rng(311)
    simplex = HPolyhedron(np.vstack([-np.eye(4), np.ones((1, 4))]), np.r_[np.zeros(4), 1.0])
    flat = HPolyhedron(np.vstack([np.eye(4), -np.eye(4)]), np.r_[0.0, np.ones(3), 0.0, np.ones(3)])
    cube = _box([-1, -1, -1, -1], [1, 1, 1, 1])
    doubled = HPolyhedron(np.vstack([cube.A, cube.A[:3]]), np.r_[cube.b, cube.b[:3]])
    polytopes = [cube, simplex, flat, doubled] + [_cut_box(rng) for _ in range(4)]
    assert flat.is_degenerate
    for E in polytopes:
        C = rng.normal(size=(40, E.m))
        got = E.support_values(C)
        assert isinstance(got, np.ndarray)
        want = np.array([E.support(c).value for c in C])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def test_polyhedra_with_lineality_or_many_subsystems_keep_lazy_support():
    rng = np.random.default_rng(312)
    big = _cut_box(rng, cuts=12)  # C(20, 4) = 4845 subsystems
    for E in (build_example("halfspace"), build_example("r2-in-c2"), big):
        C = rng.normal(size=(6, E.m))
        got = E.support_values(C)
        assert isinstance(got, types.GeneratorType)
        want = [E.support(c).value for c in C]
        assert np.allclose(list(got), want, rtol=1e-12)
        assert E.recession_cone().generators[1].shape[0] or E is big


def test_pointed_polyhedra_support_values_match_lp():
    """Pointed unbounded polyhedra answer support_values from vertices and
    extreme rays: on 40 seeded six-facet cones, 200 rows each (random rows,
    and nonnegative row combinations, which are bounded), the +inf rows and
    the finite values are the LP's."""
    rng = np.random.default_rng(315)
    unbounded = 0
    for seed in range(40):
        E = _pointed_cone(seed)
        assert E.recession_cone().generators[0].shape[0] >= 1
        C = np.vstack([rng.normal(size=(100, E.m)), rng.exponential(size=(100, 6)) @ E.A])
        got = E.support_values(C)
        assert isinstance(got, np.ndarray)
        want = np.array([E.support(c).value for c in C])
        assert np.array_equal(np.isinf(got), np.isinf(want))
        fin = np.isfinite(want)
        np.testing.assert_allclose(got[fin], want[fin], rtol=1e-9, atol=1e-12)
        unbounded += int(np.sum(~fin))
    assert 2000 <= unbounded <= 6000


def _generator_sets():
    """Every gallery set, both benchmark pointed cones and the cube, with
    (rays, dim L) counts of their recession cones' generators."""
    counts = {"siegel2": (1, 1), "siegel3": (1, 1), "disc-tube-prop49": (0, 1),
              "cone-ex14": (6, 0), "halfspace": (1, 3), "r2-in-c2": (0, 2),
              "ball": (0, 0), "tube-ex45": (0, 0)}
    out = [(name, build_example(name), want) for name, want in counts.items()]
    out += [(f"pointed-cone-{k}", HPolyhedron(A, b), ((6, 0), (8, 0))[k])
            for k, (A, b) in enumerate(_BENCH_POINTED_CONES)]
    return out + [("cube", _box([-1] * 4, [1] * 4), (0, 0))]


def test_generators_are_listed_once():
    """Each cone has its known number of extreme rays and lineality
    dimension; its rays are unit cone members orthogonal to L, and none is
    listed twice (no two within 1 - 1e-9, nor on seeded pointed cones)."""
    for name, E, want in _generator_sets():
        cone = E.recession_cone()
        R, L = cone.generators
        assert (R.shape[0], L.shape[0]) == want, name
        np.testing.assert_allclose(np.linalg.norm(R, axis=1), 1.0, rtol=1e-12)
        assert all(cone.member(r) for r in R), name
        assert np.abs(R @ L.T).max(initial=0.0) < 1e-12, name
        for R in [R] + [_pointed_cone(seed).recession_cone().generators[0] for seed in range(10)]:
            assert np.all(np.triu(R @ R.T, 1) < 1 - 1e-9)


def test_generators_generate_the_cone():
    """Every ``sample_members`` draw is a nonnegative combination of the rays
    plus a vector of span(L), to a SciPy NNLS residual below 1e-9."""
    from scipy.optimize import nnls
    rng = np.random.default_rng(316)
    cones = [E.recession_cone() for _, E, _ in _generator_sets()]
    cones += [_pointed_cone(seed).recession_cone() for seed in range(10)]
    drawn = 0
    for cone in cones:
        R, L = cone.generators
        G = np.vstack([R, L, -L]).T  # L's coefficients free, as two nonnegative parts
        for v in cone.sample_members(rng, 5):
            assert nnls(G, v)[1] < 1e-9
            drawn += 1
    assert drawn >= 5 * 17


def _old_extreme_rays(cone):
    """The deleted ``RecessionCone.extreme_rays``, on an equality-free pointed cone."""
    k, m = cone.ineq.shape
    U = cone.ineq / np.linalg.norm(cone.ineq, axis=1, keepdims=True)
    idx = np.array(list(itertools.combinations(range(k), m - 1)), dtype=int)
    _, s, vh = np.linalg.svd(U[idx])
    d = vh[np.all(s > 1e-10, axis=1), -1]
    P = U @ d.T
    R = np.vstack([d[np.all(P <= 1e-9, axis=0)], -d[np.all(P >= -1e-9, axis=0)]])
    return R[~np.triu(R @ R.T > 1 - 1e-12, 1).any(axis=0)]


def test_generators_of_pointed_cones_are_the_old_extreme_rays():
    """On equality-free pointed cones the enumeration runs in the identity
    basis, so support values and vertices read the old rays bit for bit."""
    sets = [build_example("cone-ex14"), _box([-1] * 4, [1] * 4)]
    sets += [HPolyhedron(A, b) for A, b in _BENCH_POINTED_CONES]
    sets += [_pointed_cone(seed) for seed in range(10)]
    for E in sets:
        cone = E.recession_cone()
        assert not cone.eq.shape[0] and not cone.generators[1].shape[0]
        R, want = cone.generators[0], _old_extreme_rays(cone)
        assert R.shape == want.shape and R.tobytes() == want.tobytes()


def _normcombo_epigraph(rng, k, terms):
    vecs = rng.normal(size=(terms, k))
    phi = NormCombo(rng.uniform(0.2, 2.0, size=terms), vecs / np.linalg.norm(vecs, axis=1)[:, None])
    return Epigraph(phi, k + 1, graph_index=k, base_indices=list(range(k)))


def test_normcombo_support_values_match_zonotope_lp():
    """Zonotope facets decide NormCombo support values: 0 where cb / -cg lies
    in the zonotope, +inf elsewhere, as ``conjugate_attain``'s LP says, on
    seeded non-axis functionals."""
    rng = np.random.default_rng(317)
    inside = outside = 0
    for k, terms in [(1, 2), (2, 2), (2, 4), (3, 3), (3, 5), (4, 6)] * 2:
        E = _normcombo_epigraph(rng, k, terms)
        Y = rng.normal(size=(300, k)) * rng.uniform(0.1, 3.0, size=(300, 1))
        C = np.hstack([Y, -np.ones((300, 1))]) * rng.uniform(0.5, 2.0, size=(300, 1))
        C = np.vstack([C, _support_cases(rng, E.m, graph=k)])
        got = E.support_values(C)
        assert isinstance(got, np.ndarray)
        want = np.array([E.support(c).value for c in C])
        np.testing.assert_array_equal(got, want)
        inside += int(np.sum(want == 0.0))
        outside += int(np.sum(np.isinf(want)))
    assert inside >= 500 and outside >= 500


def test_normcombo_without_facet_form_keeps_lazy_support():
    """Functionals that do not span R^k, and free coordinates, keep the LP."""
    rng = np.random.default_rng(318)
    flat = NormCombo([1.0, 2.0, 0.5], [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    full = NormCombo([1.0, 1.0], [[1.0, 0.5], [-0.3, 1.0]])
    cases = [Epigraph(flat, 4, graph_index=3, base_indices=[0, 1, 2]),
             Epigraph(full, 4, graph_index=3, base_indices=[0, 1], free_indices=[2])]
    assert flat.zonotope_facets is None
    for E in cases:
        C = _support_cases(rng, E.m, graph=3)
        got = E.support_values(C)
        assert isinstance(got, types.GeneratorType)
        assert list(got) == [E.support(c).value for c in C]


def test_closed_form_support_values_need_no_lp(monkeypatch):
    """support_values on the pointed cones and on cone-ex14 solves no LP."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    sets = [_pointed_cone(3), _pointed_cone(4), build_example("cone-ex14")]
    monkeypatch.setattr(okacert.sets, "solve_lp", counted)
    monkeypatch.setattr(okacert.functions, "solve_lp", counted)
    rng = np.random.default_rng(319)
    for E in sets:
        assert isinstance(E.support_values(rng.normal(size=(50, E.m))), np.ndarray)
    assert not calls


@pytest.mark.parametrize("name", ["halfspace", "r2-in-c2"])
def test_support_values_with_lineality_solve_lps_only_orthogonal_to_it(monkeypatch, name):
    """A row that does not vanish on the lineality space L is +inf with no
    LP; a row orthogonal to L takes the lazy LP and equals ``support``, in
    the order the rows come."""
    E = build_example(name)
    L = E.lineality()
    rng = np.random.default_rng(323)
    C = rng.normal(size=(40, 4))
    C[1::2] -= (C[1::2] @ L.T) @ L  # every second row orthogonal to L
    want = [E.support(c).value for c in C]
    calls = []
    monkeypatch.setattr(okacert.sets, "solve_lp",
                        lambda *a, **k: calls.append(1) or solve_lp(*a, **k))
    assert np.all(np.isinf(list(E.support_values(C[::2])))) and not calls
    np.testing.assert_array_equal(list(E.support_values(C)), want)
    assert len(calls) == 20
    assert np.isfinite(want[1::2]).any() and np.isinf(want[::2]).all()


def test_infeasible_support_lp_is_a_numerical_failure(monkeypatch):
    """The constructor proved the polyhedron nonempty, so an infeasible
    support LP is a solver failure, not an unbounded direction."""
    E = build_example("halfspace")
    monkeypatch.setattr(okacert.sets, "solve_lp", lambda *a, **k: LPResult("infeasible", None, None))
    with pytest.raises(LPNumericalFailure):
        E.support(np.array([0.0, 0.0, 0.0, 1.0]))


def test_is_zero_marks_bounded_sets():
    rng = np.random.default_rng(313)
    for E in (QuadricBall(np.zeros(4), 1.0), _box([-1] * 4, [1] * 4), _cut_box(rng)):
        assert E.recession_cone().is_zero
    unbounded = [_pointed_cone(3), _pointed_cone(4), build_example("halfspace"),
                 build_example("r2-in-c2"), build_example("cone-ex14")]
    for E in unbounded:
        assert not E.recession_cone().is_zero


def test_sample_members_of_zero_cone_draw_nothing():
    rng = np.random.default_rng(314)
    for E in (QuadricBall(np.ones(4), 2.0), _box([-1] * 4, [1] * 4), _cut_box(rng)):
        cone = E.recession_cone()
        for count in (1, 8, 64):
            draws = np.random.default_rng(count)
            state = draws.bit_generator.state
            assert cone.sample_members(draws, count).shape == (0, E.m)
            assert draws.bit_generator.state == state


# ---------------------------------------------------------------------------
# nearest boundary
# ---------------------------------------------------------------------------

def test_nearest_boundary_ball_exact():
    E = QuadricBall(np.array([1.0, 2.0]), 3.0)
    q = np.array([1.0, 10.0])
    p = E.nearest_boundary(q)
    assert np.allclose(p, [1.0, 5.0], atol=1e-10)
    with pytest.raises(PointInsideSet):
        E.nearest_boundary(np.array([1.0, 2.5]))


def test_nearest_boundary_optimality():
    """Projection beats random boundary points by the distance criterion."""
    rng = np.random.default_rng(302)
    sets = [
        _box([-1, -1, -1], [1, 1, 1]),
        _cut_polytope(*_BENCH_CUT_POLYTOPES[0]),
        QuadricBall(np.zeros(3), 1.5),
        SiegelClosure(2),
        normcombo_cone_set(2, [1.0], [1.0], 1.0),
    ]
    for E in sets:
        bd = E.sample_boundary(rng, 60, window=6.0)
        ext = E.sample_exterior(rng, 12, window=6.0)
        for q in ext:
            p = E.nearest_boundary(q)
            assert E.contains(p, tol=1e-6)
            d = np.linalg.norm(q - p)
            for x in bd:
                assert d <= np.linalg.norm(q - x) + 1e-6


def _projection_by_active_subsets(E, q):
    """The nearest point of {A x <= b} to q by brute force: q projected onto
    {A_S x = b_S} for every set S of at most m linearly independent rows,
    keeping the nearest feasible one (the rows active at the projection with
    positive multipliers are such a set)."""
    cands = []
    for s in range(1, min(E.A.shape) + 1):
        idx = np.array(list(itertools.combinations(range(E.A.shape[0]), s)))
        N = E.A[idx]
        G = N @ N.transpose(0, 2, 1)
        ok = np.linalg.det(G) > 1e-10  # dependent rows, such as a pair +-a, have det G = 0
        lam = np.linalg.solve(G[ok], (N[ok] @ q - E.b[idx[ok]])[..., None])
        cands.append(q - np.sum(lam * N[ok], axis=1))
    X = np.vstack(cands)
    X = X[E.contains(X, tol=1e-9)]
    return X[np.argmin(np.linalg.norm(X - q, axis=1))]


def _assert_exact_projection(E, q, p):
    """KKT certificate of p = argmin |x - q| over {A x <= b}, and agreement
    with the brute-force projection."""
    nnls = pytest.importorskip("scipy.optimize").nnls
    scale = 1.0 + np.linalg.norm(E.b)
    slack = E.A @ p - E.b
    assert np.max(slack) <= 1e-12 * scale
    _, resid = nnls(E.A[slack >= -1e-9 * scale].T, q - p)
    assert resid <= 1e-10
    np.testing.assert_allclose(p, _projection_by_active_subsets(E, q), rtol=0, atol=1e-9)


def test_polyhedral_projection_is_exact():
    """nearest_boundary on polyhedra is the exact nearest point: feasible to
    1e-12 (1 + |b|), q - p a nonnegative combination of the active rows, and
    equal to a brute-force scan of active sets.  The cases are seeded cut
    polytopes, the benchmark's pointed cones with points whose nearest point
    is the apex (six active rows in R^4), the paired rows +-e of r2-in-c2, a
    cube corner (four active rows), a halfspace, and a seed-2 point on which
    Dykstra's alternating projections stop 0.34 outside the polytope.  The
    result is the same on a second call, and a point of the set, such as the
    result, raises PointInsideSet."""
    rng = np.random.default_rng(320)
    seeded = []
    for _ in range(6):
        cuts = rng.normal(size=(4, 4))
        seeded.append((cuts / np.linalg.norm(cuts, axis=1, keepdims=True),
                       np.r_[rng.uniform(0.5, 1.5, 8), rng.uniform(0.3, 1.0, 4)]))
    cube = _box(-np.ones(4), np.ones(4))
    cases = [(_cut_polytope(*data), rng.uniform(-10.0, 10.0, size=(25, 4)))
             for data in _BENCH_CUT_POLYTOPES + seeded]
    for A, b in _BENCH_POINTED_CONES:
        E = HPolyhedron(A, b)
        apex = np.linalg.lstsq(E.A, E.b, rcond=None)[0]
        to_apex = apex + rng.uniform(0.1, 2.0, size=(15, 6)) @ E.A
        cases.append((E, np.vstack([to_apex, rng.uniform(-5.0, 5.0, size=(25, 4))])))
        assert np.allclose(E.nearest_boundary(to_apex[0]), apex, atol=1e-12)
    cases += [
        (build_example("r2-in-c2"), rng.uniform(-5.0, 5.0, size=(25, 4))),
        (cube, np.vstack([np.full(4, 2.0), rng.uniform(-5.0, 5.0, size=(25, 4))])),
        (HPolyhedron(np.array([[0.0, 0.0, 0.0, -1.0]]), np.array([0.0])),
         rng.uniform(-5.0, 5.0, size=(10, 4))),
        (_cut_polytope(*_BENCH_CUT_POLYTOPES[1]),
         np.array([[-9.414621761582062, 7.485242978107664,
                    -7.919276315637962, -6.222814174613076]])),
    ]
    assert np.array_equal(cube.nearest_boundary(np.full(4, 2.0)), np.ones(4))
    for E, Q in cases:
        for q in Q:
            if E.contains(q):
                with pytest.raises(PointInsideSet):
                    E.nearest_boundary(q)
                continue
            p = E.nearest_boundary(q)
            _assert_exact_projection(E, q, p)
            assert np.array_equal(E.nearest_boundary(q), p)
            with pytest.raises(PointInsideSet):
                E.nearest_boundary(p)


def _assert_moreau_projection(E, q, p, rng):
    """p is the nearest point of the cone E = {U x <= 0} (unit rows U) to q:
    p in E to 1e-12, q - p a nonnegative combination of the rows active at
    p, p . (q - p) = 0 (Moreau), free coordinates unchanged, and no feasible
    probe near p is nearer to q."""
    nnls = pytest.importorskip("scipy.optimize").nnls
    A = E.recession_cone().ineq
    U = A / np.linalg.norm(A, axis=1, keepdims=True)
    scale = 1.0 + np.linalg.norm(q)
    slack = U @ p
    assert np.max(slack) <= 1e-12
    _, resid = nnls(U[slack >= -1e-9 * scale].T, q - p)
    assert resid <= 1e-10 * scale
    assert abs(p @ (q - p)) <= 1e-10 * scale * scale
    assert np.array_equal(p[E.fi], q[E.fi])
    X = np.repeat(p[None, :], 200, axis=0)
    X[:, E.bi] += rng.normal(size=(200, E.bi.shape[0])) * 1e-3
    X[:, E.gi] = np.maximum(E.phi.value(X[:, E.bi]), q[E.gi])
    assert np.linalg.norm(q - p) <= np.min(np.linalg.norm(q - X, axis=1)) + 1e-9


def test_normcombo_projection_beats_local_probes():
    """NormCombo epigraphs with up to 12 terms and one free coordinate, and
    the 9-term normcombo set of C^5, project exactly onto their cone."""
    rng = np.random.default_rng(303)
    for _ in range(40):
        T = int(rng.integers(1, 13))
        k = int(rng.integers(1, 4))
        phi = NormCombo(rng.uniform(0.2, 2.0, size=T), rng.normal(size=(T, k)))
        E = Epigraph(phi, k + 2, graph_index=k, base_indices=list(range(k)),
                     free_indices=[k + 1])
        q = np.concatenate([rng.normal(size=k) * 2, [0.0], rng.normal(size=1)])
        q[k] = phi.value(q[:k]) - rng.uniform(0.5, 2.0)
        _assert_moreau_projection(E, q, E.nearest_boundary(q), rng)
    E = normcombo_cone_set(5, [1.0] * 4, [1.0] * 4, 1.0)
    for q in E.sample_exterior(rng, 200, window=5.0):
        _assert_moreau_projection(E, q, E.nearest_boundary(q), rng)


def _seeded_quadratic_epigraph(rng):
    """phi = u.Q u + l.u + c on three base coordinates, Q = B B^T of rank 2
    (singular PSD), l and c nonzero, and one free coordinate, with the
    five ambient axes shuffled among base, graph and free."""
    B = rng.normal(size=(3, 2))
    axes = rng.permutation(5)
    return Epigraph(Quadratic(B @ B.T, rng.normal(size=3), rng.uniform(-2.0, 2.0)), 5,
                    graph_index=axes[3], base_indices=axes[:3], free_indices=axes[4:])


def test_quadratic_epigraph_projection_is_exact():
    """nearest_boundary on quadratic epigraphs (Siegel sets, a dilated Siegel
    set, seeded singular Q) solves the KKT system: p on the graph to
    1e-12 (1 + |q|), q - p = mu (grad phi(p_u), -1) with mu > 0 to the same
    tolerance, and the free coordinates unchanged."""
    rng = np.random.default_rng(305)
    siegel2 = SiegelClosure(2)
    cases = [siegel2, SiegelClosure(3),
             Dilation(siegel2, 2.2, center=np.array([0.3, -0.4, 0.5, 0.9]))]
    cases += [_seeded_quadratic_epigraph(rng) for _ in range(3)]
    for E in cases:
        base = getattr(E, "base", E)
        X = E.sample_exterior(rng, 100, window=10.0)
        assert X.shape[0] == 100
        for q in X:
            p = E.nearest_boundary(q)
            tol = 1e-12 * (1.0 + np.linalg.norm(q))
            assert abs(E._violation(p)) <= tol
            g = E.boundary_gradient(p)
            mu = (q - p) @ g / (g @ g)
            assert mu > 0
            assert np.linalg.norm(q - p - mu * g) <= tol
            if E is base:
                assert np.array_equal(p[E.fi], q[E.fi])
            else:
                np.testing.assert_allclose(p[base.fi], q[base.fi], rtol=0, atol=tol)


# ---------------------------------------------------------------------------
# recession cones and lineality
# ---------------------------------------------------------------------------

def test_recession_cones():
    rng = np.random.default_rng(304)
    ball = QuadricBall(np.zeros(4), 2.0)
    assert ball.recession_cone().sample_members(rng, 8).shape[0] == 0

    half = HPolyhedron(np.array([[0.0, 1.0]]), np.array([0.0]))
    assert half.recession_member(np.array([0.0, -1.0]))
    assert half.recession_member(np.array([1.0, 0.0]))
    assert not half.recession_member(np.array([0.0, 1.0]))
    L = half.lineality()
    assert L.shape == (1, 2)
    assert abs(L[0, 1]) < 1e-9  # lineality is the x-axis

    sieg = SiegelClosure(2)
    # vertical direction (increasing Im z_2) recedes; its negative does not
    up = np.array([0.0, 0.0, 0.0, 1.0])
    assert sieg.recession_member(up)
    assert not sieg.recession_member(-up)
    # the closure contains the real line along Re z_2 and nothing more
    L = sieg.lineality()
    assert L.shape[0] == 1
    assert np.allclose(np.abs(L[0]), [0.0, 0.0, 1.0, 0.0], atol=1e-9)


def _seeded_cones(seed, m=5):
    """(name, cone, W) on seeded data: W is orthonormal and holds a polar
    direction (a positive combination of the rows) among random ones."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=m)
    pointed = rng.normal(size=(7, m))
    pointed[pointed @ d > 0] *= -1.0
    eq = rng.normal(size=(2, m))
    cones = [("pointed", RecessionCone(m, ineq=pointed)),
             ("lineality", RecessionCone(m, ineq=rng.normal(size=(3, m)))),
             ("mixed", RecessionCone(m, eq=eq[:1], ineq=rng.normal(size=(2, m)))),
             ("zero", RecessionCone(m, ineq=np.vstack([np.eye(m), -np.ones((1, m))]))),
             ("ball", RecessionCone(m, eq=np.eye(m))),
             ("eq-only", RecessionCone(m, eq=eq))]
    out = []
    for name, cone in cones:
        rows = np.vstack([cone.eq, cone.ineq])
        weights = rng.uniform(0.5, 1.0, size=rows.shape[0])
        weights[:cone.eq.shape[0]] = rng.normal(size=cone.eq.shape[0])
        W = mgs(np.vstack([weights @ rows, rng.normal(size=(2, m))]))
        out.append((name, cone, W))
    return out


@pytest.mark.parametrize("seed", [401, 402, 403])
def test_polar_direction_in_is_a_unit_polar_direction_in_span(seed):
    linprog = pytest.importorskip("scipy.optimize").linprog
    for name, cone, W in _seeded_cones(seed):
        eta = cone.polar_direction_in(W)
        assert eta is not None, name
        assert abs(np.linalg.norm(eta) - 1.0) < 1e-12, name
        assert np.linalg.norm(eta - (eta @ W.T) @ W) < 1e-9, name
        L = cone.lineality_rows()
        assert not L.shape[0] or np.max(np.abs(L @ eta)) < 1e-9, name
        res = linprog(-eta, A_ub=cone.ineq if cone.ineq.shape[0] else None,
                      b_ub=np.zeros(cone.ineq.shape[0]) if cone.ineq.shape[0] else None,
                      A_eq=cone.eq if cone.eq.shape[0] else None,
                      b_eq=np.zeros(cone.eq.shape[0]) if cone.eq.shape[0] else None,
                      bounds=(-1.0, 1.0), method="highs")
        assert res.status == 0 and -res.fun <= 1e-7, name


def test_polar_direction_in_is_none_without_one():
    """The polar of {v_3 <= 0} is the ray e_3, which misses span(e_0, e_1),
    and the whole space has no polar direction at all."""
    half = RecessionCone(4, ineq=np.array([[0.0, 0.0, 0.0, 1.0]]))
    assert half.polar_direction_in(np.eye(4)[:2]) is None
    assert RecessionCone(4).polar_direction_in(np.eye(4)) is None
    eta = half.polar_direction_in(np.eye(4)[2:])
    assert np.allclose(eta, [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_polar_direction_in_on_a_face_of_the_polar():
    """The polar of the quadrant {v <= 0} is cone(e_0, e_1); in span(-e_0)
    the only polar direction is e_0, which needs lam_1 = 0, so the Farkas LP
    has t = 0 and the nullspace candidates must be tried with both signs."""
    quadrant = RecessionCone(2, ineq=np.eye(2))
    for W in (np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])):
        assert np.allclose(quadrant.polar_direction_in(W), [1.0, 0.0], atol=1e-12)


def test_lineality_exact_halfspace():
    E = HPolyhedron(np.array([[0.0, 0.0, 0.0, -1.0]]), np.array([0.0]))
    rows, certified = E.lineality_exact()
    assert rows.shape[0] == 3
    assert certified


def test_structural_lineality_is_exact():
    """Non-polyhedral sets report their cone's lineality rows, and exact when
    the rational nullspace of the cone rows has the same dimension."""
    for name, dim in (("ball", 0), ("cone-ex14", 0), ("siegel2", 1), ("disc-tube-prop49", 1)):
        E = build_example(name)
        rows, exact = E.lineality_exact()
        assert exact, name
        assert rows.shape == (dim, E.m), name
        assert np.array_equal(rows, E.lineality()), name


def test_tube_splits_membership():
    base = QuadricBall(np.zeros(3), 1.0)
    E = Tube(base, [1, 2, 3], [0])
    assert E.contains(np.array([100.0, 0.5, 0.0, 0.0]))
    assert not E.contains(np.array([0.0, 1.5, 0.0, 0.0]))
    assert E.recession_member(np.array([1.0, 0.0, 0.0, 0.0]))
    assert E.lineality().shape[0] == 1


def test_dilation_scales_support():
    base = QuadricBall(np.zeros(2), 1.0)
    E = Dilation(base, 3.0)
    c = np.array([1.0, 0.0])
    assert abs(E.support(c).value - 3.0) < 1e-9
    assert E.contains(np.array([0.0, 2.9]))
    assert not E.contains(np.array([0.0, 3.1]))
    p = E.nearest_boundary(np.array([10.0, 0.0]))
    assert np.allclose(p, [3.0, 0.0], atol=1e-9)


# ---------------------------------------------------------------------------
# boundary sampling and gradients
# ---------------------------------------------------------------------------

def test_sample_boundary_lands_on_boundary():
    rng = np.random.default_rng(305)
    sets = [
        _box([-1, -1], [1, 1]),
        HPolyhedron(np.array([[0.0, 0.0, 0.0, -1.0]]), np.array([0.0])),
        QuadricBall(np.array([0.5, 0.5]), 1.0),
        SiegelClosure(2),
        normcombo_cone_set(2, [1.0], [1.0], 1.0),
    ]
    for E in sets:
        pts = E.sample_boundary(rng, 50, window=10.0)
        assert pts.shape[0] == 50
        for p in pts:
            assert E.contains(p, tol=1e-6)
            v = np.atleast_1d(E._violation(p))
            assert np.min(np.abs(v)) < 1e-6 * (1.0 + np.linalg.norm(p))


def test_boundary_gradient_outward():
    rng = np.random.default_rng(306)
    E = QuadricBall(np.array([1.0, -2.0, 0.0]), 2.0)
    pts = E.sample_boundary(rng, 30, window=5.0)
    for p in pts:
        g = E.boundary_gradient(p)
        # gradient points outward: a small step along it leaves the set
        assert not E.contains(p + 1e-4 * g / np.linalg.norm(g))
        assert E.contains(p - 1e-4 * g / np.linalg.norm(g), tol=1e-6)


def test_siegel_boundary_gradient_matches_graph():
    E = SiegelClosure(2)
    # boundary point: Im z2 = |z1|^2 with z1 = 1 -> z = (1, i)
    p = np.array([1.0, 0.0, 0.0, 1.0])
    assert E.contains(p, tol=1e-9)
    g = E.boundary_gradient(p)
    # defining function |z1|^2 - Im z2: gradient (2 x1, 2 y1, 0, -1)
    direction = g / np.linalg.norm(g)
    want = np.array([2.0, 0.0, 0.0, -1.0]) / np.sqrt(5.0)
    assert np.allclose(direction, want, atol=1e-8)


# ---------------------------------------------------------------------------
# slices and halflines
# ---------------------------------------------------------------------------

def test_slice_point_and_halfline_direction():
    E = HPolyhedron(np.array([[0.0, 1.0]]), np.array([0.0]))  # lower halfplane
    S_in = AffineSubspaceR(np.array([0.0, -1.0]), np.array([[1.0, 0.0]]))
    hit = halfline_in_intersection(E, S_in, S_in.base)
    assert hit is not None
    x0, v = hit
    assert E.contains(x0) and abs(x0[1] + 1.0) < 1e-9 and abs(v[1]) < 1e-9
    # a line strictly above the halfplane misses it, so its base point is not in E
    S_out = AffineSubspaceR(np.array([0.0, 2.0]), np.array([[1.0, 0.0]]))
    assert halfline_in_intersection(E, S_out, S_out.base) is None


def test_exterior_sampling_is_exterior():
    rng = np.random.default_rng(307)
    for E in (QuadricBall(np.zeros(2), 1.0), SiegelClosure(2)):
        qs = E.sample_exterior(rng, 30, window=5.0)
        assert qs.shape[0] == 30
        for q in qs:
            assert not E.contains(q)


def test_epigraph_quadratic_roundtrip():
    phi = Quadratic(np.eye(2) * 2.0)
    E = Epigraph(phi, 3, graph_index=2, base_indices=[0, 1])
    assert E.contains(np.array([0.5, 0.5, 5.0]))
    assert not E.contains(np.array([1.0, 1.0, 1.0]))
    q = np.array([0.0, 0.0, -1.0])
    p = E.nearest_boundary(q)
    assert abs(phi.value(p[:2]) - p[2]) < 1e-6


def test_to_jsonable_shapes():
    for E in (_box([-1, -1], [1, 1]), QuadricBall(np.zeros(2), 1.0),
              SiegelClosure(2), normcombo_cone_set(2, [1.0], [1.0], 1.0),
              Tube(QuadricBall(np.zeros(3), 1.0), [1, 2, 3], [0]),
              Dilation(QuadricBall(np.zeros(2), 1.0), 2.0)):
        d = E.to_jsonable()
        assert isinstance(d, dict) and "type" in d
