"""Subspace stability: cones, recession criterion, halflines, supporting translates."""

import sys

import numpy as np
import pytest

import okacert.functions
import okacert.sets
from okacert.geometry import (
    AffineSubspaceC,
    AffineSubspaceR,
    complex_tangent,
    complexify,
    mgs,
    realify,
    realify_span,
)
from okacert.certify import (Hyperplane, SamplingPlan, _canonical_exterior_hyperplane,
                             certify_oka_complement)
from okacert.gallery import build_example, gallery_names
from okacert.lp import solve_lp
from okacert.sets import (Dilation, HPolyhedron, QuadricBall, RecessionCone, SiegelClosure,
                          _nullspace_rows)
from okacert.stability import (
    SupportingTranslate,
    halfline_in_intersection,
    is_stable,
    stability_states,
    tube_or_support,
)

Z2_AXIS = AffineSubspaceC(np.zeros(2, dtype=complex),
                          np.array([[1.0 + 0j, 0.0 + 0j]]))


def _imz2_halfspace():
    # {Im z2 >= 0} in C^2, realified coordinates (x1, y1, x2, y2)
    return HPolyhedron(np.array([[0.0, 0.0, 0.0, -1.0]]), np.array([0.0]))


# ---------------------------------------------------------------------------
# is_stable
# ---------------------------------------------------------------------------

def test_siegel_complex_axis_is_stable():
    E = SiegelClosure(2)
    v = is_stable(E, Z2_AXIS)
    assert v.stable and v.tag == "stable" and v.witness is None
    # the axis is the plane {z2 = 0}: sampled recession directions all
    # violate the cone inequality |r''| <= c |r'| for its proven aperture
    stable, aperture = stability_states(E, np.array([[0.0, 1.0 + 0j]]))
    assert stable[0] and aperture[0] > 0
    D = Z2_AXIS.to_real().directions
    rng = np.random.default_rng(7)
    for r in E.recession_cone().sample_members(rng, 64):
        along = (r @ D.T) @ D
        across = r - along
        assert np.linalg.norm(across) > aperture[0] * np.linalg.norm(along)


def test_halfspace_is_unstable_with_recession_witness():
    E = _imz2_halfspace()
    v = is_stable(E, Z2_AXIS)
    assert v.tag == "unstable" and not v.stable
    w = v.witness
    assert w is not None and abs(np.linalg.norm(w) - 1.0) < 1e-9
    # witness lies in the subspace direction span and recedes inside E
    D = Z2_AXIS.to_real().directions
    assert np.linalg.norm(w - (w @ D.T) @ D) < 1e-9
    assert E.recession_member(w)


def test_stability_translation_invariant():
    rng = np.random.default_rng(55)
    cases = [(SiegelClosure(2), "stable"), (_imz2_halfspace(), "unstable")]
    for E, tag in cases:
        assert is_stable(E, Z2_AXIS).tag == tag
        for _ in range(20):
            w = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert is_stable(E, Z2_AXIS.translate(w)).tag == tag


def test_stability_dilation_invariant():
    for E, tag in [(SiegelClosure(2), "stable"), (_imz2_halfspace(), "unstable")]:
        for lam in (1.0, 2.0, 7.5):
            assert is_stable(Dilation(E, lam), Z2_AXIS).tag == tag


def test_stable_verdict_is_open_under_direction_perturbation():
    E = SiegelClosure(2)
    rng = np.random.default_rng(99)
    for _ in range(20):
        d = np.array([1.0 + 0j, 0.0]) + 1e-4 * (rng.normal(size=2)
                                                + 1j * rng.normal(size=2))
        d /= np.linalg.norm(d)
        S = AffineSubspaceC(np.zeros(2, dtype=complex), d[None, :])
        assert is_stable(E, S).stable


_RANK_SETS = {
    "siegel2": lambda: SiegelClosure(2),
    "siegel3": lambda: SiegelClosure(3),
    "disc-tube-prop49": lambda: build_example("disc-tube-prop49"),
    "ball": lambda: build_example("ball"),
    "siegel-dilation": lambda: Dilation(SiegelClosure(2), 2.2, center=[0.3, -0.4, 0.5, 0.6]),
    "cone-ex14": lambda: build_example("cone-ex14"),
    "pointed-cone-0": lambda: HPolyhedron(*_POINTED_CONES[0]),
    "pointed-cone-1": lambda: HPolyhedron(*_POINTED_CONES[1]),
    "r2-in-c2": lambda: build_example("r2-in-c2"),
}


def _is_stable_rows(E, coeffs):
    """``is_stable``'s verdict on the plane of each coefficient row."""
    return np.array([is_stable(E, Hyperplane(c, 0.0).subspace()).stable for c in coeffs])


@pytest.mark.parametrize("name", sorted(_RANK_SETS))
def test_batched_rank_test_agrees_with_is_stable(name):
    """On 2,000 seeded complex hyperplanes, a quarter of them in the
    near-axis band (coefficient 1e-12 to 1e-6, or 0, on the coordinate of a
    cone member), plus the complex line through each extreme ray of a cone
    in C^2, ``stability_states`` decides every row.  Outside the band it
    gives ``is_stable``'s verdict.  Inside the band it calls no plane stable
    that ``is_stable`` calls unstable: its one margin, PLANAR_MARGIN = 1e-6,
    calls unstable some planes that ``is_stable``'s rank tolerance of 1e-9
    calls stable.  On inequality-only cones the LP loop alone finds no
    member in any plane the batch calls stable."""
    E = _RANK_SETS[name]()
    cone = E.recession_cone()
    n = E.m // 2
    member = cone.intersect_subspace(np.eye(E.m))
    axis = 0 if member is None else int(np.argmax(np.abs(complexify(member))))
    rng = np.random.default_rng(8211)
    coeffs = []
    for k in range(2000):
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        if k % 4 == 0:
            c[axis] = 0.0 if k % 40 == 0 else 10.0 ** rng.uniform(-12, -6) * np.exp(
                2j * np.pi * rng.uniform())
        coeffs.append(Hyperplane(c, rng.normal()).coeffs)
    for z in complexify(cone.generators[0]) if n == 2 else ():
        coeffs.append(Hyperplane(np.array([z[1], -z[0]]), 0.0).coeffs)  # c . z = 0 on the ray
    band = np.arange(len(coeffs)) % 4 == 0
    band[2000:] = False
    stable, _ = stability_states(E, np.array(coeffs))
    assert stable.dtype == bool and stable.shape == (len(coeffs),)
    want = _is_stable_rows(E, coeffs)
    np.testing.assert_array_equal(stable[~band], want[~band])
    assert not (stable & ~want).any()
    if not cone.eq.shape[0]:
        planes = [Hyperplane(c, 0.0).subspace().to_real().directions for c in coeffs]
        assert not any(g and _ref_member_in_span(cone, D) is not None
                       for g, D in zip(stable, planes))
        assert (~stable).sum() > 400
    assert stable.sum() > (200 if name.startswith("pointed") else 1000)
    assert name == "ball" or not want.all()


def test_batched_rank_test_on_a_cone_with_many_facets():
    """A pointed cone in C^2 cut out by 2,000 inequality rows alone, past
    the vertex cap, so the span search decides each row: over 64 complex
    lines, one of them through a cone member, the batch gives the span
    search's and ``is_stable``'s verdict on each, and the LP loop's on the
    first four, and proves no aperture."""
    rng = np.random.default_rng(8213)
    d = rng.normal(size=4)
    A = rng.normal(size=(2000, 4))
    A[A @ d > 0] *= -1.0
    E = HPolyhedron(A, np.ones(2000))
    cone = E.recession_cone()
    z = complexify(d / np.linalg.norm(d))
    coeffs = [Hyperplane(np.array([z[1], -z[0]]), 0.0).coeffs]
    coeffs += [Hyperplane(rng.normal(size=2) + 1j * rng.normal(size=2), 0.0).coeffs
               for _ in range(63)]
    stable, aperture = stability_states(E, np.array(coeffs))
    assert cone.generators is None and np.isnan(aperture).all()
    want = _is_stable_rows(E, coeffs)
    np.testing.assert_array_equal(stable, want)
    planes = [Hyperplane(c, 0.0).subspace().to_real().directions for c in coeffs]
    np.testing.assert_array_equal(want, [cone.intersect_subspace(D) is None for D in planes])
    assert [_ref_member_in_span(cone, D) is None for D in planes[:4]] == list(want[:4])
    assert not stable[0] and stable.sum() > 32


def test_lineality_planes_are_decided_unstable():
    """Planes that meet the cone along a line of the lineality space are
    decided unstable, as ``is_stable`` finds them: halfspace's planes
    {z2 = const}, which its cone contains, and r2-in-c2's exterior planes,
    on which its two lineality directions have images on one line."""
    rng = np.random.default_rng(8215)
    half = build_example("halfspace")
    flat = [Hyperplane([0.0, np.exp(1j * t)], complex(*rng.normal(size=2))).coeffs
            for t in rng.uniform(0, 2 * np.pi, 20)]
    r2 = build_example("r2-in-c2")
    exterior = [_canonical_exterior_hyperplane(r2, q).coeffs
                for q in r2.sample_exterior(rng, 200, window=10.0)]
    for E, coeffs in ((half, flat), (r2, exterior)):
        assert not stability_states(E, np.array(coeffs))[0].any()
        assert not _is_stable_rows(E, coeffs).any()


def _counting(monkeypatch, module, name):
    """Count the calls to ``module.name`` from then on."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_rows_near_one_line_are_decided(monkeypatch):
    """r2-in-c2's planes {z1 + t e^{i eps} z2 = 0} meet its cone, the real
    plane, only at 0 unless eps = 0; for eps from 1e-10 to 1e-6
    ``is_stable``'s projection fails on them.  The generator test decides
    each one with no projection: unstable while the images of the two
    lineality directions lie within PLANAR_MARGIN of one line, up to
    eps = 1e-7, and stable at 1e-4."""
    E = build_example("r2-in-c2")
    E.recession_cone().is_zero
    calls = _counting(monkeypatch, okacert.sets, "_project")
    for eps, want in [(0.0, False), (1e-10, False), (1e-8, False), (1e-7, False), (1e-4, True)]:
        for t in (0.3, 1.0, 3.0):
            c = Hyperplane(np.array([1.0, t * np.exp(1j * eps)]), 0.0).coeffs
            assert stability_states(E, c[None])[0][0] == want, (eps, t)
    assert not calls


def test_stability_states_needs_no_projection_or_lp(monkeypatch):
    """Once ``is_zero`` is known, deciding 200 seeded planes, generators
    included, makes no ``_project`` and no ``solve_lp`` call, on every
    gallery set and both pointed cones."""
    sets = [build_example(name) for name in gallery_names()]
    sets += [HPolyhedron(A, b) for A, b in _POINTED_CONES]
    for E in sets:
        E.recession_cone().is_zero
    projections = _counting(monkeypatch, okacert.sets, "_project")
    lps = _counting_solve_lp(monkeypatch)
    rng = np.random.default_rng(8216)
    for E in sets:
        n = E.m // 2
        stability_states(E, rng.normal(size=(200, n)) + 1j * rng.normal(size=(200, n)))
    assert not projections and not lps


def _seeded_cone(dim_lineality):
    """A seeded polyhedral cone {A x <= 0} in C^2 with a lineality space of
    the given dimension: five rows across a random subspace L, oriented to
    hold a common member, or for dim L = 2 the subspace L itself."""
    rng = np.random.default_rng(8217 + dim_lineality)
    across = _nullspace_rows(mgs(rng.normal(size=(dim_lineality, 4))), cols=4)
    if dim_lineality == 2:
        return HPolyhedron(np.vstack([across, -across]), np.zeros(4))
    A = rng.normal(size=(5, across.shape[0])) @ across
    d = rng.normal(size=across.shape[0]) @ across
    A[A @ d > 0] *= -1.0
    return HPolyhedron(A, np.zeros(5))


_APERTURE_SETS = {**{name: _RANK_SETS[name] for name in (
    "siegel2", "siegel3", "disc-tube-prop49", "cone-ex14", "siegel-dilation",
    "pointed-cone-0", "pointed-cone-1")},
    **{f"seeded-lineality-{k}": (lambda k=k: _seeded_cone(k)) for k in range(3)}}


@pytest.mark.parametrize("name", sorted(_APERTURE_SETS))
def test_every_proven_aperture_holds_on_cone_members(name):
    """On 400 seeded complex hyperplanes, every stable row's aperture c is
    positive and violated by the generators of the recession cone (its rays
    and +-L) and by 20,000 seeded nonnegative combinations of them:
    |r''| > c |r'| for the parts r' in the hyperplane's span and r'' across
    it.  Unstable rows have no aperture."""
    E = _APERTURE_SETS[name]()
    cone = E.recession_cone()
    rays, L = cone.generators
    G = np.vstack([rays, L, -L])
    rng = np.random.default_rng(8218)
    shape = (20000, G.shape[0])
    weights = rng.exponential(size=shape) * (rng.uniform(size=shape) < 0.5)  # on faces too
    members = np.vstack([G, weights @ G])
    members = members[np.linalg.norm(members, axis=1) > 1e-9]
    members /= np.linalg.norm(members, axis=1, keepdims=True)
    assert np.abs(members @ cone.eq.T).max(initial=0.0) <= 1e-9
    assert (members @ cone.ineq.T).max(initial=0.0) <= 1e-9
    n = E.m // 2
    coeffs = rng.normal(size=(400, n)) + 1j * rng.normal(size=(400, n))
    stable, aperture = stability_states(E, coeffs)
    assert np.isnan(aperture[~stable]).all() and (aperture[stable] > 0).all()
    assert stable.sum() >= 40
    for c, a in zip(coeffs[stable], aperture[stable]):
        D = Hyperplane(c, 0.0).subspace().to_real().directions
        along = (members @ D.T) @ D
        across = np.linalg.norm(members - along, axis=1)
        assert (across > a * np.linalg.norm(along, axis=1)).all(), (name, c, a)


# ---------------------------------------------------------------------------
# halfline_in_intersection
# ---------------------------------------------------------------------------

def test_no_halfline_in_siegel_complex_tangent_slice():
    # the complex tangent at the vertex slices the paraboloid set in one point
    assert halfline_in_intersection(SiegelClosure(2), Z2_AXIS, np.zeros(4)) is None


def test_halfline_found_in_halfspace_slice():
    E = _imz2_halfspace()
    out = halfline_in_intersection(E, Z2_AXIS, np.zeros(4))
    assert out is not None
    x0, v = out
    S = Z2_AXIS.to_real()
    assert S.contains_point(x0, tol=1e-8)
    assert np.linalg.norm(v - (v @ S.directions.T) @ S.directions) < 1e-9
    for t in (1.0, 100.0, 1e4):
        assert E.contains(x0 + t * v, tol=1e-6 * (1 + t))
        assert S.contains_point(x0 + t * v, tol=1e-6)


def test_real_tangent_carries_halfline_complex_tangent_does_not():
    """At a smooth boundary point of the paraboloid set the full real tangent
    hyperplane slices the boundary along a real line, while the complex
    tangent hyperplane slices it in a single point."""
    E = SiegelClosure(2)
    p = np.array([1.0 + 0j, 1.0j])  # boundary: Im z2 = |z1|^2 = 1
    pr = realify(p)
    # real tangent through p: orthogonal complement of the outward gradient
    g = E.boundary_gradient(pr)
    g = g / np.linalg.norm(g)
    _, _, vh = np.linalg.svd(g[None, :])
    real_tan = AffineSubspaceR(pr, vh[1:])
    out = halfline_in_intersection(E, real_tan, pr)
    assert out is not None
    x0, v = out
    # the only recession directions inside the tangent are +- the x2 axis
    assert abs(abs(v[2]) - 1.0) < 1e-9 and np.linalg.norm(v[[0, 1, 3]]) < 1e-9
    for t in (1.0, 50.0):
        assert E.contains(x0 + t * v, tol=1e-7)
    # complex tangent at the same point: gradient (conj z1, i/2) at p
    ct = complex_tangent(np.array([np.conj(p[0]), 0.5j]), p)
    assert halfline_in_intersection(E, ct, pr) is None
    assert is_stable(E, ct).stable


# ---------------------------------------------------------------------------
# tube_or_support
# ---------------------------------------------------------------------------

def test_disc_yields_supporting_translate():
    E = QuadricBall(np.zeros(2), 1.0)
    S = AffineSubspaceR(np.zeros(2), np.array([[1.0, 0.0]]))
    out = tube_or_support(E, S)
    assert isinstance(out, SupportingTranslate)
    assert abs(abs(out.contact[1]) - 1.0) < 1e-9 and abs(out.contact[0]) < 1e-9
    assert out.translate.contains_point(out.contact)
    assert np.allclose(out.translate.directions, S.directions)
    # supporting: the normal separates E from the translate
    assert abs(out.normal @ out.contact - out.support_value) < 1e-9
    rng = np.random.default_rng(12)
    for x in E.sample_boundary(rng, 200, window=3.0):
        assert out.normal @ x <= out.support_value + 1e-9


def test_siegel_supported_at_vertex():
    E = SiegelClosure(2)
    out = tube_or_support(E, Z2_AXIS)
    assert isinstance(out, SupportingTranslate)
    assert np.linalg.norm(out.contact) < 1e-7
    assert abs(out.support_value) < 1e-9
    assert isinstance(out.translate, AffineSubspaceC)
    rng = np.random.default_rng(21)
    for x in E.sample_boundary(rng, 200, window=4.0):
        assert out.normal @ x <= out.support_value + 1e-7


@pytest.mark.parametrize("name", ["siegel2", "cone-ex14", "disc-tube-prop49", "ball"])
def test_tube_or_support_is_deterministic(name):
    """The supporting direction comes from an LP, not a random draw: repeated
    calls, on one set and on a fresh copy, give the same contact and normal."""
    line = AffineSubspaceC(np.array([0.4 - 0.3j, 0.2 + 0.1j]),
                           np.array([[1.0 + 0j, 0.5 - 0.5j]]) / np.sqrt(1.5))
    E = build_example(name)
    assert is_stable(E, line).stable
    outs = [tube_or_support(E, line), tube_or_support(E, line),
            tube_or_support(build_example(name), line)]
    assert all(isinstance(o, SupportingTranslate) for o in outs)
    for o in outs[1:]:
        assert np.array_equal(o.contact, outs[0].contact)
        assert np.array_equal(o.normal, outs[0].normal)
        assert o.support_value == outs[0].support_value


# ---------------------------------------------------------------------------
# cross-checks on random polyhedra
# ---------------------------------------------------------------------------

def _random_polyhedron(rng, m=4, rows=6):
    A = rng.normal(size=(rows, m))
    b = rng.uniform(0.5, 3.0, size=rows)  # contains the origin
    return HPolyhedron(A, b)


def test_halfline_absent_iff_stable_on_supporting_slices():
    """For a hyperplane supporting E at a boundary point, the slice E cap L
    contains a halfline exactly when L is unstable; the two verdicts come
    from independent code paths."""
    rng = np.random.default_rng(2024)
    tried = 0
    stable_seen = unstable_seen = 0
    while tried < 50:
        # alternate bounded-ish faces (random direction, 6 rows) with facet
        # normals of sparse polyhedra, whose faces are usually unbounded
        if tried % 2 == 0:
            E = _random_polyhedron(rng)
            c = rng.normal(size=4)
        else:
            E = _random_polyhedron(rng, rows=int(rng.integers(3, 5)))
            c = E.A[0]
        c = c / np.linalg.norm(c)
        res = E.support(c)
        if not res.finite or res.point is None:
            continue
        tried += 1
        q = np.asarray(res.point, float)
        _, _, vh = np.linalg.svd(c[None, :])
        L = AffineSubspaceR(q, vh[1:])
        halfline = halfline_in_intersection(E, L, q)
        verdict = is_stable(E, L)
        assert (halfline is None) == verdict.stable
        if verdict.stable:
            stable_seen += 1
        else:
            unstable_seen += 1
            x0, v = halfline
            assert E.contains(x0 + 64.0 * v, tol=1e-5)
            assert L.contains_point(x0 + 64.0 * v, tol=1e-6)
    assert stable_seen and unstable_seen


# ---------------------------------------------------------------------------
# planar stability test against the LP loop it short-cuts
# ---------------------------------------------------------------------------

# The two pointed six-facet cones {A x <= A x0} of the polyhedral benchmark.
_POINTED_CONES = [
    ([[0.832695, 0.342572, -0.221863, -0.374219], [0.683274, 0.711058, -0.161042, -0.039976],
      [0.651092, 0.546447, -0.463249, -0.25075], [0.324265, 0.243151, -0.856319, -0.320075],
      [-0.043702, 0.810131, -0.584399, 0.015959], [0.449397, 0.516027, -0.394933, -0.613013]],
     [0.120099, -0.170765, -0.028719, 0.090641, -0.363966, 0.012728]),
    ([[-0.090907, -0.342462, -0.417537, 0.836731], [-0.571289, -0.66526, -0.480632, 0.007169],
      [-0.896531, -0.333342, -0.284719, -0.063638], [-0.771608, -0.283265, -0.465418, -0.328282],
      [-0.808915, -0.497233, -0.227199, -0.216322], [-0.342654, -0.043952, -0.839544, 0.419312]],
     [0.04859, 0.169458, -0.462783, -0.290798, -0.182432, -0.297704]),
]


def _ref_member_in_span(cone, directions):
    """``RecessionCone._member_in_span`` as an LP loop only, before the planar test."""
    B = mgs(np.atleast_2d(np.asarray(directions, float)))
    if not B.shape[0]:
        return None
    V = B
    if cone.eq.shape[0]:
        alpha = _nullspace_rows(cone.eq @ B.T, cols=B.shape[0])
        if not alpha.shape[0]:
            return None
        V = alpha @ B
    if not cone.ineq.shape[0]:
        return V[0] / np.linalg.norm(V[0])
    G = cone.ineq @ V.T
    w = V.shape[0]
    Aub = np.vstack([G, np.eye(w), -np.eye(w)])
    bub = np.concatenate([np.zeros(G.shape[0]), np.ones(2 * w)])
    for j in range(w):
        for sign in (1.0, -1.0):
            obj = np.zeros(w)
            obj[j] = sign
            res = solve_lp(obj, A_ub=Aub, b_ub=bub, maximize=True)
            if res.optimal and res.value > 1e-7:
                v = res.x @ V
                v = v / np.linalg.norm(v)
                if cone.member(v, tol=1e-7):
                    return v
    return None


def _assert_same_member(cone, D):
    """The span search finds a member exactly when the LP loop does, and
    what it finds is a unit cone member in span(D)."""
    got, want = cone._member_in_span(D), _ref_member_in_span(cone, D)
    assert (got is None) == (want is None)
    if got is not None:
        B = mgs(np.atleast_2d(D))
        assert abs(np.linalg.norm(got) - 1.0) < 1e-12
        assert np.linalg.norm(got - (got @ B.T) @ B) < 1e-9
        assert cone.member(got, 1e-7)
    return got is None


def test_planar_stability_matches_lp_reference():
    """On 2,000 seeded complex lines of C^2 and 500 real lines, over the
    benchmark's pointed cones, cone-ex14, halfspace, r2-in-c2 and siegel2,
    the span search finds a member exactly where the LP loop does."""
    rng = np.random.default_rng(8208)
    sets = [HPolyhedron(A, b) for A, b in _POINTED_CONES]
    sets += [build_example(name) for name in ("cone-ex14", "halfspace", "r2-in-c2", "siegel2")]
    stable = 0
    for E in sets:
        cone = E.recession_cone()
        for _ in range(340):
            d = rng.normal(size=2) + 1j * rng.normal(size=2)
            line = AffineSubspaceC(np.zeros(2, dtype=complex), d[None, :] / np.linalg.norm(d))
            stable += _assert_same_member(cone, line.to_real().directions)
        for _ in range(85):
            _assert_same_member(cone, rng.normal(size=(1, 4)))
    assert stable >= 500


def test_planar_stability_on_degenerate_integer_systems():
    """Small-integer cones in R^2 with zero rows, antiparallel rows and rows
    in an exact closed half-plane: the planar test agrees with the LP loop
    on the whole plane and on integer lines."""
    rng = np.random.default_rng(8209)
    decided = 0
    for trial in range(4000):
        G = rng.integers(-2, 3, size=(int(rng.integers(1, 6)), 2)).astype(float)
        if trial % 4 == 1:
            G = np.vstack([G, -G[:1], np.zeros((1, 2))])  # antiparallel pair, zero row
        elif trial % 4 == 2:
            G[:, 1] = np.abs(G[:, 1])  # closed upper half-plane, boundary rows included
            G = np.vstack([G, [[1.0, 0.0], [-1.0, 0.0]]])
        cone = RecessionCone(2, ineq=G)
        decided += _assert_same_member(cone, np.eye(2))
        line = rng.integers(-2, 3, size=(1, 2)).astype(float)
        if np.any(line):
            _assert_same_member(cone, line)
    assert decided >= 500


def _counting_solve_lp(monkeypatch):
    """Count the solve_lp calls made from okacert.sets and okacert.functions."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(okacert.sets, "solve_lp", counted)
    monkeypatch.setattr(okacert.functions, "solve_lp", counted)
    return calls


def test_stable_planes_need_no_lp(monkeypatch):
    """Once ``is_zero`` is known, a stable complex line of a pointed cone or
    of cone-ex14 is decided with no LP."""
    rng = np.random.default_rng(8210)
    sets = [HPolyhedron(A, b) for A, b in _POINTED_CONES] + [build_example("cone-ex14")]
    planes = []
    for E in sets:
        E.recession_cone().is_zero
        for _ in range(60):
            d = rng.normal(size=2) + 1j * rng.normal(size=2)
            D = realify_span(d[None, :] / np.linalg.norm(d))
            if _ref_member_in_span(E.recession_cone(), D) is None:
                planes.append((E, D))
    assert len(planes) >= 50
    calls = _counting_solve_lp(monkeypatch)
    for E, D in planes:
        assert E.recession_cone().intersect_subspace(D) is None
    assert not calls


def test_member_in_span_drops_rows_that_vanish_on_the_span():
    """r2-in-c2 on the complex line through (0.689 + 0.7248i, 2.2e-11 +
    2.3e-18i): its rows project to +-(0.7248, 0.689) and the rounding-size
    +-(2.3e-18, 2.2e-11).  Those are dropped by the planar rule, so the
    cone meets the span in the line orthogonal to the first pair.  Kept,
    they would make that cone {0}; kept unnormalised, they stall the
    active-set projection."""
    cone = build_example("r2-in-c2").recession_cone()
    d = np.array([complex(0.689, 0.7248), complex(2.2e-11, 2.3e-18)])
    V = realify_span(d[None, :] / np.linalg.norm(d))
    np.testing.assert_allclose(cone.ineq @ V.T, [[0.7248, 0.689], [-0.7248, -0.689],
                                                 [2.3e-18, 2.2e-11], [-2.3e-18, -2.2e-11]],
                               rtol=1e-4)
    v = cone._member_in_span(V)
    assert v is not None and cone.member(v, 1e-7)
    assert np.linalg.norm(v - (v @ V.T) @ V) < 1e-9
    assert not cone.is_zero


@pytest.mark.parametrize("name", ["cone-ex14", "pointed-cone-0", "pointed-cone-1",
                                  "r2-in-c2", "halfspace"])
def test_recession_cone_solves_only_the_farkas_lp(monkeypatch, name):
    """A whole certificate asks the recession cone for members, samples and
    polar directions; of those only ``polar_direction_in``'s Farkas LP is an
    LP, the rest are projections.  Two certificates solve no LP in
    ``okacert.sets`` at all: r2-in-c2's, whose exterior planes are decided
    unstable, whose random conormals do not vanish on its lineality space,
    and whose lines are not drawn (dim L = 2); and cone-ex14's, whose
    lines are not drawn either (line-free) and whose support values are
    closed forms.  The pointed cones solve one support LP at eta_1."""
    E = _RANK_SETS[name]() if name in _RANK_SETS else build_example(name)
    callers = []

    def traced(*args, **kwargs):
        code = sys._getframe(1).f_code
        callers.append(code.co_qualname)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(okacert.sets, "solve_lp", traced)
    certify_oka_complement(E, SamplingPlan().scaled(30))
    cone_callers = {c for c in callers if c.startswith("RecessionCone.")}
    assert cone_callers <= {"RecessionCone.polar_direction_in"}
    if name in ("r2-in-c2", "cone-ex14"):
        assert callers == []
    else:
        assert callers
