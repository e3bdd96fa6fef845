"""Certification pipeline: hyperplanes, checks, routes, witness rechecks."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from okacert import certify, sets, smoothing
from okacert.certify import (
    Hyperplane,
    SamplingPlan,
    _collect_stable_disjoint,
    _edge_ok,
    _stable_lines,
    certify_oka_complement,
    check_connectivity,
    check_line_lift,
    check_no_affine_line,
    check_normcombo_smoothing,
    check_weak_projective,
    hyperplane_common_point,
    hyperplane_disjoint,
    is_stable,
    recheck_certificate,
    recheck_witness,
)
from okacert.gallery import build_example, expected_overall, gallery_names
from okacert.cli import main as cli_main
from okacert.geometry import AffineSubspaceC, complexify, realify
from okacert.errors import LPNumericalFailure, ProjectionDidNotConverge, UnsupportedVariant
from okacert.lp import LPResult
from okacert.functions import MAX_VERTEX_SUBSYSTEMS
from okacert.sets import Dilation, HPolyhedron, QuadricBall, SiegelClosure, Tube
from okacert.specjson import canonical_json
from okacert.stability import SupportingTranslate, stability_states, tube_or_support

SMALL = SamplingPlan().scaled(100)
GOLDEN = Path(__file__).resolve().parent / "golden"

# A pointed six-facet cone {A x <= b} in C^2 (realified).
POINTED_CONE_A = [
    [0.832695, 0.342572, -0.221863, -0.374219], [0.683274, 0.711058, -0.161042, -0.039976],
    [0.651092, 0.546447, -0.463249, -0.25075], [0.324265, 0.243151, -0.856319, -0.320075],
    [-0.043702, 0.810131, -0.584399, 0.015959], [0.449397, 0.516027, -0.394933, -0.613013]]
POINTED_CONE_B = [0.120099, -0.170765, -0.028719, 0.090641, -0.363966, 0.012728]
# A second pointed cone, as in perfbench's certify-polyhedral workload
POINTED_CONE_2 = (
    [[-0.090907, -0.342462, -0.417537, 0.836731], [-0.571289, -0.66526, -0.480632, 0.007169],
     [-0.896531, -0.333342, -0.284719, -0.063638], [-0.771608, -0.283265, -0.465418, -0.328282],
     [-0.808915, -0.497233, -0.227199, -0.216322], [-0.342654, -0.043952, -0.839544, 0.419312]],
    [0.04859, 0.169458, -0.462783, -0.290798, -0.182432, -0.297704])


# ---------------------------------------------------------------------------
# Hyperplane representation
# ---------------------------------------------------------------------------

def test_hyperplane_canonical_form():
    rng = np.random.default_rng(17)
    for _ in range(50):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        beta = complex(rng.normal(), rng.normal())
        H = Hyperplane(c, beta)
        # unit Hermitian norm, leading nonzero coefficient real positive
        assert abs(np.linalg.norm(H.coeffs) - 1.0) < 1e-12
        lead = H.coeffs[np.argmax(np.abs(H.coeffs) > 1e-12)]
        assert abs(lead.imag) < 1e-12 and lead.real > 0
        # scaling by any nonzero complex number yields the same representative
        lam = (rng.normal() + 1j * rng.normal()) or 1.0
        H2 = Hyperplane(lam * c, lam * beta)
        assert np.allclose(H.coeffs, H2.coeffs, atol=1e-10)
        assert abs(H.offset - H2.offset) < 1e-10
        # base point lies on the plane, subspace directions annihilate coeffs
        assert abs(H.eval(H.base_point())) < 1e-10
        S = H.subspace()
        assert np.max(np.abs(S.directions @ H.coeffs)) < 1e-10


def test_hyperplane_real_covector_and_roundtrip():
    rng = np.random.default_rng(18)
    H = Hyperplane(rng.normal(size=2) + 1j * rng.normal(size=2),
                   complex(0.3, -0.7))
    for theta in (0.0, 0.4, 2.2):
        eta = H.real_eta(theta)
        for _ in range(20):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            x = np.empty(4)
            x[0::2], x[1::2] = z.real, z.imag
            want = np.real(np.exp(-1j * theta) * np.dot(H.coeffs, z))
            assert abs(eta @ x - want) < 1e-12
    H2 = Hyperplane.from_jsonable(H.to_jsonable())
    assert np.allclose(H.coeffs, H2.coeffs) and abs(H.offset - H2.offset) < 1e-12
    assert H.key() == H2.key()


def test_hyperplane_disjoint_and_common_point():
    E = QuadricBall(np.zeros(4), 1.0)  # unit ball of C^2
    far = Hyperplane(np.array([1.0 + 0j, 0.0]), 3.0)
    ok, theta, margin = hyperplane_disjoint(E, far)
    assert ok and margin < -1.0
    near = Hyperplane(np.array([1.0 + 0j, 0.0]), 0.5)
    ok, _, margin = hyperplane_disjoint(E, near)
    assert not ok and margin > -1e-9
    x = hyperplane_common_point(E, near)
    assert x is not None
    assert E.contains(x, tol=1e-6)
    assert abs(near.eval(complexify(x))) < 1e-6


def test_hyperplane_disjoint_tries_the_stripped_phase():
    """A projection hyperplane is separated at the phase its constructor
    strips, the one angle tried on a shadow ``shadow_angles`` leaves
    undecided; a grid of evenly spaced angles reports some as meeting this cone."""
    E = HPolyhedron(POINTED_CONE_A, POINTED_CONE_B)
    res = check_weak_projective(E, SamplingPlan().scaled(30))
    assert res.samples > 0
    assert not [w for w in res.witnesses if w["kind"] == "hyperplane-meets-set"]


# ---------------------------------------------------------------------------
# exact shadows
# ---------------------------------------------------------------------------

def _random_hyperplane(rng, n, scale=3.0):
    return Hyperplane(rng.normal(size=n) + 1j * rng.normal(size=n),
                      complex(*rng.normal(scale=scale, size=2)))


def _scan_margins(E, H):
    """The margins of an angle scan, kept here as a reference for the exact
    shadows: 96 evenly spaced angles, four turns per nonzero coefficient and
    the stripped phase."""
    ang = np.angle(H.coeffs[np.abs(H.coeffs) > 1e-12])
    thetas = np.concatenate([np.linspace(0.0, 2.0 * np.pi, 96, endpoint=False),
                             ang, ang + np.pi, ang + np.pi / 2, ang - np.pi / 2,
                             [H.stripped_theta]])
    values = np.fromiter(E.support_values(np.array([H.real_eta(t) for t in thetas])), float)
    return values - np.real(np.exp(-1j * thetas) * H.offset)


def test_siegel_shadow_margin_is_the_half_plane_distance():
    """For c_n != 0 the Siegel shadow is the half-plane
    Im(w / c_n) >= -|c'|^2 / (4 |c_n|^2): at the one exact angle the margin
    is the signed distance s |c_n| of the offset, minus the distance outside."""
    rng = np.random.default_rng(31)
    disjoint = 0
    for n in (2, 3):
        E = SiegelClosure(n)
        for _ in range(30):
            H = _random_hyperplane(rng, n)
            c, beta = H.coeffs, H.offset
            s = (beta / c[-1]).imag + np.sum(np.abs(c[:-1]) ** 2) / (4 * abs(c[-1]) ** 2)
            ok, theta, margin = hyperplane_disjoint(E, H)
            assert margin == pytest.approx(s * abs(c[-1]), rel=1e-9, abs=1e-9)
            assert ok == (s < 0)
            disjoint += ok
    assert 10 <= disjoint <= 50


def test_ball_shadow_margin_is_the_disc_distance():
    """The ball's shadow is the disc of radius r about c . center: the margin
    at the returned angle, in [0, 2 pi), is r - |offset - c . center|."""
    rng = np.random.default_rng(32)
    E = QuadricBall(np.array([0.5, -1.0, 0.2, 0.7]), 1.3)
    disjoint = 0
    for _ in range(40):
        H = _random_hyperplane(rng, 2)
        dist = abs(H.offset - H.coeffs @ complexify(E.center))
        ok, theta, margin = hyperplane_disjoint(E, H)
        assert margin == pytest.approx(1.3 - dist, rel=1e-12, abs=1e-12)
        assert ok == (dist > 1.3) and 0.0 <= theta < 2 * np.pi
        disjoint += ok
    assert 10 <= disjoint <= 35


def test_exact_shadow_beats_the_angle_scan_on_tubes_and_dilations(monkeypatch):
    """On disc tubes and dilations the margin at the returned angle is the
    scalar support there, it is at most the scan's best margin, every
    hyperplane the scan separates stays separated, and each call evaluates
    at most 2 support rows."""
    sets_ = [build_example("disc-tube-prop49"),
             Tube(QuadricBall(np.array([0.3, -0.2, 0.5]), 0.8), [1, 2, 3], [0]),
             Dilation(SiegelClosure(2), 2.2, center=[0.3, -0.4, 0.5, 0.6]),
             Dilation(QuadricBall(np.array([0.5, 0.0, 0.0, -0.3]), 1.2), 1.7,
                      center=[0.6, 0.1, 0.0, -0.2])]
    rng = np.random.default_rng(33)
    rows = []
    separated = 0
    for E in sets_:
        real = type(E).support_values
        for _ in range(40):
            H = _random_hyperplane(rng, 2)
            scan = _scan_margins(E, H)
            with monkeypatch.context() as mp:
                mp.setattr(type(E), "support_values",
                           lambda self, C: rows.append(len(np.atleast_2d(C))) or real(self, C))
                ok, theta, margin = hyperplane_disjoint(E, H)
            assert rows.pop() <= 2 and not rows
            want = E.support(H.real_eta(theta)).value - np.real(np.exp(-1j * theta) * H.offset)
            assert margin == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert margin <= np.min(scan[np.isfinite(scan)]) + 1e-12
            if np.min(scan) < -1e-10 * (1 + abs(H.offset)):
                assert ok
            separated += ok
    assert separated >= 40


def test_rows_whose_lineality_image_spans_C_are_never_disjoint(monkeypatch):
    """When c . L spans C the shadow is all of C: decided with no angle and
    no support LP, whatever the offset."""
    rng = np.random.default_rng(34)
    calls = []
    real = sets.solve_lp
    monkeypatch.setattr(sets, "solve_lp", lambda *a, **k: calls.append(1) or real(*a, **k))
    for name in ("r2-in-c2", "halfspace"):
        E = build_example(name)
        for _ in range(20):
            H = _random_hyperplane(rng, 2, scale=50.0)
            angles, decided = E.shadow_angles(H.coeffs[None], np.array([H.offset]))
            assert decided[0] and np.isnan(angles).all()
            assert hyperplane_disjoint(E, H) == (False, 0.0, np.inf)
    assert not calls


def test_lineality_line_rows_solve_at_most_two_support_lps(monkeypatch):
    """Where c . L spans a real line the shadow of halfspace {Im z2 >= 0}
    under c = (0, e^{ia}) is a half-plane and that of r2-in-c2 under real c
    is the real line: at most 2 support LPs give the exact margin."""
    rng = np.random.default_rng(35)
    calls = []
    real = sets.solve_lp
    monkeypatch.setattr(sets, "solve_lp", lambda *a, **k: calls.append(1) or real(*a, **k))
    for _ in range(20):
        beta = complex(*rng.normal(scale=3, size=2))
        H = Hyperplane(np.array([0.0, np.exp(1j * rng.uniform(0, 2 * np.pi))]), beta)
        ok, _, margin = hyperplane_disjoint(build_example("halfspace"), H)
        assert len(calls) <= 2 and margin == pytest.approx((H.offset / H.coeffs[1]).imag)
        del calls[:]
        H = Hyperplane(np.array([1.0, rng.normal()]), beta)
        ok, _, margin = hyperplane_disjoint(build_example("r2-in-c2"), H)
        assert len(calls) <= 2 and margin == pytest.approx(-abs(H.offset.imag))
        assert ok == (abs(H.offset.imag) > 1e-9)
        del calls[:]


def _mixed_rows(E, rng):
    """Hyperplanes for ``_disjoint_rows``: random ones, projection hyperplanes
    of exterior points, and, where E has lineality L, rows with c . L = 0,
    which ``shadow_angles`` leaves to the scan."""
    n = E.complex_n()
    planes = [_random_hyperplane(rng, n, scale=s) for s in (0.5, 3.0, 20.0) for _ in range(6)]
    for q in E.sample_exterior(rng, 12, window=6.0):
        H = certify._canonical_exterior_hyperplane(E, q)
        planes += [H] if H is not None else []
    L = complexify(E.lineality()).reshape(-1, n)
    _, sv, vh = np.linalg.svd(L) if L.shape[0] else (None, np.zeros(0), np.eye(n))
    null = np.conj(vh[np.sum(sv > 1e-9):])
    for _ in range(8 if null.shape[0] else 0):
        c = (rng.normal(size=null.shape[0]) + 1j * rng.normal(size=null.shape[0])) @ null
        planes.append(Hyperplane(c, complex(*rng.normal(scale=3.0, size=2))))
    return planes


def test_batched_rows_equal_the_one_row_call_bit_for_bit():
    """On mixed decided and scanned rows over the gallery, the benchmark's
    pointed cones and a polytope with lazy support values, every row of one
    ``_disjoint_rows`` call equals ``hyperplane_disjoint`` on that row alone."""
    rng = np.random.default_rng(36)
    sets_ = [build_example(name) for name in gallery_names()]
    sets_ += [HPolyhedron(POINTED_CONE_A, POINTED_CONE_B), HPolyhedron(*POINTED_CONE_2),
              _lazy_polytope(), QuadricBall(np.array([0.5, -1.0, 0.2, 0.7]), 1.3),
              Dilation(SiegelClosure(2), 2.2, center=[0.3, -0.4, 0.5, 0.6]),
              Tube(QuadricBall(np.array([0.3, -0.2, 0.5]), 0.8), [1, 2, 3], [0]),
              HPolyhedron(np.vstack([np.eye(4), -np.eye(4), np.ones((1, 4))]),
                          [1.0, 1.5, 0.7, 1.2, 0.9, 1.1, 1.3, 0.6, 1.4])]
    kinds = set()
    for E in sets_:
        planes = _mixed_rows(E, rng)
        C, b, stripped = certify._hyperplane_rows(planes, E.complex_n())
        decided = E.shadow_angles(C, b)[1]
        kinds |= {(E.lineality().shape[0] > 0, bool(d)) for d in decided}
        got = certify._disjoint_rows(E, C, b, stripped)
        for k, H in enumerate(planes):
            want = hyperplane_disjoint(E, H)
            assert (bool(got[0][k]), got[1][k], got[2][k]) == want, (E.json_type, k)
    assert kinds >= {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_connectivity_holds_in_unitary_frames_of_a_pointed_cone(seed):
    """A unitary change of coordinates keeps the family of stable disjoint
    hyperplanes connected.  In these frames of the pointed cone a scan of
    evenly spaced angles missed the narrow polar arcs of many steps' shadows,
    and the graph fell into 2, 4 and 3 components; an edge's steps now miss E
    by the sublinearity of the support function, with no angle to find."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    R = realify(complexify(np.eye(4)) @ U.T).T  # x -> realify(U complexify(x))
    E = HPolyhedron(np.asarray(POINTED_CONE_A) @ np.linalg.inv(R), POINTED_CONE_B)
    res = check_connectivity(E, SamplingPlan())
    assert res.verdict == "verified-sampled", res.detail


def test_projection_failure_makes_the_check_inconclusive(monkeypatch, tmp_path):
    """Near-degenerate planes of r2-in-c2 give a singular active set in the
    cone projection, which raises ProjectionDidNotConverge, and a check that
    meets a failed projection is inconclusive with the reason while the
    certificate is still written."""
    E = build_example("r2-in-c2")
    for t in (0.3, 1.0, 3.0):
        H = Hyperplane(np.array([1.0, t * np.exp(1e-9j)]), 0.0)
        with pytest.raises(ProjectionDidNotConverge):
            is_stable(E, H.subspace())

    def fail(*args, **kwargs):
        raise ProjectionDidNotConverge("active-set steps did not reach a feasible point")

    monkeypatch.setattr(sets, "_project", fail)
    out = tmp_path / "cert.json"
    assert cli_main(["certify", "siegel2", "--samples", "30", "--out", str(out)]) == 2
    cert = json.loads(out.read_text())
    failed = [c for c in cert["checks"] if c["detail"].startswith("projection failed: ")]
    assert {c["name"] for c in failed} >= {"weak_projective", "line_lift", "connectivity"}
    assert all(c["verdict"] == "inconclusive" for c in failed)


def test_line_lift_without_finite_support_is_skipped(monkeypatch):
    """No finite support value at any angle is no evidence: the line is
    skipped, and the certificate stays finite JSON."""
    monkeypatch.setattr(certify, "_disjoint_rows", lambda E, C, *_: (
        np.zeros(len(C), dtype=bool), np.zeros(len(C)), np.full(len(C), np.inf)))
    cert = certify_oka_complement(QuadricBall(np.zeros(4), 1.0), SamplingPlan().scaled(30))
    canonical_json(cert.to_jsonable())

    def floats(node):
        if isinstance(node, dict):
            return [x for v in node.values() for x in floats(v)]
        if isinstance(node, list):
            return [x for v in node for x in floats(v)]
        return [node] if isinstance(node, float) else []

    assert all(np.isfinite(x) for c in cert.checks for w in c.witnesses for x in floats(w))
    assert not cert.check("line_lift").witnesses


def test_numerical_lp_failure_makes_the_check_inconclusive(monkeypatch):
    """An infeasible support LP on a nonempty polyhedron is a solver failure:
    the check that met it is inconclusive with the reason, and the
    certificate is still written.  The cube's line lift reads the attainer of
    that LP in ``tube_or_support``."""
    E = HPolyhedron(np.vstack([np.eye(4), -np.eye(4)]), np.ones(8))
    real = sets.solve_lp

    def broken(c, A_ub=None, *args, **kwargs):
        if A_ub is E.A:  # the support LP of E
            return LPResult("infeasible", None, None)
        return real(c, A_ub, *args, **kwargs)

    monkeypatch.setattr(sets, "solve_lp", broken)
    plan = SamplingPlan(seed=11).scaled(30)
    res = check_line_lift(E, plan)
    assert (res.name, res.seed, res.verdict) == ("line_lift", 11, "inconclusive")
    assert res.detail.startswith("LP numerical failure: ")
    cert = certify_oka_complement(E, plan)
    assert cert.check("line_lift").detail == res.detail
    canonical_json(cert.to_jsonable())


def test_lp_failure_in_lineality_or_smoothing_makes_the_check_inconclusive(monkeypatch):
    """The two checks that run off the complex-plane guard turn an LP
    failure into their own inconclusive verdict too."""
    E = build_example("cone-ex14")

    def fail(*args, **kwargs):
        raise LPNumericalFailure("simplex iteration budget exhausted")

    monkeypatch.setattr(type(E), "lineality_exact", fail)
    monkeypatch.setattr(smoothing, "smooth_normcombo", fail)
    plan = SamplingPlan(seed=11).scaled(30)
    cert = certify_oka_complement(E, plan)
    canonical_json(cert.to_jsonable())
    for check in (check_no_affine_line, check_normcombo_smoothing):
        res = check(E, plan)
        assert (res.name, res.seed, res.verdict) == (check.__name__[6:], 11, "inconclusive")
        assert res.detail == "LP numerical failure: simplex iteration budget exhausted"
        assert cert.check(res.name).detail == res.detail


# ---------------------------------------------------------------------------
# sampling plan
# ---------------------------------------------------------------------------

def test_sampling_plan_scaling_and_validation():
    plan = SamplingPlan().scaled(100)
    assert plan.boundary == 100 and plan.exterior == 40
    assert plan.lines == 20 and plan.hyperplanes == 12
    tiny = SamplingPlan().scaled(5)
    assert tiny.boundary == 5 and tiny.hyperplanes >= 2
    with pytest.raises(ValueError):
        SamplingPlan(boundary=0)
    with pytest.raises(ValueError):
        SamplingPlan(window=-1.0)


def test_sampling_plan_fields_are_listed_once():
    """The certificate's plan record is exactly the dataclass fields, and
    rescaling keeps every field it does not rescale."""
    plan = SamplingPlan(seed=3, path_steps=17, window=4.5)
    fields = [f.name for f in dataclasses.fields(SamplingPlan)]
    assert list(plan.to_jsonable()) == fields
    assert plan.to_jsonable() == {name: getattr(plan, name) for name in fields}
    scaled = plan.scaled(100)
    assert (scaled.seed, scaled.path_steps, scaled.window) == (3, 17, 4.5)


def test_sampling_plan_rng_streams():
    plan = SamplingPlan(seed=7)
    a = plan.rng("tangent").normal(size=4)
    b = plan.rng("tangent").normal(size=4)
    c = plan.rng("lines").normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# individual checks on transparent sets
# ---------------------------------------------------------------------------

def test_line_lift_on_ball():
    res = check_line_lift(QuadricBall(np.zeros(4), 1.0), SMALL)
    assert res.verdict == "verified-sampled"
    assert res.samples > 0 and not res.witnesses


def test_line_lift_contains_the_line_direction():
    """The lift of a supporting translate, the complex tangent of its real
    supporting hyperplane, contains the line direction on every gallery set
    and both pointed cones: the unit normal vanishes on the line's real span."""
    rng = np.random.default_rng(5120)
    sets = [build_example(name) for name in gallery_names()]
    sets += [HPolyhedron(POINTED_CONE_A, POINTED_CONE_B), HPolyhedron(*POINTED_CONE_2)]
    checked = 0
    for E in sets:
        n = E.complex_n()
        for _ in range(40):
            d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            d /= np.linalg.norm(d)
            b = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 2.5
            line = AffineSubspaceC(base=b, directions=d[None, :])
            if not is_stable(E, line).stable:
                continue
            try:
                outcome = tube_or_support(E, line)
            except UnsupportedVariant:
                continue
            if isinstance(outcome, SupportingTranslate):
                H = Hyperplane.from_real_normal(outcome.contact, outcome.normal)
                assert abs(np.dot(H.coeffs, d)) <= 1e-12
                checked += 1
    assert checked >= 200


def test_connectivity_with_seeds_on_ball():
    E = QuadricBall(np.zeros(4), 1.0)
    wp = check_weak_projective(E, SMALL)
    assert wp.verdict == "verified-sampled"
    seeds = [w for w in wp.witnesses if w["kind"] == "stable-hyperplane"]
    assert seeds
    conn = check_connectivity(E, SMALL, seeds=seeds)
    assert conn.verdict == "verified-sampled"


def test_connectivity_reports_each_component_by_its_first_hyperplane(monkeypatch):
    """With edges only between hyperplanes on the same side of Im offset = 1,
    the graph has two components, each represented by its first node."""
    E = QuadricBall(np.zeros(4), 1.0)
    nodes = _collect_stable_disjoint(E, SMALL, SMALL.rng("connect"), SMALL.hyperplanes)
    sides = [H.offset.imag > 1.0 for H, *_ in nodes]
    assert len(set(sides)) == 2
    monkeypatch.setattr(certify, "_edge_ok", lambda E, Hi, Hj, steps, thetas:
                        (Hi.offset.imag > 1.0) == (Hj.offset.imag > 1.0))
    res = check_connectivity(E, SMALL)
    assert (res.verdict, res.samples) == ("refuted", len(nodes))
    assert res.detail == "hyperplane graph has 2 components"
    firsts = (0, sides.index(not sides[0]))
    assert res.witnesses == [{"kind": "disconnected-components", "components": 2,
                              "representatives": [nodes[k][0].to_jsonable() for k in firsts]}]


def test_weak_projective_reports_skipped_exterior_samples(monkeypatch):
    """Exterior points whose projection fails are counted in the detail."""
    E = QuadricBall(np.zeros(4), 1.0)
    plan = SamplingPlan().scaled(30)
    assert "skipped" not in check_weak_projective(E, plan).detail
    real = certify._canonical_exterior_hyperplane
    calls = []

    def flaky(E, q):
        calls.append(1)
        return None if len(calls) % 3 == 0 else real(E, q)

    monkeypatch.setattr(certify, "_canonical_exterior_hyperplane", flaky)
    res = check_weak_projective(E, plan)
    assert res.verdict == "verified-sampled"
    skipped = len(calls) // 3
    assert skipped > 0 and res.samples == len(calls) - skipped
    assert res.detail.endswith(f"; {skipped} exterior samples skipped (projection failed)")


# ---------------------------------------------------------------------------
# connectivity edges
# ---------------------------------------------------------------------------

def _rotated_rows(Hi, Hj, ts, thetas):
    """The rows e^{-i theta}(c, beta) of Hi and Hj, interpolated at ``ts``."""
    ri, rj = (np.exp(-1j * th) * np.append(H.coeffs, H.offset) for H, th in zip((Hi, Hj), thetas))
    return [(1 - t) * ri + t * rj for t in ts]


def _reference_edge_ok(E, Hi, Hj, steps, thetas):
    """A scalar reference for ``_edge_ok``: (ok, t of the first failure).  The
    rotated path fails where its coefficients come within 1e-9 of 0 on a
    dense grid of 4097 points, then at the first step ``is_stable`` calls
    unstable; no step asks for disjointness."""
    dense = _rotated_rows(Hi, Hj, np.linspace(0.0, 1.0, 4097), thetas)
    if min(np.linalg.norm(r[:-1]) for r in dense) < 1e-9:
        return False, None
    ts = np.linspace(0.0, 1.0, steps)
    for t, r in zip(ts, _rotated_rows(Hi, Hj, ts, thetas)):
        if not is_stable(E, Hyperplane(r[:-1], r[-1]).subspace()).stable:
            return False, float(t)
    return True, None


def _reference_stable_lines(E, plan):
    """The scalar loop that ``_stable_lines`` batches: four draws, one line
    and one ``is_stable`` call per attempt."""
    n = E.complex_n()
    rng = plan.rng("lines")
    lines, attempts = [], 0
    while len(lines) < plan.lines and attempts < 10 * plan.lines:
        attempts += 1
        d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        d = d / np.linalg.norm(d)
        b = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (plan.window / 4)
        line = AffineSubspaceC(base=b, directions=d[None, :])
        if is_stable(E, line).stable:
            lines.append(line)
    return lines, attempts


def test_batched_line_draws_match_the_scalar_loop():
    """The same stable lines, bit for bit, and the same number of attempts
    as the scalar loop on pointed-cone-0 (where most draws are unstable),
    siegel3 (lines in C^3, decided one by one) and halfspace (no stable
    line: the check is inconclusive after all 10 lines draws)."""
    E = HPolyhedron(POINTED_CONE_A, POINTED_CONE_B)
    for E, plan in [(E, SamplingPlan()), (E, SamplingPlan(seed=5).scaled(30)),
                    (SiegelClosure(3), SMALL), (build_example("halfspace"), SMALL)]:
        got, want = _stable_lines(E, plan), _reference_stable_lines(E, plan)
        assert got[1] == want[1] and len(got[0]) == len(want[0])
        for a, b in zip(got[0], want[0]):
            assert np.array_equal(a.base, b.base) and np.array_equal(a.directions, b.directions)
    assert want == ([], 10 * SMALL.lines)
    res = check_line_lift(E, SMALL)
    assert (res.verdict, res.samples) == ("inconclusive", 10 * SMALL.lines)
    got = _stable_lines(HPolyhedron(POINTED_CONE_A, POINTED_CONE_B), SamplingPlan())
    assert len(got[0]) == 100 and 100 < got[1] < 1000


def _lazy_polytope():
    """A bounded polytope with more vertex subsystems than MAX_VERTEX_SUBSYSTEMS,
    so its support values come one LP at a time."""
    A = np.random.default_rng(3).normal(size=(20, 4))
    assert math.comb(20, 4) > MAX_VERTEX_SUBSYSTEMS
    E = HPolyhedron(A / np.linalg.norm(A, axis=1, keepdims=True), np.ones(20))
    assert not isinstance(E.support_values(np.eye(4)), np.ndarray)
    return E


def _edge_sets():
    dilation = Dilation(SiegelClosure(2), 2.2, center=[0.3, -0.4, 0.5, 0.6])
    return ([build_example(name) for name in
             ("siegel2", "siegel3", "disc-tube-prop49", "ball", "cone-ex14")]
            + [dilation, HPolyhedron(np.vstack([np.eye(4), -np.eye(4)]), np.ones(8)),
               HPolyhedron(POINTED_CONE_A, POINTED_CONE_B), HPolyhedron(*POINTED_CONE_2)])


def _edges(E, count, seed):
    """Every pair of ``count`` stable disjoint hyperplanes, with their separating
    angles and margins."""
    nodes = _collect_stable_disjoint(E, SMALL, np.random.default_rng(seed), count)
    return [(nodes[i][0], nodes[j][0], [nodes[i][1], nodes[j][1]], [nodes[i][2], nodes[j][2]])
            for i in range(len(nodes)) for j in range(i + 1, len(nodes))]


def test_edges_match_the_scalar_rotated_path():
    """The same verdict as the scalar loop over the rotated path on seeded
    edges over smooth, polyhedral and lazy sets; every step of every accepted
    edge misses E at angle 0, by at least the interpolated endpoint margins."""
    passed = 0
    for E, steps in [(E, 64) for E in _edge_sets()] + [(_lazy_polytope(), 12)]:
        for Hi, Hj, thetas, margins in _edges(E, 5, 41):
            ok = _edge_ok(E, Hi, Hj, steps, thetas)
            assert ok is _reference_edge_ok(E, Hi, Hj, steps, thetas)[0]
            passed += ok
            if not ok:
                continue
            ts = np.linspace(0.0, 1.0, steps)
            rows = np.array(_rotated_rows(Hi, Hj, ts, thetas))
            values = np.fromiter(E.support_values(realify(np.conj(rows[:, :-1]))), float)
            got = values - rows[:, -1].real
            assert np.all(got < 0)
            assert np.all(got <= (1 - ts) * margins[0] + ts * margins[1] + 1e-12)
    assert passed >= 60


def test_blocked_edges():
    """An edge fails at an unstable step: {(z1 + z2)/sqrt 2 = 5} and
    {(z1 - z2)/sqrt 2 = 5} miss [-1, 1]^3 x [0, inf) at angle 0, and their
    midpoint {z1 = 5 sqrt 2} contains the recession ray (0, i).  It fails
    where the rotated rows vanish: {z1 = 5} and {z1 = -5} miss the unit ball
    at angles 0 and pi, and e^{-i theta}(c, beta) is (1, 0, 5) and (-1, 0, 5),
    which vanish at t = 1/2, between two of 64 steps."""
    E = HPolyhedron(np.vstack([np.eye(4)[:3], -np.eye(4)]), [1.0] * 6 + [0.0])
    Hi = Hyperplane(np.array([1.0, 1.0]), 5 * np.sqrt(2))
    Hj = Hyperplane(np.array([1.0, -1.0]), 5 * np.sqrt(2))
    assert hyperplane_disjoint(E, Hi)[:2] == hyperplane_disjoint(E, Hj)[:2] == (True, 0.0)
    assert _reference_edge_ok(E, Hi, Hj, 65, [0.0, 0.0]) == (False, 0.5)
    assert not _edge_ok(E, Hi, Hj, 65, [0.0, 0.0])
    ball = QuadricBall(np.zeros(4), 1.0)
    Hi, Hj = Hyperplane(np.array([1.0, 0.0]), 5.0), Hyperplane(np.array([1.0, 0.0]), -5.0)
    thetas = [hyperplane_disjoint(ball, Hi)[1], hyperplane_disjoint(ball, Hj)[1]]
    assert thetas == [0.0, np.pi]
    rows = np.array(_rotated_rows(Hi, Hj, np.linspace(0.0, 1.0, 64), thetas))
    assert np.min(np.linalg.norm(rows[:, :-1], axis=1)) > 0.01
    assert _reference_edge_ok(ball, Hi, Hj, 64, thetas) == (False, None)
    assert not _edge_ok(ball, Hi, Hj, 64, thetas)


def test_edges_skip_is_stable_and_lps(monkeypatch):
    """Edges on siegel2, the ball, cone-ex14 and a pointed cone make no
    is_stable call, and a default-plan cone-ex14 certificate makes at most
    600 (4,327 before the planar Gordan test was batched); edges on a
    polytope with lazy support values solve no LP."""
    edge_sets = [build_example(name) for name in ("siegel2", "ball", "cone-ex14")]
    edge_sets.append(HPolyhedron(POINTED_CONE_A, POINTED_CONE_B))
    batched = [(E, _edges(E, 4, 42)) for E in edge_sets]
    lazy = _lazy_polytope()
    lazy_edges = _edges(lazy, 4, 43)
    stable_calls, lp_calls = [], []
    real_is_stable, real_solve_lp = certify.is_stable, sets.solve_lp
    monkeypatch.setattr(certify, "is_stable",
                        lambda *a: stable_calls.append(1) or real_is_stable(*a))
    for E, edges in batched:
        for Hi, Hj, thetas, _ in edges:
            _edge_ok(E, Hi, Hj, 64, thetas)
    assert not stable_calls
    certify_oka_complement(build_example("cone-ex14"))
    assert 0 < len(stable_calls) <= 600
    monkeypatch.setattr(sets, "solve_lp",
                        lambda *a, **k: lp_calls.append(1) or real_solve_lp(*a, **k))
    assert all(_edge_ok(lazy, Hi, Hj, 12, thetas) for Hi, Hj, thetas, _ in lazy_edges)
    assert lazy_edges and not lp_calls


def _seeded_polytope():
    """A box with random offsets cut by four random halfspaces: bounded, line-free."""
    rng = np.random.default_rng(7)
    cuts = rng.normal(size=(4, 4))
    A = np.vstack([np.eye(4), -np.eye(4), cuts / np.linalg.norm(cuts, axis=1, keepdims=True)])
    return HPolyhedron(A, np.concatenate([rng.uniform(0.5, 1.5, 8), rng.uniform(0.3, 1.0, 4)]))


def test_projection_hyperplanes_miss_E_by_their_distance():
    """A projection hyperplane through q misses E at its stripped phase by
    exactly the distance of q from E: every stable-hyperplane witness on the
    cube and a seeded polytope has margin -|q - nearest_boundary(q)|."""
    for E in (HPolyhedron(np.vstack([np.eye(4), -np.eye(4)]), np.ones(8)), _seeded_polytope()):
        res = check_weak_projective(E, SMALL)
        planes = [w for w in res.witnesses if w["kind"] == "stable-hyperplane"]
        assert res.verdict == "verified-sampled" and len(planes) >= 8
        for w in planes:
            q = np.array(w["through"])
            distance = np.linalg.norm(q - E.nearest_boundary(q))
            assert w["margin"] == pytest.approx(-distance, rel=1e-9)


def test_chart_compact_reads_the_proven_apertures(monkeypatch):
    """At SMALL, chart_compact is certified-exact with no samples on siegel2,
    the disc tube and the ball.  Each witness carries the aperture that
    ``stability_states`` proves for its candidate, the first three
    weak_projective hyperplanes, and no certificate draws a cone member."""
    draws, real = [], sets.RecessionCone.sample_members
    monkeypatch.setattr(sets.RecessionCone, "sample_members",
                        lambda *a, **k: draws.append(1) or real(*a, **k))
    for name in ("siegel2", "disc-tube-prop49", "ball"):
        E = build_example(name)
        cert = certify_oka_complement(E, SMALL)
        chart = cert.check("chart_compact")
        assert (chart.verdict, chart.samples, len(chart.witnesses)) == ("certified-exact", 0, 3)
        cand = [Hyperplane.from_jsonable(w["hyperplane"])
                for w in cert.check("weak_projective").witnesses[:3]]
        assert [w["hyperplane"] for w in chart.witnesses] == [H.to_jsonable() for H in cand]
        _, want = stability_states(E, np.array([H.coeffs for H in cand]))
        assert [w["aperture"] for w in chart.witnesses] == list(want)
        assert all(w["aperture"] > 0 for w in chart.witnesses)
    assert not draws


def test_chart_compact_without_a_proven_aperture_is_inconclusive():
    """Past the vertex cap no aperture is proven, so a stable candidate on a
    pointed cone cut out by 2,000 inequality rows leaves the check
    inconclusive, never refuted."""
    rng = np.random.default_rng(8213)
    d = rng.normal(size=4)
    A = rng.normal(size=(2000, 4))
    A[A @ d > 0] *= -1.0
    E = HPolyhedron(A, np.ones(2000))
    assert E.recession_cone().generators is None
    H = next(H for H in (Hyperplane(rng.normal(size=2) + 1j * rng.normal(size=2), 0.0)
                         for _ in range(64)) if is_stable(E, H.subspace()).stable)
    res = certify.check_chart_compact(E, SMALL, candidates=[H])
    assert (res.verdict, res.samples, res.witnesses) == ("inconclusive", 0, [])
    assert res.detail == "1 of 1 candidate hyperplanes have no proven aperture"


# ---------------------------------------------------------------------------
# full pipeline over the gallery
# ---------------------------------------------------------------------------

def _assert_matches_golden(got, want, where):
    """Same structure, strings, ints and bools; floats equal to rtol 1e-9."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_matches_golden(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches_golden(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and np.isclose(got, want, rtol=1e-9, atol=0.0), (
            f"{where}: {got!r} != {want!r}")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def test_gallery_overall_verdicts_small_plan():
    """Every gallery certificate has its expected overall verdict and matches
    its golden file in tests/golden: verdicts, witness kinds and counts,
    samples, details and digest exactly, floats to rtol 1e-9."""
    for name in gallery_names():
        E = build_example(name)
        cert = certify_oka_complement(E, SMALL)
        assert cert.overall == expected_overall(name), (
            f"{name}: got {cert.overall}, expected {expected_overall(name)}")
        golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        _assert_matches_golden(json.loads(canonical_json(cert.to_jsonable())), golden, name)


def test_line_free_polytope_is_certified_exactly():
    """The cube has exactly trivial lineality, so route 1 decides exactly."""
    cube = HPolyhedron(np.vstack([np.eye(4), -np.eye(4)]), np.ones(8))
    cert = certify_oka_complement(cube, SamplingPlan().scaled(30))
    assert cert.check("no_affine_line").verdict == "certified-exact"
    assert cert.overall == "certified-exact"


@pytest.mark.parametrize("E", [QuadricBall(np.zeros(3), 1.0), QuadricBall(np.zeros(2), 1.0)],
                         ids=["odd-dimension", "C^1"])
def test_checks_need_complex_dimension_two(E):
    plan = SamplingPlan(seed=5)
    for check in (certify.check_tangent_slice_halflines, check_weak_projective,
                  check_line_lift, check_connectivity, certify.check_chart_compact):
        res = check(E, plan)
        assert (res.verdict, res.detail, res.seed, res.samples, res.witnesses) == (
            "inconclusive", "ambient space is not C^n with n >= 2", 5, 0, [])


def test_certificate_structure_and_route_logic():
    cert = certify_oka_complement(SiegelClosure(2), SMALL)
    names = [c.name for c in cert.checks]
    assert names == ["no_affine_line", "tangent_slice_halflines",
                     "weak_projective", "line_lift", "connectivity",
                     "chart_compact"]
    for c in cert.checks:
        assert c.verdict in ("certified-exact", "verified-sampled",
                             "refuted", "inconclusive")
        assert c.anchor
    # the set contains a real line, so the lineality route must not fire,
    # yet the overall verdict verifies through the other routes
    assert cert.check("no_affine_line").verdict == "inconclusive"
    assert cert.check("tangent_slice_halflines").verified
    assert cert.overall == "verified-sampled"
    assert cert.check("missing") is None
    blob = cert.to_jsonable()
    assert set(blob) == {"input_digest", "checks", "overall"}
    assert isinstance(blob["input_digest"], str) and len(blob["input_digest"]) >= 16


def test_certification_is_deterministic():
    E = build_example("disc-tube-prop49")
    a = canonical_json(certify_oka_complement(E, SMALL).to_jsonable())
    b = canonical_json(certify_oka_complement(E, SMALL).to_jsonable())
    assert a == b


# ---------------------------------------------------------------------------
# refutations carry independently recheckable witnesses
# ---------------------------------------------------------------------------

def test_tangent_planes_are_built_only_for_unstable_rows(monkeypatch):
    """Siegel's tangent planes are all stable, so none is built; a point
    whose gradient vanishes is skipped and not counted as checked, as
    ``complex_tangent``'s ZeroGradient made it before."""
    calls, real = [], certify.complex_tangent
    monkeypatch.setattr(certify, "complex_tangent",
                        lambda *a: calls.append(1) or real(*a))
    E = SiegelClosure(2)
    res = certify.check_tangent_slice_halflines(E, SMALL)
    assert res.verified and res.samples > 0 and calls == []
    grad, seen = type(E).boundary_gradient, []
    monkeypatch.setattr(type(E), "boundary_gradient", lambda self, p: (
        seen.append(1), 0.0 * grad(self, p) if len(seen) % 2 else grad(self, p))[1])
    assert certify.check_tangent_slice_halflines(E, SMALL).samples == res.samples // 2
    half = certify.check_tangent_slice_halflines(build_example("halfspace"), SMALL)
    assert half.verdict == "refuted" and 0 < len(calls) <= half.samples


def test_halfspace_refuted_with_recheckable_halfline():
    E = build_example("halfspace")
    cert = certify_oka_complement(E, SMALL)
    assert cert.overall == "refuted"
    ts = cert.check("tangent_slice_halflines")
    assert ts.verdict == "refuted"
    assert any(w["kind"] == "halfline" for w in ts.witnesses)
    rechecks = recheck_certificate(E, cert)
    assert rechecks and all(ok for _, _, ok in rechecks)


def test_totally_real_plane_refuted_on_unstable_hyperplanes():
    E = build_example("r2-in-c2")
    cert = certify_oka_complement(E, SMALL)
    assert cert.overall == "refuted"
    wp = cert.check("weak_projective")
    assert wp.verdict == "refuted"
    uw = [w for w in wp.witnesses if w["kind"] == "unstable-hyperplane"]
    assert uw
    # the recession witness is a complex-line direction inside the hyperplane:
    # it annihilates the coefficients and recedes in both orientations
    w = uw[0]
    H = Hyperplane.from_jsonable(w["hyperplane"])
    v = np.asarray(w["recession_direction"], float)
    assert abs(np.dot(H.coeffs, complexify(v))) < 1e-6
    assert E.recession_member(v / np.linalg.norm(v))
    assert recheck_witness(E, w)
    rechecks = recheck_certificate(E, cert)
    assert rechecks and all(ok for _, _, ok in rechecks)


def test_recheck_rejects_corrupted_witnesses():
    E = build_example("halfspace")
    bad_halfline = {"kind": "halfline",
                    "point": [0.0, 0.0, 0.0, 1.0],
                    "direction": [0.0, 0.0, 0.0, -1.0]}  # exits E
    assert not recheck_witness(E, bad_halfline)
    assert not recheck_witness(E, {"kind": "unknown-kind"})
