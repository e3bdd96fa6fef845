"""Certification pipeline: hyperplanes, checks, routes, witness rechecks."""

import dataclasses
import json
import math
import zlib
from pathlib import Path

import numpy as np
import pytest

from okacert import certify, functions, sets, smoothing
from okacert.certify import (
    Hyperplane,
    SamplingPlan,
    _stable_lines,
    certify_oka_complement,
    check_connectivity,
    check_line_lift,
    check_no_affine_line,
    check_normcombo_smoothing,
    check_weak_projective,
    hyperplane_disjoint,
    is_stable,
    recheck_certificate,
    recheck_witness,
)
from okacert.gallery import build_example, expected_overall, gallery_names
from okacert.cli import main as cli_main
from okacert.geometry import AffineSubspaceC, complexify, realify
from okacert.errors import LPNumericalFailure, ProjectionDidNotConverge, UnsupportedVariant
from okacert.lp import LPResult, solve_lp
from okacert.functions import MAX_VERTEX_SUBSYSTEMS
from okacert.sets import Dilation, HPolyhedron, QuadricBall, SiegelClosure, Tube
from okacert.specjson import canonical_json
from okacert.stability import stability_states, tube_or_support

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


def test_hyperplane_disjoint():
    E = QuadricBall(np.zeros(4), 1.0)  # unit ball of C^2
    far = Hyperplane(np.array([1.0 + 0j, 0.0]), 3.0)
    ok, theta, margin = hyperplane_disjoint(E, far)
    assert ok and margin < -1.0
    near = Hyperplane(np.array([1.0 + 0j, 0.0]), 0.5)
    ok, _, margin = hyperplane_disjoint(E, near)
    assert not ok and margin > -1e-9


# ---------------------------------------------------------------------------
# shadows at their separating angle
# ---------------------------------------------------------------------------

def _random_hyperplane(rng, n, scale=3.0):
    return Hyperplane(rng.normal(size=n) + 1j * rng.normal(size=n),
                      complex(*rng.normal(scale=scale, size=2)))


def _one_row(E, H, theta):
    """``_disjoint_rows`` of the one hyperplane H at the angle theta, as (ok, margin)."""
    ok, margin = certify._disjoint_rows(E, H.coeffs[None], np.array([H.offset]),
                                        np.array([theta]))
    return bool(ok[0]), float(margin[0])


def test_siegel_shadow_margin_is_the_half_plane_distance():
    """For c_n != 0 the Siegel shadow is the half-plane
    Im(w / c_n) >= -|c'|^2 / (4 |c_n|^2), whose outward normal is
    -i c_n / |c_n|: at that angle the margin is the signed distance s |c_n|
    of the offset, minus the distance outside."""
    rng = np.random.default_rng(31)
    disjoint = 0
    for n in (2, 3):
        E = SiegelClosure(n)
        for _ in range(30):
            H = _random_hyperplane(rng, n)
            c, beta = H.coeffs, H.offset
            s = (beta / c[-1]).imag + np.sum(np.abs(c[:-1]) ** 2) / (4 * abs(c[-1]) ** 2)
            ok, margin = _one_row(E, H, np.angle(c[-1]) - np.pi / 2)
            assert margin == pytest.approx(s * abs(c[-1]), rel=1e-9, abs=1e-9)
            assert ok == (s < 0)
            disjoint += ok
    assert 10 <= disjoint <= 50


def test_ball_shadow_margin_is_the_disc_distance():
    """The ball's shadow is the disc of radius r about c . center: at the
    angle of offset - c . center the margin is r - |offset - c . center|."""
    rng = np.random.default_rng(32)
    E = QuadricBall(np.array([0.5, -1.0, 0.2, 0.7]), 1.3)
    disjoint = 0
    for _ in range(40):
        H = _random_hyperplane(rng, 2)
        gap = H.offset - H.coeffs @ complexify(E.center)
        ok, margin = _one_row(E, H, np.angle(gap))
        assert margin == pytest.approx(1.3 - abs(gap), rel=1e-12, abs=1e-12)
        assert ok == (abs(gap) > 1.3)
        disjoint += ok
    assert 10 <= disjoint <= 35


def _mixed_rows(E, rng):
    """Hyperplanes for ``_disjoint_rows``: random ones, projection hyperplanes
    of exterior points, and, where E has lineality L, rows with c . L = 0,
    whose support values can be finite."""
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
    """On mixed rows over the gallery, the benchmark's pointed cones and a
    polytope with lazy support values, every row of one ``_disjoint_rows``
    call equals ``hyperplane_disjoint`` on that row alone."""
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
        ok, margin = certify._disjoint_rows(E, C, b, stripped)
        kinds |= {(E.lineality().shape[0] > 0, bool(k)) for k in ok}
        for k, H in enumerate(planes):
            want = hyperplane_disjoint(E, H)
            assert (bool(ok[k]), stripped[k], margin[k]) == want, (E.json_type, k)
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_connectivity_holds_in_unitary_frames_of_a_pointed_cone(seed):
    """A unitary change of coordinates keeps the family of stable disjoint
    hyperplanes connected: the image of a pointed cone is pointed."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    R = realify(complexify(np.eye(4)) @ U.T).T  # x -> realify(U complexify(x))
    E = HPolyhedron(np.asarray(POINTED_CONE_A) @ np.linalg.inv(R), POINTED_CONE_B)
    res = check_connectivity(E, SamplingPlan())
    assert res.verdict == "certified-exact", res.detail


def test_projection_failure_makes_the_check_inconclusive(monkeypatch, tmp_path):
    """Near-degenerate planes of r2-in-c2 give a singular active set in the
    cone projection, which raises ProjectionDidNotConverge, and a check that
    meets a failed projection is inconclusive with the reason while the
    certificate is still written.  On cone-ex14 weak_projective and
    connectivity meet it.  Siegel2's recession cone has lineality, so
    ``is_zero`` answers without its search: the Farkas LP and the generators
    need no projection, and every check is decided."""
    E = build_example("r2-in-c2")
    for t in (0.3, 1.0, 3.0):
        H = Hyperplane(np.array([1.0, t * np.exp(1e-9j)]), 0.0)
        with pytest.raises(ProjectionDidNotConverge):
            is_stable(E, H.subspace())

    def fail(*args, **kwargs):
        raise ProjectionDidNotConverge("active-set steps did not reach a feasible point")

    monkeypatch.setattr(sets, "_project", fail)
    certs = {}
    for name in ("siegel2", "cone-ex14"):
        out = tmp_path / f"{name}.json"
        assert cli_main(["certify", name, "--samples", "30", "--out", str(out)]) == 0
        certs[name] = json.loads(out.read_text())
    failed = [c for c in certs["cone-ex14"]["checks"]
              if c["detail"].startswith("projection failed: ")]
    assert {"weak_projective", "connectivity"} <= {c["name"] for c in failed}
    assert all(c["verdict"] == "inconclusive" for c in failed)
    checks = {c["name"]: c for c in certs["siegel2"]["checks"]}
    assert not any(c["detail"].startswith("projection failed: ") for c in checks.values())
    assert checks["line_lift"]["verdict"] == "verified-sampled"
    assert checks["connectivity"]["verdict"] == "certified-exact"
    assert certs["siegel2"]["overall"] == "verified-sampled"


def test_line_lift_without_finite_support_is_skipped(monkeypatch):
    """No finite support value is no evidence: on the disc tube, whose lines
    and exterior points are sampled, a line without a finite supporting
    translate is skipped, a plane without a finite margin is not written,
    and the certificate stays finite JSON."""
    def unsupported(E, line):
        raise UnsupportedVariant("no finite supporting direction across the subspace")

    monkeypatch.setattr(certify, "tube_or_support", unsupported)
    monkeypatch.setattr(certify, "_disjoint_rows", lambda E, C, *_: (
        np.zeros(len(C), dtype=bool), np.full(len(C), np.inf)))
    cert = certify_oka_complement(build_example("disc-tube-prop49"), SamplingPlan().scaled(30))
    canonical_json(cert.to_jsonable())

    def floats(node):
        if isinstance(node, dict):
            return [x for v in node.values() for x in floats(v)]
        if isinstance(node, list):
            return [x for v in node for x in floats(v)]
        return [node] if isinstance(node, float) else []

    assert all(np.isfinite(x) for c in cert.checks for w in c.witnesses for x in floats(w))
    lift = cert.check("line_lift")
    assert lift.verdict == "inconclusive" and not lift.witnesses
    assert lift.detail.endswith(f"(skipped={lift.samples})")


def test_numerical_lp_failure_makes_the_check_inconclusive(monkeypatch):
    """An infeasible support LP on a nonempty polyhedron is a solver failure:
    the check that met it is inconclusive with the reason, and the
    certificate is still written.  The line lift of the polyhedral tube
    [-1, 1]^3 x R e0 reads the attainer of that LP in ``tube_or_support``."""
    E = _polyhedral_tube()
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
    plan = SamplingPlan(seed=3, window=4.5)
    fields = [f.name for f in dataclasses.fields(SamplingPlan)]
    assert list(plan.to_jsonable()) == fields
    assert plan.to_jsonable() == {name: getattr(plan, name) for name in fields}
    scaled = plan.scaled(100)
    assert (scaled.seed, scaled.window) == (3, 4.5)


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
    """The line-free ball lifts every stable line by a theorem, with no line
    drawn; the disc tube, a ball times a line, lifts its sampled lines."""
    res = check_line_lift(QuadricBall(np.zeros(4), 1.0), SMALL)
    assert (res.verdict, res.samples, res.witnesses) == ("certified-exact", 0, [])
    res = check_line_lift(build_example("disc-tube-prop49"), SMALL)
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
            H = Hyperplane.from_real_normal(outcome.contact, outcome.normal)
            assert abs(np.dot(H.coeffs, d)) <= 1e-12
            checked += 1
    assert checked >= 200


def _seeded_polytope(rng):
    """A box with random offsets cut by four random halfspaces: bounded,
    line-free; perfbench's certify-polyhedral draws it the same way."""
    cuts = rng.normal(size=(4, 4))
    A = np.vstack([np.eye(4), -np.eye(4), cuts / np.linalg.norm(cuts, axis=1, keepdims=True)])
    return HPolyhedron(A, np.concatenate([rng.uniform(0.5, 1.5, 8), rng.uniform(0.3, 1.0, 4)]))


def _line_free_sets():
    """(name, E): the line-free gallery sets, the cube, both pointed cones,
    cone-ex14 as 8 inequalities, and the certify workloads' seeded polytopes
    and balls at seeds 1-5."""
    out = [(name, build_example(name)) for name in gallery_names()
           if not build_example(name).lineality_exact()[0].shape[0]]
    out += [("cube", HPolyhedron(np.vstack([np.eye(4), -np.eye(4)]), np.ones(8))),
            ("pointed-cone-0", HPolyhedron(POINTED_CONE_A, POINTED_CONE_B)),
            ("pointed-cone-1", HPolyhedron(*POINTED_CONE_2)),
            ("cone-ex14-inequalities",
             HPolyhedron([[s0, s1, s2, -1.0] for s0 in (1, -1) for s1 in (1, -1) for s2 in (1, -1)],
                         np.zeros(8)))]
    for seed in range(1, 6):
        rng = np.random.default_rng([seed, zlib.crc32(b"polytope")])
        out.append((f"seeded-polytope-{seed}", _seeded_polytope(rng)))
        rng = np.random.default_rng([seed, zlib.crc32(b"ball")])
        out.append((f"seeded-ball-{seed}", QuadricBall(rng.uniform(-2.0, 2.0, 4),
                                                       float(rng.uniform(0.5, 2.0)))))
    return out


@pytest.mark.parametrize("name,E", _line_free_sets(), ids=[name for name, _ in _line_free_sets()])
def test_line_free_repairs_and_lifts_are_stable_and_disjoint(name, E):
    """The theorem that weak_projective and line_lift report on line-free
    sets, on the planes they no longer sample.  eta_1, the sum of the
    recession cone's unit ineq rows, is < 0 on every generator ray.  The
    repaired projection planes of 200 exterior points, and the lifts of 100
    sampled stable lines (``_pushed_off_lift``), are all stable by ``stability_states`` and disjoint by ``_disjoint_rows``."""
    plan = SamplingPlan()
    rays, L = E.recession_cone().generators
    ineq = E.recession_cone().ineq
    eta = (ineq / np.linalg.norm(ineq, axis=1, keepdims=True)).sum(axis=0)
    assert L.shape[0] == 0 and np.all(rays @ eta < 0)
    h = E.support(eta).value if eta.any() else 0.0
    qs = E.sample_exterior(plan.rng("projective"), 200, window=plan.window)
    planes = [certify._canonical_exterior_hyperplane(E, q, eta, h) for q in qs]
    lines = _stable_lines(E, plan)[0]
    assert len(qs) == 200 and None not in planes and len(lines) == 100
    planes += [_pushed_off_lift(E, line) for line in lines]
    C, b, stripped = certify._hyperplane_rows(planes, E.complex_n())
    assert stability_states(E, C)[0].all()
    assert certify._disjoint_rows(E, C, b, stripped)[0].all()


def _pushed_off_lift(E, line):
    """The lift of ``line`` that ``check_line_lift`` counts: the complex
    tangent of the real hyperplane supporting E at the contact point of
    ``tube_or_support``, pushed off E along its unit normal."""
    out = tube_or_support(E, line)
    delta = 1e-3 * (1.0 + np.linalg.norm(out.contact))
    return Hyperplane.from_real_normal(out.contact + delta * out.normal, out.normal)


def _seeded_lineality_sets():
    """(name, E): siegel2, siegel3, the disc tube, and the certify-smooth
    workload's seeded Siegel dilations and disc tubes at seeds 1-5, drawn as
    perfbench draws them."""
    out = [(name, build_example(name)) for name in ("siegel2", "siegel3", "disc-tube-prop49")]
    for seed in range(1, 6):
        rng = np.random.default_rng([seed, zlib.crc32(b"dilation")])
        a, b, c = rng.uniform(-1.0, 1.0, 3)
        center = [a, b, c, a * a + b * b + rng.uniform(0.1, 1.0)]
        out.append((f"seeded-siegel-dilation-{seed}",
                    Dilation(SiegelClosure(2), float(rng.uniform(1.5, 3.0)), center=center)))
        rng = np.random.default_rng([seed, zlib.crc32(b"disc-tube")])
        out.append((f"seeded-disc-tube-{seed}",
                     Tube(QuadricBall(rng.uniform(-1.0, 1.0, 3), float(rng.uniform(0.5, 1.5))),
                          [1, 2, 3], [0])))
    return out


@pytest.mark.parametrize("name,E", _seeded_lineality_sets(),
                         ids=[name for name, _ in _seeded_lineality_sets()])
def test_line_lifts_are_stable_and_disjoint_with_one_line(name, E):
    """What ``check_line_lift`` no longer checks on a set with dim L = 1:
    the lift of every sampled stable line at the benchmark's plan
    (scaled(30), seed 42) and at SMALL is stable by ``stability_states``
    and, pushed off E along its normal, separated by ``_disjoint_rows``."""
    assert E.lineality_exact()[0].shape[0] == 1
    for plan in (SamplingPlan().scaled(30), SMALL):
        planes = [_pushed_off_lift(E, line) for line in _stable_lines(E, plan)[0]]
        assert len(planes) == plan.lines
        C, b, stripped = certify._hyperplane_rows(planes, E.complex_n())
        assert stability_states(E, C)[0].all()
        assert certify._disjoint_rows(E, C, b, stripped)[0].all()
        assert check_line_lift(E, plan).samples == plan.lines


def test_weak_projective_reports_skipped_exterior_samples(monkeypatch):
    """Exterior points whose projection fails are counted in the detail."""
    E = build_example("disc-tube-prop49")
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
# stable lines
# ---------------------------------------------------------------------------

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
    siegel3 (lines in C^3, decided one by one), and halfspace and a set
    with lineality R e0 whose rays leave no hyperplane stable by
    PLANAR_MARGIN (no stable line: on the latter, whose lines are sampled,
    the check is inconclusive after all 10 lines draws)."""
    E = HPolyhedron(POINTED_CONE_A, POINTED_CONE_B)
    thin = HPolyhedron([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0],
                        [0.0, 1e-8, -1.0, 0.0], [0.0, -1e-8, -1.0, 0.0]], np.ones(4))
    for E, plan, none in [(E, SamplingPlan(), False), (E, SamplingPlan(seed=5).scaled(30), False),
                          (SiegelClosure(3), SMALL, False),
                          (build_example("halfspace"), SMALL, True), (thin, SMALL, True)]:
        got, want = _stable_lines(E, plan), _reference_stable_lines(E, plan)
        assert got[1] == want[1] and len(got[0]) == len(want[0])
        for a, b in zip(got[0], want[0]):
            assert np.array_equal(a.base, b.base) and np.array_equal(a.directions, b.directions)
        assert (want == ([], 10 * SMALL.lines)) == none
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

def test_projection_hyperplanes_miss_E_by_their_distance():
    """A projection hyperplane through q misses E by exactly the distance of
    q from E: every stable-hyperplane witness on siegel2, the disc tube
    (SMALL) and the polyhedral tube [-1, 1]^3 x R e0 (scaled(30)) has margin
    -|q - nearest_boundary(q)| at its separating angle."""
    for E, plan in [(build_example("siegel2"), SMALL), (build_example("disc-tube-prop49"), SMALL),
                    (_polyhedral_tube(), SamplingPlan().scaled(30))]:
        res = check_weak_projective(E, plan)
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
# connectivity from the recession cone
# ---------------------------------------------------------------------------

def _polyhedral_tube():
    """The cube [-1, 1]^3 in x1..x3 times the free line R e0: K = span(e0), no rays."""
    A = np.zeros((6, 4))
    A[:, 1:] = np.vstack([np.eye(3), -np.eye(3)])
    return HPolyhedron(A, np.ones(6))


def _skew_ray_cones():
    """Two polyhedra with lineality R e0 whose rays leave the complex line
    of e0 (w != 0).  Class sigma holds a stable hyperplane exactly when
    -sigma i e0 = -sigma e1 is no recession direction (Gordan): in
    {x1 >= |x2| + |x3| - 1} e1 recedes and -e1 does not, so one class; in
    {|x3| <= 1, x2 >= |x1| - 1}, with rays (0, +-1, 1, 0) / sqrt 2, neither
    recedes, so two."""
    one = HPolyhedron([[0.0, -1.0, s2, s3] for s2 in (1, -1) for s3 in (1, -1)], np.ones(4))
    two = HPolyhedron([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0],
                       [0.0, 1.0, -1.0, 0.0], [0.0, -1.0, -1.0, 0.0]], np.ones(4))
    return one, two


def _seeded_pointed_cone():
    """{A x <= 1} for six random rows on one side of a random direction d:
    a pointed K that holds -d."""
    rng = np.random.default_rng(4417)
    d = rng.normal(size=4)
    A = rng.normal(size=(6, 4))
    A[A @ d < 0] *= -1.0
    return HPolyhedron(A, np.ones(6))


def _classifier_sets():
    """(name, E, components) for every cone type the classifier reads."""
    one, two = _skew_ray_cones()
    counts = {"siegel2": 1, "siegel3": 1, "cone-ex14": 1, "tube-ex45": 1,
              "disc-tube-prop49": 2, "r2-in-c2": 0, "halfspace": 0, "ball": 1}
    return ([(name, build_example(name), counts[name]) for name in gallery_names()]
            + [("pointed-cone-0", HPolyhedron(POINTED_CONE_A, POINTED_CONE_B), 1),
               ("pointed-cone-1", HPolyhedron(*POINTED_CONE_2), 1),
               ("seeded-pointed-cone", _seeded_pointed_cone(), 1),
               ("polyhedral-tube", _polyhedral_tube(), 2),
               ("siegel-dilation", Dilation(SiegelClosure(2), 2.2, center=[0.3, -0.4, 0.5, 0.6]), 1),
               ("skew-rays-one-class", one, 1), ("skew-rays-two-classes", two, 2)])


def _evidence_sets():
    """(name, E): line-free sets, with and without rays, and the dim L = 1
    sets whose unstable projection planes are repaired."""
    return ([("pointed-cone-0", HPolyhedron(POINTED_CONE_A, POINTED_CONE_B))]
            + [(name, build_example(name))
               for name in ("ball", "cone-ex14", "siegel2", "siegel3", "disc-tube-prop49")]
            + [("polyhedral-tube", _polyhedral_tube()), _seeded_lineality_sets()[3]])


@pytest.mark.parametrize("name,E", _evidence_sets(), ids=[name for name, _ in _evidence_sets()])
def test_hyperplane_disjoint_tries_the_stripped_phase(name, E, monkeypatch):
    """Every stable plane that weak_projective builds, repaired ones
    included, misses E at the phase its constructor strips, the one angle
    ``_disjoint_rows`` tries: ``hyperplane_disjoint`` separates it there,
    its margin is the scalar support at that angle minus the offset, and no
    stable plane is dropped from the evidence."""
    seen, real = [], certify._evidence

    def record(E, planes, stable, aperture):
        evidence = real(E, planes, stable, aperture)
        seen.append(([H for (_, H), keep in zip(planes, stable) if keep], evidence))
        return evidence

    monkeypatch.setattr(certify, "_evidence", record)
    plan = SamplingPlan()
    res = check_weak_projective(E, plan)
    ((kept, evidence),) = seen
    assert kept and len(evidence) == len(kept)
    assert res.witnesses == evidence[:max(8, plan.hyperplanes)]
    for H, w in zip(kept, evidence):
        ok, theta, margin = hyperplane_disjoint(E, H)
        want = E.support(H.real_eta(theta)).value - np.real(np.exp(-1j * theta) * H.offset)
        assert ok and theta == H.stripped_theta
        assert margin == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert (w["hyperplane"], w["theta"], w["margin"]) == (H.to_jsonable(), theta, margin)


def _kept_rows(E, rng, draws=2000):
    """The seeded rows (c, beta), rotated by the angle that separates them,
    that ``stability_states`` calls stable and ``_disjoint_rows`` disjoint.
    Half the real covectors at the stripped phase are Gaussian, half polar to
    the recession cone {eq x = 0, ineq x <= 0}: mu eq + lambda ineq with
    lambda >= 0.  beta is Gaussian, or, where the support value h at the
    stripped phase is finite, past it: Re beta = h + U(0.1, 3), as the one
    angle tried is that phase."""
    n, cone = E.complex_n(), E.recession_cone()
    eta = rng.normal(size=(draws, 2 * n))
    mu = rng.normal(size=(draws // 2, cone.eq.shape[0]))
    lam = rng.uniform(0.0, 1.0, size=(draws // 2, cone.ineq.shape[0]))
    eta[draws // 2:] = mu @ cone.eq + lam @ cone.ineq
    h = np.fromiter(E.support_values(eta), float, count=draws)
    b = rng.normal(scale=4.0, size=draws) + 1j * rng.normal(scale=4.0, size=draws)
    b.real = np.where(np.isfinite(h), h + rng.uniform(0.1, 3.0, draws), b.real)
    planes = [Hyperplane(np.conj(complexify(e)), beta) for e, beta in zip(eta, b)]
    C, b, stripped = certify._hyperplane_rows(planes, n)
    stable = stability_states(E, C)[0]
    keep = stable & certify._disjoint_rows(E, C, b, stripped)[0]
    rot = np.exp(-1j * stripped[keep])[:, None]
    return rot * C[keep], rot[:, 0] * b[keep]


def _segments_stable(E, C, pairs, steps=64):
    """Is every step of each straight segment between rows C[i] and C[j] stable?"""
    ts = np.linspace(0.0, 1.0, steps)[None, :, None]
    rows = (1 - ts) * C[[i for i, _ in pairs]][:, None] + ts * C[[j for _, j in pairs]][:, None]
    return stability_states(E, rows.reshape(-1, C.shape[1]))[0].reshape(len(pairs), steps).all(1)


@pytest.mark.parametrize("name,E,components", _classifier_sets(),
                         ids=[entry[0] for entry in _classifier_sets()])
def test_connectivity_counts_match_seeded_rows(name, E, components):
    """The classifier's component count against 2,000 seeded rows (c, beta)
    per set, rotated by their separating angle.

    * 0: no row is both stable and disjoint.
    * 2 (lineality R v): rows occur on both sides Im(beta / c.v) of the
      shadow; every segment between opposite sides passes through c.v = 0,
      an unstable hyperplane, and every segment within one side is stable at
      every step.
    * 1: every segment between kept rows is stable at every step, and with
      rays every kept row has the one realizable sign of Im(c.r / c.v)."""
    res = check_connectivity(E, SamplingPlan())
    assert res.samples == 0
    count = {"certified-exact": 1, "refuted": 0 if res.witnesses[0]["kind"] == "line-direction"
             else res.witnesses[0]["components"]}[res.verdict]
    assert count == components, (res.verdict, res.detail)
    C, b = _kept_rows(E, np.random.default_rng(zlib.crc32(name.encode())))
    if count == 0:
        assert C.shape[0] == 0
        return
    assert C.shape[0] >= 20
    pairs = [(i, j) for i in range(24) for j in range(i + 1, 24)]  # segments: the first 24
    rays, L = E.recession_cone().generators
    if L.shape[0] == 0:
        assert _segments_stable(E, C, pairs).all()
        return
    cv = C @ complexify(L[0])
    if count == 1:
        assert _segments_stable(E, C, pairs).all()
        sign = np.sign(np.imag((C @ complexify(rays).T) / cv[:, None]))
        (c, side), = certify._side_representatives(E, rays, L[0])
        assert np.all(sign == -side)
        return
    x0 = complexify(E.sample_boundary(np.random.default_rng(0), 1, window=8.0)[0])
    side = np.sign(np.imag((b - C @ x0) / cv))
    assert set(side) == {-1.0, 1.0}
    # the rotated c.v are -side i |c.v|: opposite points of the imaginary axis
    assert np.allclose(cv.real, 0.0, atol=1e-9) and np.all(np.sign(cv.imag) == -side)
    across = [(i, j) for i, j in pairs if side[i] != side[j]]
    within = [(i, j) for i, j in pairs if side[i] == side[j]]
    assert across and within and _segments_stable(E, C, within).all()
    i, j = np.array(across).T
    t = (np.abs(cv[i]) / (np.abs(cv[i]) + np.abs(cv[j])))[:, None]
    assert not stability_states(E, (1 - t) * C[i] + t * C[j])[0].any()


@pytest.mark.parametrize("E", [build_example("disc-tube-prop49"),
                               Tube(QuadricBall(np.array([0.4, -0.3, 0.8]), 0.7), [1, 2, 3], [0]),
                               _polyhedral_tube(), _skew_ray_cones()[1]],
                         ids=["disc-tube", "seeded-disc-tube", "polyhedral-tube", "skew-rays"])
def test_disconnected_family_is_refuted_with_recheckable_sides(E):
    """Two stable representatives on opposite sides of the shadow, each
    missing E by 1 at the angle of its strip normal (a plane read from JSON
    has stripped phase about 0), and a certificate whose refutation
    witnesses all recheck."""
    res = check_connectivity(E, SMALL)
    assert res.verdict == "refuted"
    (w,) = res.witnesses
    assert (w["kind"], w["components"], len(w["representatives"])) == (
        "disconnected-components", 2, 2)
    v = complexify(np.array(w["direction"]))
    x0 = complexify(E.sample_boundary(np.random.default_rng(1), 1, window=8.0)[0])
    sides = []
    for entry in w["representatives"]:
        H = Hyperplane.from_jsonable(entry)
        assert stability_states(E, H.coeffs[None])[0][0]
        side = np.sign(np.imag((H.offset - H.coeffs @ x0) / (H.coeffs @ v)))
        normal = certify._strip_covector(H.coeffs, np.array(w["direction"]), side)[0]
        ok, margin = _one_row(E, H, np.angle(normal))
        assert ok and margin == pytest.approx(-1.0, rel=1e-9)
        sides.append(side)
    assert sorted(sides) == [-1.0, 1.0]
    assert recheck_witness(E, w)
    cert = certify_oka_complement(E, SMALL)
    rechecks = recheck_certificate(E, cert)
    assert rechecks and all(ok for *_, ok in rechecks)


def test_recheck_rejects_representatives_on_one_side():
    """Both representatives on one side, or one that meets E, fail the recheck."""
    E = build_example("disc-tube-prop49")
    w = check_connectivity(E, SMALL).witnesses[0]
    first, second = w["representatives"]
    assert not recheck_witness(E, dict(w, representatives=[first, first]))
    meets = dict(second, offset=[0.0, 0.0])
    assert not recheck_witness(E, dict(w, representatives=[first, meets]))
    assert not recheck_witness(E, dict(w, direction=[0.0, 1.0, 0.0, 0.0]))


def test_connectivity_without_a_count_is_inconclusive():
    """No count past the vertex cap, where a pointed cone cut out by 2,000
    rows has no generators, nor when no sign class holds a hyperplane stable
    by ``PLANAR_MARGIN``: the rays (0, +-1, 1e-8, 0) leave both classes, but
    only to covectors with |c.v| near 1e-8 |c|."""
    rng = np.random.default_rng(8213)
    d = rng.normal(size=4)
    A = rng.normal(size=(2000, 4))
    A[A @ d > 0] *= -1.0
    res = check_connectivity(HPolyhedron(A, np.ones(2000)), SMALL)
    assert (res.verdict, res.witnesses) == ("inconclusive", [])
    assert res.detail == "unknown cone: no generators past the vertex cap"
    thin = HPolyhedron([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0],
                        [0.0, 1e-8, -1.0, 0.0], [0.0, -1e-8, -1.0, 0.0]], np.ones(4))
    res = check_connectivity(thin, SMALL)
    assert (res.verdict, res.witnesses) == ("inconclusive", [])
    assert res.detail == "line-and-rays cone: no sign class has a stable hyperplane"


@pytest.mark.parametrize("E", _skew_ray_cones(), ids=["one-class", "two-classes"])
def test_repaired_planes_with_rays_are_stable_and_disjoint(E, monkeypatch):
    """On the skew-ray cones, where dim L = 1 and the rays leave the complex
    line of e0, most projection planes read unstable at the default plan.
    Each is repaired along the strip covector of its own sign class, and
    every repaired plane is stable by ``stability_states`` and separated by
    ``_disjoint_rows``."""
    repaired, real = [], certify._canonical_exterior_hyperplane

    def record(E, q, eta=None, h=0.0):
        H = real(E, q, eta, h)
        if eta is not None:
            repaired.append(H)
        return H

    monkeypatch.setattr(certify, "_canonical_exterior_hyperplane", record)
    res = check_weak_projective(E, SamplingPlan())
    assert res.verdict == "verified-sampled" and len(res.witnesses) == 60
    assert len(repaired) > 100 and None not in repaired
    C, b, stripped = certify._hyperplane_rows(repaired, 2)
    assert stability_states(E, C)[0].all()
    assert certify._disjoint_rows(E, C, b, stripped)[0].all()


def test_weak_projective_without_a_repair_is_inconclusive(monkeypatch):
    """With dim L = 1 an unstable projection plane is repaired, never a
    refutation: where no sign class holds a hyperplane stable by
    ``PLANAR_MARGIN`` (the thin set above), or no generators are known, the
    check is inconclusive with the reason."""
    thin = HPolyhedron([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0],
                        [0.0, 1e-8, -1.0, 0.0], [0.0, -1e-8, -1.0, 0.0]], np.ones(4))
    res = check_weak_projective(thin, SMALL)
    assert (res.verdict, res.witnesses) == ("inconclusive", [])
    assert res.detail == (f"{SMALL.exterior} unstable projection planes and no stable sign "
                          f"class to repair them along")
    monkeypatch.setattr(sets.RecessionCone, "generators", property(lambda cone: None))
    res = check_weak_projective(_polyhedral_tube(), SamplingPlan())
    assert (res.verdict, res.witnesses) == ("inconclusive", [])
    assert res.detail.endswith(" unstable projection planes and no generators past the vertex cap")


def test_default_cone_ex14_certificate_calls_is_stable_rarely(monkeypatch):
    """A default-plan cone-ex14 certificate makes no ``is_stable`` call:
    it has no C1 tangent plane, and on a line-free set no other check
    decides an unstable plane."""
    calls, real = [], certify.is_stable
    monkeypatch.setattr(certify, "is_stable", lambda *a: calls.append(1) or real(*a))
    certify_oka_complement(build_example("cone-ex14"))
    assert not calls


def _line_free_benchmark_sets():
    return [build_example("cone-ex14"), HPolyhedron(POINTED_CONE_A, POINTED_CONE_B),
            HPolyhedron(*POINTED_CONE_2),
            HPolyhedron(np.vstack([np.eye(4), -np.eye(4)]), np.ones(8))]


def test_line_free_certificates_draw_no_line(monkeypatch):
    """Default-plan certificates of cone-ex14, both pointed cones and the
    cube call neither ``tube_or_support`` nor ``_stable_lines``, and their
    line_lift, certified-exact, solves no LP on a fresh copy of the set."""
    calls, lps = [], []
    for name in ("tube_or_support", "_stable_lines"):
        real = getattr(certify, name)
        monkeypatch.setattr(certify, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
    for E in _line_free_benchmark_sets():
        assert certify_oka_complement(E).check("line_lift").verdict == "certified-exact"
    assert calls == []
    for module in (certify, sets, functions):
        monkeypatch.setattr(module, "solve_lp", lambda *a, **k: lps.append(1) or solve_lp(*a, **k))
    for E in _line_free_benchmark_sets():
        assert check_line_lift(E, SamplingPlan()).verdict == "certified-exact"
    assert lps == []


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
