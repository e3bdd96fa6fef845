"""Frame invariance: certificates of E and of its complex-affine images agree.

A map g(z) = M z + a with M in GL(n, C) carries complex hyperplanes, the
recession cone and stable disjoint families of E onto those of gE, and the
Oka property of the complement with them, so the certificates of E and gE
must not contradict each other.  Sampled checks may still read verified in
one frame and inconclusive in another, so verdicts are compared, not floats.
"""

import numpy as np
import pytest

from okacert import certify
from okacert.certify import (SamplingPlan, certify_oka_complement, check_connectivity,
                             check_weak_projective, recheck_certificate, recheck_witness)
from okacert.gallery import build_example
from okacert.geometry import realify
from okacert.sets import HPolyhedron
from okacert.stability import stability_states

# The two pointed six-facet cones {A x <= b} of the polyhedral benchmark
# (tests/test_stability.py::_POINTED_CONES).
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


# The cube [-1, 1]^3 in x1..x3 times the free line R e0
_POLYHEDRAL_TUBE = (np.hstack([np.zeros((6, 1)), np.vstack([np.eye(3), -np.eye(3)])]), np.ones(6))


def _sets():
    """(A, b) of each polyhedron {A x <= b}, by name: cone-ex14 is
    {x3 >= |x0| + |x1| + |x2|}, the seeded polytope a box cut by four
    random halfspaces and the polyhedral tube [-1, 1]^3 x R e0."""
    sets = {f"pointed-cone-{k}": Ab for k, Ab in enumerate(_POINTED_CONES)}
    sets["polyhedral-tube"] = _POLYHEDRAL_TUBE
    sets["cube"] = (np.vstack([np.eye(4), -np.eye(4)]), np.ones(8))
    sets["cone-ex14"] = ([[s0, s1, s2, -1.0] for s0 in (1, -1) for s1 in (1, -1) for s2 in (1, -1)],
                         np.zeros(8))
    rng = np.random.default_rng(7)
    cuts = rng.normal(size=(4, 4))
    sets["seeded-polytope"] = (
        np.vstack([np.eye(4), -np.eye(4), cuts / np.linalg.norm(cuts, axis=1, keepdims=True)]),
        np.concatenate([rng.uniform(0.5, 1.5, 8), rng.uniform(0.3, 1.0, 4)]))
    for name in ("r2-in-c2", "halfspace"):
        E = build_example(name)
        sets[name] = (E.A_raw, E.b_raw)
    return sets


def _linear_map(seed, unitary):
    """M = G1 + i G2 from default_rng(seed), or the unitary factor of its QR."""
    g = np.random.default_rng(seed)
    M = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
    return np.linalg.qr(M)[0] if unitary else M


def _image(A, b, M, a):
    """gE = {x : A R^-1 (x - a) <= b} for the realified map R of M."""
    R = np.column_stack([realify(M @ (u * e)) for e in np.eye(2) for u in (1, 1j)])
    A = np.asarray(A, float) @ np.linalg.inv(R)
    return HPolyhedron(A, np.asarray(b, float) + A @ a)


# two complex-linear frames (the first, default_rng(102), once made connectivity
# fail to project on pointed-cone-0) and two unitary ones, each with a translation
_FRAMES = [(102, False), (103, False), (201, True), (202, True)]


@pytest.mark.parametrize("name", sorted(_sets()))
def test_certificates_agree_across_frames(name):
    """E and its four images: equal overall verdicts, equal certified-exact
    checks, no check refuted in one frame and verified in another, the same
    connectivity verdict and component count, and every refutation witness
    rechecks in its own frame.  On a line-free E, weak_projective, line_lift
    and chart_compact are certified-exact in every frame."""
    images = _images(*_sets()[name])
    certs = [certify_oka_complement(E, SamplingPlan().scaled(30)) for E in images]
    assert len({c.overall for c in certs}) == 1, [c.overall for c in certs]
    if not images[0].lineality_exact()[0].shape[0]:
        for cert in certs:
            for check in ("weak_projective", "line_lift", "chart_compact"):
                assert cert.check(check).verdict == "certified-exact", (check, cert.check(check))
    names = [c.name for c in certs[0].checks]
    for check in names:
        verdicts = {cert.check(check).verdict for cert in certs}
        assert len(verdicts) == 1 or "certified-exact" not in verdicts, (check, verdicts)
        assert not ("refuted" in verdicts and verdicts & {"verified-sampled", "certified-exact"}), \
            (check, verdicts)
    assert len({(cert.check("connectivity").verdict, _components(cert.check("connectivity")))
                for cert in certs}) == 1
    for E, cert in zip(images, certs):
        assert all(ok for *_, ok in recheck_certificate(E, cert))


def _images(A, b):
    """{A x <= b} and its images under the four frames."""
    images = [HPolyhedron(A, b)]
    for k, (seed, unitary) in enumerate(_FRAMES):
        shift = np.random.default_rng([seed, k]).normal(size=4)
        images.append(_image(A, b, _linear_map(seed, unitary), shift))
    return images


def test_polyhedral_tube_has_two_components_in_every_frame():
    """The cube [-1, 1]^3 in x1..x3 times the free line R e0: connectivity is
    refuted with two components in all five frames, and each witness
    rechecks in its own frame."""
    for E in _images(*_POLYHEDRAL_TUBE):
        res = check_connectivity(E, SamplingPlan().scaled(30))
        assert (res.verdict, _components(res)) == ("refuted", 2), res.detail
        assert recheck_witness(E, res.witnesses[0])


def test_polyhedral_tube_repairs_are_stable_and_disjoint_in_every_frame(monkeypatch):
    """What weak_projective no longer checks on a set with dim L = 1: in all
    five frames of the polyhedral tube at the default plan, where some
    projection planes hold the line and read unstable, every plane repaired
    along a strip covector is stable by ``stability_states`` and separated
    by ``_disjoint_rows``, and the check is verified-sampled."""
    repaired, real = [], certify._canonical_exterior_hyperplane

    def record(E, q, eta=None, h=0.0):
        H = real(E, q, eta, h)
        if eta is not None:
            repaired.append(H)
        return H

    monkeypatch.setattr(certify, "_canonical_exterior_hyperplane", record)
    for E in _images(*_POLYHEDRAL_TUBE):
        repaired.clear()
        res = check_weak_projective(E, SamplingPlan())
        assert res.verdict == "verified-sampled" and len(res.witnesses) == 60, res.detail
        assert repaired and None not in repaired
        C, b, stripped = certify._hyperplane_rows(repaired, 2)
        assert stability_states(E, C)[0].all()
        assert certify._disjoint_rows(E, C, b, stripped)[0].all()


def _components(res):
    """The component count a connectivity result reports: 0 for an empty family."""
    return 0 if res.witnesses[0]["kind"] == "line-direction" else res.witnesses[0]["components"]


def test_ill_conditioned_frame_of_a_pointed_cone_connects():
    """In the complex-linear frame default_rng(102) (condition number 4.2)
    of pointed-cone-0 the image cone is pointed and connectivity is exact."""
    A, b = _sets()["pointed-cone-0"]
    M = _linear_map(102, unitary=False)
    assert np.linalg.cond(M) == pytest.approx(4.2074, abs=1e-4)
    res = check_connectivity(_image(A, b, M, np.zeros(4)), SamplingPlan())
    assert (res.verdict, res.detail) == (
        "certified-exact", "pointed cone: the stable disjoint hyperplanes form 1 component")
