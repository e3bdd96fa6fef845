"""Line-fixing automorphisms of C^2 and the attracting-basin experiment."""

import numpy as np
import pytest

from okacert.basin import (
    BASIN,
    ESCAPE,
    UNDECIDED,
    BasinConfig,
    BaseScale,
    Composite,
    FiberScale,
    Shear,
    automorphism_from_jsonable,
    basin_report,
    classify_points,
    design_contraction_step,
    rate_brackets,
    slice_grid,
)
from okacert.errors import DesignFailed


def _sample_maps():
    return [
        Shear([0.3, -0.1 + 0.2j]),
        FiberScale([0.0, 0.25j, -0.05]),
        BaseScale([0.0, 0.1, 0.02j], [0.2, -0.1]),
        Composite([FiberScale([0.0, 0.2]), BaseScale([0.0, -0.1], [0.3]),
                   Shear([0.15j])]),
    ]


# ---------------------------------------------------------------------------
# automorphism family
# ---------------------------------------------------------------------------

def test_fixed_line_is_fixed_exactly():
    rng = np.random.default_rng(601)
    pts = np.stack([rng.normal(size=40) + 1j * rng.normal(size=40),
                    np.zeros(40, dtype=complex)], axis=-1)
    for psi in _sample_maps():
        w = psi.apply(pts)
        assert np.array_equal(w, pts)  # bitwise, not just within tolerance


def test_inverse_roundtrip():
    rng = np.random.default_rng(602)
    z = rng.normal(size=(60, 2)) + 1j * rng.normal(size=(60, 2))
    for psi in _sample_maps():
        inv = psi.inverse()
        back = inv.apply(psi.apply(z))
        err = np.linalg.norm(back - z, axis=-1)
        assert np.max(err / (1 + np.linalg.norm(z, axis=-1))) < 1e-12
        fwd = psi.apply(inv.apply(z))
        assert np.max(np.linalg.norm(fwd - z, axis=-1)) < 1e-10


def test_jacobian_matches_complex_finite_difference():
    rng = np.random.default_rng(603)
    h = 1e-6
    for psi in _sample_maps():
        for _ in range(8):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            J = psi.jacobian(z)
            for j in range(2):
                e = np.zeros(2, dtype=complex)
                e[j] = h
                fd = (psi.apply(z + e) - psi.apply(z - e)) / (2 * h)
                assert np.max(np.abs(fd - J[:, j])) < 1e-5


def test_composition_applies_rightmost_factor_first():
    A = Shear([1.0])
    B = FiberScale([0.0, 1.0])
    z = np.array([0.5 + 0j, 2.0 + 0j])
    assert np.allclose(Composite([A, B]).apply(z), A.apply(B.apply(z)))
    assert not np.allclose(Composite([A, B]).apply(z),
                           B.apply(A.apply(z)))


def test_jsonable_roundtrip():
    rng = np.random.default_rng(604)
    z = rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))
    for psi in _sample_maps():
        clone = automorphism_from_jsonable(psi.to_jsonable())
        assert np.allclose(clone.apply(z), psi.apply(z), atol=1e-14)


def test_base_scale_requires_vanishing_h_at_zero():
    with pytest.raises(ValueError):
        BaseScale([0.5, 1.0], [0.0])


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_rejects_bad_rates_and_geometry():
    with pytest.raises(ValueError):  # need a < 1/2 < b
        BasinConfig(rate_low=0.6, rate_high=0.7, rate_target=0.65)
    with pytest.raises(ValueError):  # need b^2 < a
        BasinConfig(rate_low=0.3, rate_high=0.9, rate_target=0.45)
    with pytest.raises(ValueError):  # target outside (a, b)
        BasinConfig(rate_target=0.25)
    with pytest.raises(ValueError):  # fixed point on the invariant line
        BasinConfig(fixed_point=np.array([1.0 + 0j, 0.0 + 0j]))
    with pytest.raises(ValueError):  # fixed point inside K
        BasinConfig(k_center=np.array([0.0 + 0j, 1.1 + 0j]), k_radius=0.5)
    with pytest.raises(ValueError):
        BasinConfig(slice_plane="diag")


def test_config_jsonable_roundtrip():
    cfg = BasinConfig(grid_n=50, slice_plane="z2", epsilon=0.04)
    clone = BasinConfig.from_jsonable(cfg.to_jsonable())
    assert clone.to_jsonable() == cfg.to_jsonable()


# ---------------------------------------------------------------------------
# contraction design
# ---------------------------------------------------------------------------

def test_default_design_meets_every_requirement():
    cfg = BasinConfig()
    design = design_contraction_step(cfg)
    d = design.diagnostics
    assert d["fixed_point_error"] <= 1e-12
    lam = cfg.rate_target
    assert abs(d["singular_values"][0] - lam) < 1e-9
    assert abs(d["singular_values"][1] - lam) < 1e-9
    assert d["k_deviation"] <= cfg.epsilon
    for lo, hi in d["sphere_ratios"].values():
        assert cfg.rate_low < lo <= hi < cfg.rate_high
    # the differential at the fixed point is lambda times a unitary matrix
    J = design.psi.jacobian(cfg.fixed_point)
    assert np.allclose(J @ J.conj().T, lam * lam * np.eye(2), atol=1e-10)


def test_design_fails_honestly_when_epsilon_unreachable():
    cfg = BasinConfig(epsilon=1e-7)
    with pytest.raises(DesignFailed):
        design_contraction_step(cfg)
    report, csv_text, svg_text = basin_report(cfg)
    assert report["status"] == "inconclusive"
    assert report["design"]["status"] == "failed"
    assert "reason" in report["design"]
    assert csv_text is None and svg_text is None


def test_attracting_estimate_and_iterated_brackets():
    cfg = BasinConfig()
    design = design_contraction_step(cfg)
    radius = design.diagnostics["estimate_radius"]
    assert len(design.diagnostics["sphere_ratios"]) == 3
    brackets = rate_brackets(design.psi, cfg, radius / 2)
    assert [b["k"] for b in brackets] == [1, 2, 3, 4, 5, 6]
    for b in brackets:
        assert b["ok"]
        assert b["lower"] * (1 - 1e-9) <= b["min_ratio"]
        assert b["max_ratio"] <= b["upper"] * (1 + 1e-9)
    # deeper iterates contract strictly harder
    maxima = [b["max_ratio"] for b in brackets]
    assert all(m2 < m1 for m1, m2 in zip(maxima, maxima[1:]))


# ---------------------------------------------------------------------------
# grid simulation
# ---------------------------------------------------------------------------

def test_slice_grid_planes():
    for plane, n in (("re", 30), ("im", 30), ("z1", 20), ("z2", 20)):
        cfg = BasinConfig(grid_n=n, slice_plane=plane)
        pts, xs, ys = slice_grid(cfg)
        assert pts.shape == (n * n, 2) and len(xs) == len(ys) == n
        if plane == "re":
            assert np.all(pts.imag == 0)
        elif plane == "im":
            assert np.all(pts.real == 0)
        elif plane == "z1":
            assert np.all(pts[:, 1] == cfg.fixed_point[1])
        else:
            assert np.all(pts[:, 0] == cfg.fixed_point[0])


def test_classification_of_transparent_points():
    cfg = BasinConfig()
    psi = design_contraction_step(cfg).psi
    f = cfg.fixed_point
    pts = np.array([
        f,                                   # already converged
        f + np.array([0.002 + 0j, 0.0]),     # inside the attracting estimate
        np.array([0.0 + 0j, 100.0 + 0j]),    # blown out by the fiber factor
        cfg.k_center,                        # on the fixed line: parked forever
    ])
    labels, steps = classify_points(psi, pts, cfg)
    assert list(labels) == [BASIN, BASIN, ESCAPE, UNDECIDED]
    assert steps[0] == 1 and steps[3] == cfg.max_iter


def test_basin_report_small_grid():
    cfg = BasinConfig(grid_n=40, max_iter=80)
    report, csv_text, svg_text = basin_report(cfg, want_svg=True)
    assert report["status"] == "ok"
    counts = report["grid"]["counts"]
    assert sum(counts.values()) == 1600
    assert counts[BASIN] > 0
    a = report["assertions"]
    assert a["basin_points_in_k"] == 0
    assert a["basin_points_near_fixed_line"] == 0
    assert a["k_grid_points"] >= 0 and a["near_line_grid_points"] >= 0
    assert all(b["ok"] for b in report["brackets"])
    lines = csv_text.strip().split("\n")
    assert lines[0] == "re_z1,im_z1,re_z2,im_z2,label,steps"
    assert len(lines) == 1601
    assert svg_text.startswith("<svg") and svg_text.endswith("</svg>")
