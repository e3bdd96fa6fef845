"""Line-fixing automorphisms of C^2 and the attracting-basin experiment."""

import json

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from okacert.basin import (
    BASIN,
    ESCAPE,
    FIXED_POINT_MISMATCH,
    UNDECIDED,
    AutomorphismSpec,
    BasinConfig,
    BaseScale,
    Composite,
    FiberScale,
    Shear,
    _TUBE_DELTA,
    _csv_rows,
    _dist,
    _in_tube,
    _k_samples,
    _polyval,
    _sphere_dirs,
    _sphere_ratios,
    automorphism_from_jsonable,
    basin_report,
    classify_points,
    design_contraction_step,
    rate_brackets,
    slice_grid,
)
from okacert.cli import EXIT_INCONCLUSIVE, main
from okacert.errors import DesignFailed, Overflow


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
    """Also where exp(g(z1)) of the default design's fiber factor overflows."""
    rng = np.random.default_rng(601)
    z1 = rng.uniform(-3, 3, 500) + 1j * rng.uniform(-3, 3, 500)
    pts = np.stack([z1, np.zeros(500, dtype=complex)], axis=-1)
    for psi in _sample_maps() + [design_contraction_step(BasinConfig()).psi]:
        w = psi.apply(pts)
        assert np.array_equal(w, pts)  # bitwise, not just within tolerance
        assert np.array_equal(psi.apply(pts[0]), pts[0])


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


def _bits(z):
    return np.ascontiguousarray(z, dtype=complex).view(np.int64)


def test_columns_equal_apply_bit_for_bit():
    rng = np.random.default_rng(607)
    for scale in (0.1, 1.0, 30.0, 1e60):
        z = scale * (rng.normal(size=(500, 2)) + 1j * rng.normal(size=(500, 2)))
        z[::7, 1] = 0.0
        for psi in _sample_maps() + [design_contraction_step(BasinConfig()).psi]:
            with np.errstate(over="ignore", invalid="ignore"):
                w1, w2 = psi.columns(z[:, 0].copy(), z[:, 1].copy())
            assert np.array_equal(_bits(np.stack([w1, w2], axis=-1)),
                                  _bits(psi.apply(z, safe=True)))


def test_composite_raises_overflow_after_any_factor():
    """The first factor applied overflows and the last one undoes it: the
    composite's columns are finite, but apply with safe=False raises."""
    psi = Composite([FiberScale([-300.0]), FiberScale([300.0])])
    z = np.array([[0.5 + 0j, 1e30 + 0j]])
    w1, w2 = psi.columns(z[:, 0], z[:, 1])
    assert np.isfinite(w2).all() and np.allclose(w2, z[:, 1])
    assert np.allclose(psi.apply(z, safe=True), z)
    with pytest.raises(Overflow):
        psi.apply(z)


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


@pytest.mark.parametrize("f2", [1j, -1.0, 2.0, np.exp(0.3j)])
def test_fixed_point_off_the_family_is_a_family_mismatch(f2, tmp_path):
    """The candidate family has a differential of singular values lambda only
    at f = (0, 1); elsewhere the reason says so instead of listing failed
    verifications, and the status and exit code stay inconclusive."""
    data = {"fixed_point": [[0.0, 0.0], [float(np.real(f2)), float(np.imag(f2))]]}
    report, csv_text, _ = basin_report(BasinConfig.from_jsonable(data))
    assert report["status"] == "inconclusive"
    assert report["design"] == {"status": "failed", "reason": FIXED_POINT_MISMATCH}
    assert csv_text is None
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert main(["basin", str(cfg), "--outdir", str(tmp_path / "o")]) == EXIT_INCONCLUSIVE


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


# ---------------------------------------------------------------------------
# early retirement of fixed orbits, against the loop that iterates to the cap
# ---------------------------------------------------------------------------

def _reference_classify(psi, points, config):
    """Iterate every live row to the cap (no early stop at fixed points)."""
    f = config.fixed_point
    m = len(points)
    labels = np.full(m, UNDECIDED, dtype=object)
    steps = np.full(m, config.max_iter, dtype=int)
    active = np.arange(m)
    cur = np.array(points, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, config.max_iter + 1):
            cur[active] = psi.apply(cur[active], safe=True)
            w = cur[active]
            finite = np.isfinite(w).all(axis=-1)
            big = np.abs(np.where(np.isfinite(w), w, 0.0)).max(axis=-1)
            dist = np.where(finite, np.linalg.norm(w - f[None, :], axis=-1), np.inf)
            esc = (~finite) | (big > config.escape_radius) | ~np.isfinite(dist)
            conv = dist <= config.convergence_tol
            labels[active[esc]] = ESCAPE
            labels[active[conv & ~esc]] = BASIN
            steps[active[esc]] = k
            steps[active[conv & ~esc]] = k
            active = active[~(esc | conv)]
            if active.size == 0:
                break
    return labels, steps


_ROTATED_K = np.array([2.0 * np.exp(2.2j), 0.0])


@pytest.mark.parametrize("kwargs", [
    {"slice_plane": "re"}, {"slice_plane": "im"}, {"slice_plane": "z1"},
    {"slice_plane": "z2"},
    {"k_center": _ROTATED_K, "k_radius": 0.4, "slice_plane": "z1",
     "grid_center": (0.3, 0.9), "grid_halfwidth": 2.8},
    {"max_iter": 3},
])
def test_classification_matches_the_loop_that_runs_to_the_cap(kwargs):
    cfg = BasinConfig(grid_n=36, **kwargs)
    psi = design_contraction_step(cfg).psi
    points, _, _ = slice_grid(cfg)
    labels, steps = classify_points(psi, points, cfg)
    ref_labels, ref_steps = _reference_classify(psi, points, cfg)
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(steps, ref_steps)
    if "k_center" in kwargs:
        assert np.sum(labels == ESCAPE) > 200 and np.sum(labels == BASIN) > 0


def test_nonfinite_and_boundary_rows_match_the_reference():
    """A row-wise stub psi hands classify_points NaN and infinite rows, a
    finite row whose modulus overflows, rows exactly at the escape radius
    and at the convergence tolerance from f, and signed zeros."""
    cfg = BasinConfig(max_iter=5)
    R, tol, inf, nan = cfg.escape_radius, cfg.convergence_tol, np.inf, np.nan
    images = [
        (inf, 0.5), (0.5, -inf), (nan, 0.5), (0.5, complex(0.0, nan)),
        (complex(inf, nan), 0.5), (0.5, 1e308 + 1e308j),
        (R, 0.5), (0.5, -1j * R), (np.nextafter(R, inf), 0.5),
        (tol, 1.0), (-1j * tol, 1.0), (np.nextafter(tol, 1.0), 1.0),
        (complex(-0.0, -0.0), complex(1.0, -0.0)), (-0.0, complex(-0.0, 0.0)),
    ]
    starts = [(3.0 + k * 1j, 0.5) for k in range(2 * len(images))]
    # each image is reached at step 1, or at step 2 through a second start
    table = dict(zip(starts, images + starts[:len(images)]))
    table[(R, 0.5)] = (np.nextafter(R, inf), 0.5)  # at the radius, then past it

    class Stub(AutomorphismSpec):
        def columns(self, z1, z2):
            out = [table.get((complex(a), complex(b)), (a, b)) for a, b in zip(z1, z2)]
            out = np.array(out, dtype=complex).reshape(-1, 2)
            return out[:, 0], out[:, 1]

    points = np.array(starts, dtype=complex)
    labels, steps = classify_points(Stub(), points, cfg)
    ref_labels, ref_steps = _reference_classify(Stub(), points, cfg)
    assert np.array_equal(labels, ref_labels) and np.array_equal(steps, ref_steps)
    assert list(labels[:len(images)]) == [ESCAPE] * 6 + [ESCAPE, UNDECIDED, ESCAPE] \
        + [BASIN, BASIN, UNDECIDED] + [BASIN, UNDECIDED]
    assert list(steps[:9]) == [1] * 6 + [2, cfg.max_iter, 1]


def test_row_distances_equal_numpy_norm_bit_for_bit():
    cfg = BasinConfig()
    design = design_contraction_step(cfg)
    psi, f = design.psi, cfg.fixed_point
    radius = design.diagnostics["estimate_radius"]
    for rho, ratios in _sphere_ratios(psi, f, radius):
        z = psi.apply(f[None, :] + rho * _sphere_dirs(60))
        assert np.array_equal(ratios, np.linalg.norm(z - f[None, :], axis=-1) / rho)
    ks = _k_samples(cfg)
    dev = np.linalg.norm(psi.apply(ks) - ks, axis=-1)
    assert np.array_equal(_dist(*psi.apply(ks).T, ks), dev)
    assert design.diagnostics["k_deviation"] == float(np.max(dev))
    z = f[None, :] + radius / 2 * _sphere_dirs(16)
    for b in rate_brackets(psi, cfg, radius / 2):
        z = psi.apply(z)
        ratios = np.linalg.norm(z - f[None, :], axis=-1) / (radius / 2)
        assert np.array_equal(_dist(*z.T, f) / (radius / 2), ratios)
        assert (b["min_ratio"], b["max_ratio"]) == (float(ratios.min()), float(ratios.max()))


def test_points_on_the_fixed_line_are_iterated_at_most_twice():
    cfg = BasinConfig()
    psi = design_contraction_step(cfg).psi
    rows = []

    class Counted:
        def columns(self, z1, z2):
            rows.append(len(z1))
            return psi.columns(z1, z2)

    rng = np.random.default_rng(605)
    z1 = rng.uniform(-3, 3, 500) + 1j * rng.uniform(-3, 3, 500)
    pts = np.stack([z1, np.zeros(500, dtype=complex)], axis=-1)
    labels, steps = classify_points(Counted(), pts, cfg)
    assert np.all(labels == UNDECIDED) and np.all(steps == cfg.max_iter)
    assert 0 < sum(rows) <= 2 * len(pts)


def test_polyval_matches_numpy_bit_for_bit_on_finite_input():
    """Also on the designed h = L (z/f2)^12 and q, whose zero coefficients
    Horner skips; inf and NaN inputs give NaN where numpy's does."""
    psi = design_contraction_step(BasinConfig()).psi
    fiber, base = psi.factors
    assert np.count_nonzero(base.h) == 1 and np.count_nonzero(base.q) == 2
    rng = np.random.default_rng(606)
    z = rng.normal(scale=2.0, size=2000) + 1j * rng.normal(scale=2.0, size=2000)
    bad = np.array([np.inf, -np.inf, 1j * np.inf, np.nan, complex(np.inf, np.nan),
                    complex(0.5, np.nan), complex(np.inf, -np.inf)])
    for c in (fiber.g, base.h, base.q, np.array([0.5 - 0.25j])):
        assert np.array_equal(_bits(_polyval(c, z)), _bits(P.polyval(z, c)))
        assert _polyval(c, z[7]) == P.polyval(z[7], c)
        if c.size > 1:  # numpy's constant term is c[0] + 0 * z, NaN at inf
            with np.errstate(over="ignore", invalid="ignore"):
                assert np.array_equal(_polyval(c, bad), P.polyval(bad, c), equal_nan=True)


def test_csv_rows_match_per_row_formatting():
    """On every slice plane: the im plane writes -0 real parts beside 0 ones,
    and the z1 and z2 planes constant columns."""
    seen = set()
    for plane in ("re", "im", "z1", "z2"):
        cfg = BasinConfig(grid_n=70, slice_plane=plane, grid_center=(-0.5, 0.0))
        points, _, _ = slice_grid(cfg)
        labels, steps = classify_points(design_contraction_step(cfg).psi, points, cfg)
        seen |= set(labels)
        if plane == "z2":
            assert len(set(labels)) == 3
        lines = ["re_z1,im_z1,re_z2,im_z2,label,steps"]
        for p, lab, k in zip(points, labels, steps):
            lines.append(f"{p[0].real:.6g},{p[0].imag:.6g},"
                         f"{p[1].real:.6g},{p[1].imag:.6g},{lab},{int(k)}")
        text = _csv_rows(points, labels, steps)
        assert text.endswith("\n")
        got = text.splitlines()
        bad = next((i for i, (a, b) in enumerate(zip(got, lines)) if a != b), None)
        assert bad is None, f"{plane} plane, line {bad}: {got[bad]!r} != {lines[bad]!r}"
        assert len(got) == len(lines), f"{plane} plane: {len(got)} lines, expected {len(lines)}"
        if plane == "im":  # a dedupe keyed on values would write one text for both
            assert {line.split(",")[0] for line in lines[1:]} == {"-0", "0"}
    assert seen == {BASIN, ESCAPE, UNDECIDED}


# ---------------------------------------------------------------------------
# the proven tube around the fixed line, against the loop that runs to the cap
# ---------------------------------------------------------------------------

def _seeded_config(seed, grid_n=80):
    """Drawn as perfbench's seeded basin configs: K and the slice vary."""
    rng = np.random.default_rng(seed)
    k1 = 2.0 * np.exp(1j * rng.uniform(-np.pi, np.pi))
    return BasinConfig(k_center=np.array([k1, 0.0]), k_radius=float(rng.uniform(0.3, 0.6)),
                       grid_center=tuple(rng.uniform(-0.5, 1.5, 2)),
                       grid_halfwidth=float(rng.uniform(1.5, 3.0)), grid_n=grid_n,
                       slice_plane=str(rng.choice(["re", "im", "z1", "z2"])))


_TUBE_CONFIGS = [BasinConfig(grid_n=60, slice_plane=plane) for plane in ("re", "im", "z1", "z2")]
_TUBE_CONFIGS += [BasinConfig(grid_n=60, k_center=_ROTATED_K, k_radius=0.4, slice_plane="z1",
                              grid_center=(0.3, 0.9), grid_halfwidth=2.8)]
_TUBE_CONFIGS += [_seeded_config(seed) for seed in (1, 2, 3)]


def _counting_rows(monkeypatch):
    """Rows handed to ``Composite.columns`` (``classify_points``) or to
    ``Composite.apply`` (``_reference_classify``) from then on."""
    rows, columns, apply = [0], Composite.columns, Composite.apply

    def counted_columns(self, z1, z2):
        rows[0] += len(z1)
        return columns(self, z1, z2)

    def counted_apply(self, z, safe=False):
        rows[0] += len(z)
        return apply(self, z, safe=safe)

    monkeypatch.setattr(Composite, "columns", counted_columns)
    monkeypatch.setattr(Composite, "apply", counted_apply)
    return rows


@pytest.mark.parametrize("cfg", _TUBE_CONFIGS, ids=lambda c: f"{c.slice_plane}-{c.grid_n}")
def test_tube_stop_matches_the_loop_that_runs_to_the_cap(cfg, monkeypatch):
    psi = design_contraction_step(cfg).psi
    points, _, _ = slice_grid(cfg)
    rows = _counting_rows(monkeypatch)
    labels, steps = classify_points(psi, points, cfg)
    applied = rows[0]
    ref_labels, ref_steps = _reference_classify(psi, points, cfg)
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(steps, ref_steps)
    assert 0 < applied < rows[0] - applied  # the tube retired rows the reference iterated


def test_composites_outside_the_family_take_no_tube(monkeypatch):
    """A Shear factor makes z1's drift unbounded by the tube's majorants,
    so every row iterates as before and still matches the reference."""
    cfg = BasinConfig(grid_n=30)
    fiber, base = design_contraction_step(cfg).psi.factors
    psi = Composite([fiber, base, Shear([0.0, 0.0, 1e-3])])
    calls = []
    monkeypatch.setattr("okacert.basin._in_tube", lambda *a: calls.append(1))
    points, _, _ = slice_grid(cfg)
    labels, steps = classify_points(psi, points, cfg)
    ref_labels, ref_steps = _reference_classify(psi, points, cfg)
    assert calls == []
    assert np.array_equal(labels, ref_labels) and np.array_equal(steps, ref_steps)


def test_default_config_applies_psi_to_at_most_a_million_rows(monkeypatch):
    """Iterating every near-line orbit to the cap applies psi to 2,496,550
    rows on this grid; the tube and the fixed-row stop leave 926,193."""
    cfg = BasinConfig()
    psi = design_contraction_step(cfg).psi
    points, _, _ = slice_grid(cfg)
    rows = _counting_rows(monkeypatch)
    classify_points(psi, points, cfg)
    assert rows[0] == 926_193


def test_retired_rows_stay_in_their_tube():
    """Each row the tube retires keeps |z2| <= delta and z1 within its
    drift radius r for 200 further steps."""
    cfg = BasinConfig()
    psi = design_contraction_step(cfg).psi
    fiber, base = psi.factors
    cur, _, _ = slice_grid(cfg)
    retired = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, 13):
            cur = psi.apply(cur, safe=True)
            cur = cur[np.isfinite(cur).all(axis=-1)]
            if k % 4 == 0:
                retired.append(cur[_in_tube(fiber, base, cur[:, 0], cur[:, 1], cfg)])
    start = np.concatenate(retired)
    assert len(start) > 10_000
    z1, s = start[:, 0], np.abs(start[:, 1])
    N = int(np.argmax(base.h != 0))
    M = 1 + int(np.argmax(base.q != 0))
    A = np.expm1(P.polyval(s, np.abs(base.h))) / -np.expm1(-N * 0.05)
    r = (np.abs(z1) * A + s * P.polyval(s, np.abs(base.q)) / -np.expm1(-M * 0.05)) / (1 - A)
    z = start
    for _ in range(200):
        z = psi.apply(z)
        assert np.all(np.abs(z[:, 1]) <= _TUBE_DELTA)
        assert np.all(np.abs(z[:, 1]) <= s)
        assert np.all(np.abs(z[:, 0] - z1) <= r + 1e-12 * (1 + np.abs(z1)))


def test_sphere_dirs_are_memoized_read_only():
    dirs = _sphere_dirs(60)
    assert _sphere_dirs(60) is dirs and not dirs.flags.writeable
    with pytest.raises(ValueError):
        dirs[0, 0] = 0.0
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
