"""Independent checks of okacert outputs.

Nothing here calls okacert's geometry: membership, recession directions and
support values come from the benchmark's own formulas for each set family,
and "hyperplane meets E" claims are decided by a linear program solved with
SciPy's HiGHS (used only as a test oracle). The one program function used is
``okacert.smoothing.rmax_pair_grid``, the method's regularized maximum, which
folds the benchmark's own separator values of an ``approx`` output; every
value it returns is checked against the guarantees its documentation states.

Each ``check_*`` function returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import csv
import json

import numpy as np
from scipy.optimize import linprog

VERIFIED = ("certified-exact", "verified-sampled")
TOL = 1e-7


# ---------------------------------------------------------------------------
# set families, from the benchmark's own spec dicts
# ---------------------------------------------------------------------------

class Geometry:
    """contains / recedes / support / meets for one spec dict."""

    def __init__(self, spec: dict):
        self.kind = spec["type"]
        if self.kind == "polyhedron":
            A = np.asarray(spec["A"], float)
            norms = np.linalg.norm(A, axis=1)
            self.A, self.b = A / norms[:, None], np.asarray(spec["b"], float) / norms
            self.m = A.shape[1]
        elif self.kind == "ball":
            self.center = np.asarray(spec["center"], float)
            self.radius = float(spec["radius"])
            self.m = self.center.shape[0]
        elif self.kind == "siegel":
            self.m = 2 * spec["n"]
        elif self.kind == "normcombo":
            n = spec["n"]
            self.m = 2 * n
            w = []
            for a, b in zip(spec["a"], spec["b"]):
                w += [a, b]
            self.weights = np.asarray(w + [spec["c"]], float)  # on x[:-1]
        elif self.kind == "tube":
            self.base = Geometry(spec["base"])
            self.bi = np.asarray(spec["base_indices"])
            self.fi = np.asarray(spec["fiber_indices"])
            self.m = self.bi.shape[0] + self.fi.shape[0]
        elif self.kind == "dilation":
            self.base = Geometry(spec["base"])
            self.factor = float(spec["factor"])
            self.center = np.asarray(spec["center"], float)
            self.m = self.base.m
        else:
            raise ValueError(f"no oracle for set type {self.kind!r}")

    # -- lineality (real dimension of the largest linear subspace of the cone)
    def lineality_dim(self) -> int:
        if self.kind == "polyhedron":
            return self.m - int(np.linalg.matrix_rank(self.A))
        if self.kind == "siegel":
            return 1  # Re z_n is free
        if self.kind == "normcombo":
            return int(np.sum(self.weights == 0))
        if self.kind == "tube":
            return self.base.lineality_dim() + self.fi.shape[0]
        if self.kind == "dilation":
            return self.base.lineality_dim()
        return 0  # ball

    # -- membership
    def contains(self, x, tol=TOL) -> bool:
        x = np.asarray(x, float)
        scale = 1.0 + np.linalg.norm(x)
        if self.kind == "polyhedron":
            return bool(np.max(self.A @ x - self.b) <= tol * scale)
        if self.kind == "ball":
            return bool(np.linalg.norm(x - self.center) <= self.radius + tol * scale)
        if self.kind == "siegel":
            return bool(x[-1] >= x[:-2] @ x[:-2] - tol * scale)
        if self.kind == "normcombo":
            return bool(x[-1] >= self.weights @ np.abs(x[:-1]) - tol * scale)
        if self.kind == "tube":
            return self.base.contains(x[self.bi], tol)
        return self.base.contains(self.center + (x - self.center) / self.factor, tol)

    def recedes(self, v, tol=TOL) -> bool:
        """Is the direction v in the recession cone?"""
        v = np.asarray(v, float)
        if self.kind == "polyhedron":
            return bool(np.max(self.A @ v) <= tol)
        if self.kind == "ball":
            return bool(np.linalg.norm(v) <= tol)
        if self.kind == "siegel":
            return bool(np.linalg.norm(v[:-2]) <= tol and v[-1] >= -tol)
        if self.kind == "normcombo":
            return bool(v[-1] >= self.weights @ np.abs(v[:-1]) - tol)
        if self.kind == "tube":
            return self.base.recedes(v[self.bi], tol)
        return self.base.recedes(v, tol)

    # -- support function sup_{x in E} <eta, x>
    def support(self, eta) -> float:
        eta = np.asarray(eta, float)
        if self.kind == "polyhedron":
            res = linprog(-eta, A_ub=self.A, b_ub=self.b, bounds=(None, None),
                          method="highs")
            if res.status == 3:
                return np.inf
            if res.status != 0:
                raise RuntimeError(f"HiGHS support LP failed: {res.message}")
            return float(-res.fun)
        if self.kind == "ball":
            return float(eta @ self.center + self.radius * np.linalg.norm(eta))
        if self.kind == "siegel":
            eu, ef, eg = eta[:-2], eta[-2], eta[-1]
            if abs(ef) > 1e-12 or eg > 1e-12:
                return np.inf
            if eg >= -1e-12:
                return 0.0 if np.linalg.norm(eu) <= 1e-12 else np.inf
            return float(eu @ eu / (-4.0 * eg))
        if self.kind == "normcombo":
            # a cone with apex 0: sup is 0 on the polar cone, +inf elsewhere
            eu, eg = eta[:-1], eta[-1]
            if eg > 1e-12 or np.any(np.abs(eu) > -eg * self.weights + 1e-12):
                return np.inf
            return 0.0
        if self.kind == "tube":
            if self.fi.shape[0] and np.max(np.abs(eta[self.fi])) > 1e-12:
                return np.inf
            return self.base.support(eta[self.bi])
        c = eta @ self.center
        return float(c + self.factor * (self.base.support(eta) - c))

    # -- does E meet the affine set {x : M x = r}?
    def meets(self, M, r) -> bool:
        M, r = np.atleast_2d(np.asarray(M, float)), np.asarray(r, float)
        if self.kind in ("polyhedron", "normcombo"):
            return _lp_feasible(self, M, r)
        if self.kind == "ball":
            x, ok = _affine_point(M, r, self.center)
            return ok and np.linalg.norm(x - self.center) <= self.radius + TOL
        if self.kind == "siegel":
            return _siegel_meets(self.m, M, r)
        if self.kind == "tube":
            # fiber coordinates are free: project the system off range(M_f)
            Mb, Mf = M[:, self.bi], M[:, self.fi]
            if Mf.shape[1]:
                u, s, _ = np.linalg.svd(Mf)
                rank = int(np.sum(s > 1e-12))
                Q = u[:, rank:].T
            else:
                Q = np.eye(M.shape[0])
            if not Q.shape[0]:
                return True  # the fibers alone reach every level of M
            return self.base.meets(Q @ Mb, Q @ r)
        # dilation: x = c + f (y - c) with y in the base set
        Mc = M @ self.center
        return self.base.meets(self.factor * M, r - Mc + self.factor * Mc)


def _affine_point(M, r, x0):
    """The point of {M x = r} nearest x0, and whether the system is consistent."""
    d, *_ = np.linalg.lstsq(M, r - M @ x0, rcond=None)
    x = x0 + d
    return x, bool(np.linalg.norm(M @ x - r) <= 1e-9 * (1.0 + np.linalg.norm(r)))


def _siegel_meets(m, M, r):
    """min over {M x = r} of |u|^2 - x_g (u = x[:-2]) is <= 0?"""
    x0, ok = _affine_point(M, r, np.zeros(m))
    if not ok:
        return False
    _, s, vh = np.linalg.svd(M)
    N = vh[int(np.sum(s > 1e-12)):].T  # null space basis, columns
    U = N[:-2]  # u = x0[:-2] + U a ; g = x0[-1] + N[-1] a
    Q = U.T @ U
    lin = 2.0 * U.T @ x0[:-2] - N[-1]
    a, *_ = np.linalg.lstsq(2.0 * Q, -lin, rcond=None)
    if np.linalg.norm(2.0 * Q @ a + lin) > 1e-9 * (1.0 + np.linalg.norm(lin)):
        return True  # linear decrease along a flat direction: unbounded below
    u = x0[:-2] + U @ a
    return bool(u @ u - (x0[-1] + N[-1] @ a) <= TOL)


def _lp_feasible(geo: Geometry, M, r) -> bool:
    m = geo.m
    if geo.kind == "polyhedron":
        res = linprog(np.zeros(m), A_ub=geo.A, b_ub=geo.b, A_eq=M, b_eq=r,
                      bounds=(None, None), method="highs")
    else:
        # variables (x, s) with s_k >= |x_k| on the base coordinates
        k = m - 1
        eye = np.eye(k)
        A_ub = np.vstack([
            np.hstack([eye, np.zeros((k, 1)), -eye]),
            np.hstack([-eye, np.zeros((k, 1)), -eye]),
            np.hstack([np.zeros(k), [-1.0], geo.weights])[None, :],
        ])
        res = linprog(np.zeros(m + k), A_ub=A_ub, b_ub=np.zeros(2 * k + 1),
                      A_eq=np.hstack([M, np.zeros((M.shape[0], k))]), b_eq=r,
                      bounds=(None, None), method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS feasibility LP failed: {res.message}")
    return res.status == 0


# ---------------------------------------------------------------------------
# complex hyperplanes {z : c . z = beta} in interleaved real coordinates
# ---------------------------------------------------------------------------

def _complex(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def _to_complex(x):
    x = np.asarray(x, float)
    return x[0::2] + 1j * x[1::2]


def _hyperplane_system(H: dict):
    """(M, r): the two real equations Re, Im of c . z = beta."""
    c, beta = _complex(H["coeffs"]), complex(*H["offset"])
    M = np.zeros((2, 2 * c.shape[0]))
    M[0, 0::2], M[0, 1::2] = c.real, -c.imag
    M[1, 0::2], M[1, 1::2] = c.imag, c.real
    return M, np.array([beta.real, beta.imag])


def _rotated_covector(H: dict, theta: float):
    """eta with <eta, x> = Re(e^{-i theta} c . z), and Re(e^{-i theta} beta)."""
    alpha = np.exp(-1j * theta) * _complex(H["coeffs"])
    eta = np.empty(2 * alpha.shape[0])
    eta[0::2], eta[1::2] = alpha.real, -alpha.imag
    return eta, float((np.exp(-1j * theta) * complex(*H["offset"])).real)


def _in_directions(H: dict, v, tol=1e-6) -> bool:
    """Does the real vector v lie in the direction space of H?"""
    return bool(abs(_complex(H["coeffs"]) @ _to_complex(v)) <= tol * (1.0 + np.linalg.norm(v)))


def _split_ratio(H: dict, v) -> float:
    """|v''| / |v'| for the split of v along / across H's directions."""
    M, _ = _hyperplane_system(H)
    across = M.T @ np.linalg.lstsq(M.T, v, rcond=None)[0]
    along = v - across
    na = np.linalg.norm(along)
    return np.inf if na < 1e-12 else float(np.linalg.norm(across) / na)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def _unit(v) -> bool:
    return abs(np.linalg.norm(v) - 1.0) <= 1e-6


def check_witness(geo: Geometry, w: dict) -> str | None:
    """None when the refutation witness holds, else what is wrong with it."""
    kind = w["kind"]
    if kind == "line-direction":
        v = np.asarray(w["direction"], float)
        if not (_unit(v) and geo.recedes(v) and geo.recedes(-v)):
            return "line direction is not a lineality direction"
        return None
    if kind == "halfline":
        x0, v = np.asarray(w["point"], float), np.asarray(w["direction"], float)
        if not _unit(v) or not geo.recedes(v):
            return "halfline direction is not a recession direction"
        if not all(geo.contains(x0 + t * v, tol=1e-6) for t in (0.0, 1.0, 10.0, 1e3)):
            return "halfline leaves the set"
        return None
    if kind in ("unstable-hyperplane", "unstable-lift"):
        v = np.asarray(w["recession_direction"], float)
        if not (_unit(v) and _in_directions(w["hyperplane"], v) and geo.recedes(v)):
            return f"{kind}: direction is not a recession direction inside the hyperplane"
        return None
    if kind in ("hyperplane-meets-set", "lift-not-disjoint"):
        M, r = _hyperplane_system(w["hyperplane"])
        if "common_point" in w:
            x = np.asarray(w["common_point"], float)
            if geo.contains(x, tol=1e-6) and np.linalg.norm(M @ x - r) <= 1e-5:
                return None
        if not geo.meets(M, r):
            return f"{kind}: the hyperplane misses the set (HiGHS)"
        return None
    if kind == "lift-misses-direction":
        d = _complex(w["line_direction"])
        if abs(_complex(w["hyperplane"]["coeffs"]) @ d) <= 1e-6:
            return "lift-misses-direction: the hyperplane contains the line direction"
        return None
    if kind == "cone-ray":
        v = np.asarray(w["direction"], float)
        if not (_unit(v) and geo.recedes(v)):
            return "cone-ray is not a recession direction"
        if _split_ratio(w["hyperplane"], v) > 0.01 * (1.0 + 1e-9):
            return "cone-ray lies outside the smallest candidate cone"
        return None
    if kind == "disconnected-components":
        # The disconnection itself is sampled evidence; what can be checked is
        # that each representative is a hyperplane missing E.
        for H in w["representatives"]:
            if not _misses(geo, H):
                return "disconnected-components: a representative meets the set"
        return None
    return f"no independent check for witness kind {kind!r}"


def _misses(geo: Geometry, H: dict, angles: int = 720) -> bool:
    """Some rotation angle separates H from E, on a fine grid of angles."""
    for theta in np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False):
        eta, level = _rotated_covector(H, theta)
        if geo.support(eta) < level:
            return True
    return False


def check_stable_hyperplane(geo: Geometry, w: dict) -> str | None:
    """A verified weak_projective witness: stable, through its point, missing E."""
    H = w["hyperplane"]
    M, r = _hyperplane_system(H)
    through = np.asarray(w["through"], float)
    if np.linalg.norm(M @ through - r) > 1e-7 * (1.0 + np.linalg.norm(through)):
        return "stable-hyperplane does not pass through its exterior point"
    if not w["aperture"] > 0:
        return "stable-hyperplane has no positive aperture"
    eta, level = _rotated_covector(H, w["theta"])
    margin = geo.support(eta) - level
    scale = 1.0 + abs(complex(*H["offset"]))
    if not margin < 1e-9 * scale:
        return f"stable-hyperplane meets the set: support margin {margin:.3g} at theta"
    if abs(margin - w["margin"]) > 1e-6 * scale:
        return f"stable-hyperplane margin {w['margin']:.6g} != independent {margin:.6g}"
    return None


def check_certificate(spec: dict, expect: str, text: str, exit_code: int) -> list:
    """Problems with one `okacert certify` output, or [] when it holds.

    ``expect`` is "verified" or "refuted"; a line-free set must verify
    whatever ``expect`` says (the paper's main theorem).
    """
    geo = Geometry(spec)
    cert = json.loads(text)
    overall = cert["overall"]
    problems = []
    line_free = geo.lineality_dim() == 0
    want = VERIFIED if (line_free or expect == "verified") else ("refuted",)
    if overall not in want:
        problems.append(f"overall {overall!r}, expected one of {want}")
    if exit_code != (0 if overall in VERIFIED else 1 if overall == "refuted" else 2):
        problems.append(f"exit code {exit_code} does not match overall {overall!r}")
    for check in cert["checks"]:
        if check["name"] == "no_affine_line" and (check["verdict"] in VERIFIED) != line_free:
            problems.append(f"no_affine_line says {check['verdict']!r} for lineality "
                            f"dimension {geo.lineality_dim()}")
        for w in check["witnesses"]:
            if check["verdict"] == "refuted" or w["kind"] == "line-direction":
                bad = check_witness(geo, w)
            elif w["kind"] == "stable-hyperplane":
                bad = check_stable_hyperplane(geo, w)
            else:
                bad = None
            if bad:
                problems.append(f"{check['name']}: {bad}")
    return problems


# ---------------------------------------------------------------------------
# outer approximations (okacert approx)
# ---------------------------------------------------------------------------

def _sample_inside(geo: Geometry, rng, count: int, window: float) -> np.ndarray:
    """Points of E within the box [-window, window]^m."""
    m = geo.m
    if geo.kind == "ball":
        d = rng.normal(size=(count, m))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        xs = geo.center + geo.radius * d * rng.uniform(size=(count, 1)) ** (1 / m)
    elif geo.kind == "normcombo":  # lift box points onto or above the graph
        xs = rng.uniform(-window / 4, window / 4, size=(count, m))
        xs[:, -1] = np.abs(xs[:, :-1]) @ geo.weights + rng.uniform(0, window / 4, count)
    elif geo.kind == "polyhedron":  # rejection from the bounding box
        lo = np.array([-geo.support(-e) for e in np.eye(m)])
        hi = np.array([geo.support(e) for e in np.eye(m)])
        lo, hi = np.maximum(lo, -window), np.minimum(hi, window)
        xs = np.zeros((0, m))
        while xs.shape[0] < count:
            cand = rng.uniform(lo, hi, size=(4 * count, m))
            xs = np.vstack([xs, cand[np.max(cand @ geo.A.T - geo.b, axis=1) <= 0]])
        xs = xs[:count]
    else:
        raise ValueError(f"no interior sampler for set type {geo.kind!r}")
    return xs[np.max(np.abs(xs), axis=1) <= window]


def _separator_values(sep: dict, x) -> np.ndarray:
    """rho(x) = scale * (exp(alpha |y'|^2 + gap / 4 - y_1) - 1) with y = frame (x - center)."""
    y = (x - np.asarray(sep["center"], float)) @ np.asarray(sep["frame"], float).T
    g = sep["alpha"] * np.sum(y[:, 1:] ** 2, axis=1) + 0.25 * sep["gap"] - y[:, 0]
    return sep["scale"] * (np.exp(g) - 1.0)


def _stage_values(state: dict, x, problems: list) -> np.ndarray:
    """tau_1..tau_k at the rows of x, shape (k, len(x)).

    tau_k = rmax(tau_{k-1}, rho_k) with the program's pairwise regularized max.
    Each fold must keep rmax's documented guarantees: max <= rmax <= max + delta,
    and rmax = max where the two arguments are at least delta apart.
    """
    from okacert.smoothing import rmax_pair_grid

    delta = state["delta"]
    seps = state["separators"]
    acc = _separator_values(seps[0], x)
    stages = [acc]
    for sep in seps[1:]:
        rho = _separator_values(sep, x)
        top = np.maximum(acc, rho)
        nxt = rmax_pair_grid(acc, rho, delta, state["order"])
        tol = 1e-9 * (1.0 + np.abs(top))
        if np.any(nxt < top - tol) or np.any(nxt > top + delta + tol):
            problems.append("a regularized max leaves [max, max + delta]")
        apart = np.abs(acc - rho) >= delta * (1.0 + 1e-9)
        if np.any(np.abs(nxt - top)[apart] > tol[apart]):
            problems.append("a regularized max differs from max where its arguments are delta apart")
        acc = nxt
        stages.append(acc)
    return np.stack(stages, axis=0)


def check_approx(spec: dict, text: str, rng, exit_code: int) -> list:
    """Properties every outer approximation sequence must have.

    The separators are evaluated from the fields in the output file with the
    benchmark's own formula; only the regularized max is the program's.
    """
    if exit_code != 0:
        return [f"approx exited with {exit_code}"]
    state = json.loads(text)
    geo = Geometry(spec)
    problems = []
    window = state["window"]
    qs = np.asarray(state["exterior_points"], float)
    if any(geo.contains(q, tol=0.0) for q in qs):
        problems.append("an exterior point used by a separator lies in E")
    inside = _sample_inside(geo, rng, 256, window)
    probe = np.vstack([inside, rng.uniform(-2 * window, 2 * window, size=(256, geo.m)), qs])
    stages = _stage_values(state, probe, problems)
    if not np.all(stages[:, :inside.shape[0]] < 0):
        problems.append("some tau_k is not negative on E within the window")
    if np.any(np.diff(stages, axis=0) < -1e-12 * (1.0 + np.abs(stages[1:]))):
        problems.append("stage values decrease in k")
    tq = stages[:, probe.shape[0] - qs.shape[0]:]
    for j in range(qs.shape[0]):
        if not np.all(tq[j:, j] > 0):
            problems.append(f"tau_k(q_{j + 1}) <= 0 for some k >= {j + 1}")
    return list(dict.fromkeys(problems))


# ---------------------------------------------------------------------------
# basin experiments (okacert basin)
# ---------------------------------------------------------------------------

def _poly(coefs, z):
    """Horner evaluation, lowest-degree coefficient first."""
    acc = np.full(np.shape(z), coefs[-1], dtype=complex)
    for c in coefs[-2::-1]:
        acc = c + acc * z
    return acc


def _apply(psi: dict, z):
    """The automorphism described by psi (report JSON) on rows of C^2 points."""
    kind = psi["kind"]
    if kind == "composite":
        for factor in reversed(psi["factors"]):
            z = _apply(factor, z)
        return z
    z1, z2 = z[:, 0], z[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "fiber-scale":
            return np.stack([z1, z2 * np.exp(_poly(_complex(psi["g"]), z1))], axis=1)
        if kind == "base-scale":
            w1 = z1 * np.exp(_poly(_complex(psi["h"]), z2)) + z2 * _poly(_complex(psi["q"]), z2)
            return np.stack([w1, z2], axis=1)
        if kind == "shear":
            return np.stack([z1 + z2 * _poly(_complex(psi["p"]), z2), z2], axis=1)
    raise ValueError(f"unknown automorphism kind {kind!r}")


def _grid(cfg: dict) -> np.ndarray:
    """Start points of the configured slice, in the report's row order."""
    n, (cx, cy), hw = cfg["grid_n"], cfg["grid_center"], cfg["grid_halfwidth"]
    X, Y = np.meshgrid(np.linspace(cx - hw, cx + hw, n), np.linspace(cy - hw, cy + hw, n),
                       indexing="ij")
    X, Y = X.ravel(), Y.ravel()
    f = _complex(cfg["fixed_point"])
    plane = cfg["slice_plane"]
    if plane == "re":
        return np.stack([X + 0j, Y + 0j], axis=1)
    if plane == "im":
        return np.stack([1j * X, 1j * Y], axis=1)
    if plane == "z1":
        return np.stack([X + 1j * Y, np.full(X.shape, f[1])], axis=1)
    return np.stack([np.full(X.shape, f[0]), X + 1j * Y], axis=1)


def _iterate(psi: dict, z, cfg: dict):
    """Labels from the benchmark's own iteration of psi."""
    f = _complex(cfg["fixed_point"])
    labels = np.full(z.shape[0], "undecided", dtype=object)
    active = np.arange(z.shape[0])
    cur = z.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is escape
        for _ in range(cfg["max_iter"]):
            cur[active] = _apply(psi, cur[active])
            w = cur[active]
            finite = np.isfinite(w).all(axis=1)
            big = np.abs(np.where(np.isfinite(w), w, 0.0)).max(axis=1)
            dist = np.where(finite, np.linalg.norm(w - f, axis=1), np.inf)
            esc = ~finite | (big > cfg["escape_radius"]) | ~np.isfinite(dist)
            conv = ~esc & (dist <= cfg["convergence_tol"])
            labels[active[esc]] = "escape"
            labels[active[conv]] = "basin"
            active = active[~(esc | conv)]
            if not active.size:
                break
    return labels


def check_basin(report_text: str, csv_text: str, rng, exit_code: int) -> list:
    report = json.loads(report_text)
    if report.get("status") != "ok":
        return [f"basin design failed: {report.get('design')}"]
    cfg, psi = report["config"], report["design"]["psi"]
    problems = []
    if exit_code != 0:
        problems.append(f"basin exited with {exit_code}")
    f = _complex(cfg["fixed_point"])
    if np.linalg.norm(_apply(psi, f[None, :])[0] - f) > 1e-12:
        problems.append("psi(f) != f")
    radius = report["design"]["diagnostics"]["estimate_radius"]
    d = rng.normal(size=(64, 2)) + 1j * rng.normal(size=(64, 2))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    for rho in (radius / 4, radius / 2, radius):
        ratio = np.linalg.norm(_apply(psi, f + rho * d) - f, axis=1) / rho
        if ratio.min() < cfg["rate_low"] or ratio.max() > cfg["rate_high"]:
            problems.append(f"contraction ratio outside [a, b] at radius {rho:g}")
    if any(report["assertions"][k] for k in ("basin_points_in_k",
                                             "basin_points_near_fixed_line")):
        problems.append(f"basin assertions violated: {report['assertions']}")

    rows = list(csv.reader(csv_text.splitlines()))[1:]
    z = _grid(cfg)
    if len(rows) != z.shape[0]:
        return problems + [f"grid has {len(rows)} rows, expected {z.shape[0]}"]
    labels = np.array([row[4] for row in rows], dtype=object)
    listed = np.array([[float(v) for v in row[:4]] for row in rows])
    mine = np.stack([z[:, 0].real, z[:, 0].imag, z[:, 1].real, z[:, 1].imag], axis=1)
    if np.max(np.abs(listed - mine) / (1.0 + np.abs(mine))) > 1e-5:
        problems.append("grid points differ from the configured slice")
    in_k = np.linalg.norm(z - _complex(cfg["k_center"]), axis=1) <= cfg["k_radius"]
    near_line = np.abs(z[:, 1]) < 1e-6
    if np.any((labels == "basin") & (in_k | near_line)):
        problems.append("a basin point starts in K or on the fixed line")
    picks = []
    for lab in ("basin", "escape", "undecided"):
        idx = np.flatnonzero(labels == lab)
        if idx.size:
            picks += list(rng.choice(idx, size=min(16, idx.size), replace=False))
    picks = np.array(sorted(picks), dtype=int)
    own = _iterate(psi, z[picks], cfg)
    wrong = int(np.sum(own != labels[picks]))
    if wrong:
        problems.append(f"{wrong} of {picks.size} sampled labels differ from own iteration")
    return problems
