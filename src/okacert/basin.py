"""Holomorphic automorphisms of C^2 fixing a complex line, and attracting
basins of a designed fixed point.

The automorphism family is closed under composition and inversion and fixes
the line {z2 = 0} pointwise *exactly* (by construction every moving term
carries a factor of z2 or a polynomial vanishing at 0).  A contraction step
is designed so that a prescribed point f off the line becomes an attracting
fixed point with both singular values of the differential equal to a target
rate, while the map stays epsilon-close to the identity on a prescribed
compact ball K.  A grid simulator then classifies initial points as basin /
escape / undecided and the report asserts that no basin point starts in K or
adjacent to the fixed line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import List, Optional

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import DesignFailed, Overflow

CONVERGENCE_TOL = 1e-8
ESCAPE_RADIUS = 1e6
MAX_ITER = 200
OVERFLOW_LIMIT = 1e150
_TUBE_DELTA = 1e-3  # classify_points' tube: the |z2| bound of the rows it tests
_TUBE_KAPPA = 0.05  # and the decay rate of |z2| it proves

FIXED_POINT_MISMATCH = "family mismatch: fixed point must be (0, 1)"

BASIN = "basin"
ESCAPE = "escape"
UNDECIDED = "undecided"
_LABELS = np.array([BASIN, ESCAPE, UNDECIDED], dtype=object)
_BASIN, _ESCAPE, _UNDECIDED = range(3)  # classify_points' label codes: indices into _LABELS


def _coefs(c) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(c, dtype=complex))
    return arr if arr.size else np.zeros(1, dtype=complex)


def _polyval(c: np.ndarray, z):
    """Horner in place, skipping zero coefficients.  Adding +0 changes only
    the sign of a zero, so on finite z this equals ``P.polyval(z, c)`` bit
    for bit up to the signs of zero real or imaginary parts."""
    if c.size == 1:
        return np.full(np.shape(z), c[0], dtype=complex)
    acc = z * c[-1]
    for coef in c[-2:0:-1]:
        if coef != 0:
            acc += coef
        acc *= z
    if c[0] != 0:
        acc += c[0]
    return acc


def _polyder(c: np.ndarray) -> np.ndarray:
    return P.polyder(c) if c.size > 1 else np.zeros(1, dtype=complex)


def _check_finite(w, safe: bool):
    if safe:
        return w
    bad = ~np.isfinite(w) | (np.abs(w) > OVERFLOW_LIMIT)
    if np.any(bad):
        raise Overflow("automorphism value exceeded the overflow limit")
    return w


class AutomorphismSpec:
    """Base class: a holomorphic automorphism of C^2 fixing {z2 = 0} pointwise."""

    def columns(self, z1, z2):
        """(w1, w2), the map on the coordinate columns; overflow and NaN pass
        through, under the caller's ``np.errstate``."""
        raise NotImplementedError

    def apply(self, z, safe: bool = False):
        z = np.asarray(z, dtype=complex)
        w = np.empty(z.shape, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            w[..., 0], w[..., 1] = self.columns(z[..., 0], z[..., 1])
        return _check_finite(w, safe)

    def jacobian(self, z):
        raise NotImplementedError

    def inverse(self) -> "AutomorphismSpec":
        raise NotImplementedError

    def to_jsonable(self):
        raise NotImplementedError


@dataclass
class Shear(AutomorphismSpec):
    """(z1, z2) -> (z1 + z2 p(z2), z2)."""

    p: np.ndarray

    def __post_init__(self):
        self.p = _coefs(self.p)

    def columns(self, z1, z2):
        return z1 + z2 * _polyval(self.p, z2), z2

    def jacobian(self, z):
        z = np.asarray(z, dtype=complex)
        z2 = z[..., 1]
        J = np.zeros(z.shape[:-1] + (2, 2), dtype=complex)
        J[..., 0, 0] = 1.0
        J[..., 1, 1] = 1.0
        J[..., 0, 1] = _polyval(self.p, z2) + z2 * _polyval(_polyder(self.p), z2)
        return J

    def inverse(self):
        return Shear(-self.p)

    def to_jsonable(self):
        return {"kind": "shear", "p": _cc(self.p)}


@dataclass
class FiberScale(AutomorphismSpec):
    """(z1, z2) -> (z1, z2 e^{g(z1)})."""

    g: np.ndarray

    def __post_init__(self):
        self.g = _coefs(self.g)

    def columns(self, z1, z2):
        # rows on the fixed line keep their z2: 0 * exp(g) is nan where exp overflows
        return z1, np.where(z2 != 0, z2 * np.exp(_polyval(self.g, z1)), z2)

    def jacobian(self, z):
        z = np.asarray(z, dtype=complex)
        z1, z2 = z[..., 0], z[..., 1]
        e = np.exp(_polyval(self.g, z1))
        J = np.zeros(z.shape[:-1] + (2, 2), dtype=complex)
        J[..., 0, 0] = 1.0
        J[..., 1, 0] = z2 * _polyval(_polyder(self.g), z1) * e
        J[..., 1, 1] = e
        return J

    def inverse(self):
        return FiberScale(-self.g)

    def to_jsonable(self):
        return {"kind": "fiber-scale", "g": _cc(self.g)}


@dataclass
class BaseScale(AutomorphismSpec):
    """(z1, z2) -> (z1 e^{h(z2)} + z2 q(z2), z2), with h(0) = 0."""

    h: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.h = _coefs(self.h)
        self.q = _coefs(self.q)
        if abs(self.h[0]) > 0:
            raise ValueError("h(0) must vanish so the line {z2=0} stays fixed")

    def columns(self, z1, z2):
        return z1 * np.exp(_polyval(self.h, z2)) + z2 * _polyval(self.q, z2), z2

    def jacobian(self, z):
        z = np.asarray(z, dtype=complex)
        z1, z2 = z[..., 0], z[..., 1]
        e = np.exp(_polyval(self.h, z2))
        J = np.zeros(z.shape[:-1] + (2, 2), dtype=complex)
        J[..., 0, 0] = e
        J[..., 0, 1] = z1 * _polyval(_polyder(self.h), z2) * e \
            + _polyval(self.q, z2) + z2 * _polyval(_polyder(self.q), z2)
        J[..., 1, 1] = 1.0
        return J

    def inverse(self):
        return Composite([BaseScale(-self.h, np.zeros(1, dtype=complex)),
                          Shear(-self.q)])

    def to_jsonable(self):
        return {"kind": "base-scale", "h": _cc(self.h), "q": _cc(self.q)}


@dataclass
class Composite(AutomorphismSpec):
    """Composition; factors[-1] is applied first, factors[0] last."""

    factors: List[AutomorphismSpec]

    def columns(self, z1, z2):
        for f in reversed(self.factors):
            z1, z2 = f.columns(z1, z2)
        return z1, z2

    def apply(self, z, safe=False):
        # factor by factor, so that safe=False raises Overflow after any factor
        w = np.asarray(z, dtype=complex)
        for f in reversed(self.factors):
            w = f.apply(w, safe=safe)
        return w

    def jacobian(self, z):
        w = np.asarray(z, dtype=complex)
        J = None
        for f in reversed(self.factors):
            Jf = f.jacobian(w)
            J = Jf if J is None else Jf @ J
            w = f.apply(w, safe=True)
        return J

    def inverse(self):
        return Composite([f.inverse() for f in reversed(self.factors)])

    def to_jsonable(self):
        return {"kind": "composite", "factors": [f.to_jsonable() for f in self.factors]}


def _cc(c: np.ndarray):
    return [[float(v.real), float(v.imag)] for v in c]


def automorphism_from_jsonable(data) -> AutomorphismSpec:
    kind = data["kind"]
    def arr(key):
        return np.array([complex(re, im) for re, im in data[key]])
    if kind == "shear":
        return Shear(arr("p"))
    if kind == "fiber-scale":
        return FiberScale(arr("g"))
    if kind == "base-scale":
        return BaseScale(arr("h"), arr("q"))
    if kind == "composite":
        return Composite([automorphism_from_jsonable(f) for f in data["factors"]])
    raise ValueError(f"unknown automorphism kind {kind!r}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class BasinConfig:
    """Geometry and thresholds for the attracting-basin experiment."""

    fixed_point: np.ndarray = field(
        default_factory=lambda: np.array([0.0 + 0.0j, 1.0 + 0.0j]))
    k_center: np.ndarray = field(
        default_factory=lambda: np.array([2.0 + 0.0j, 0.0 + 0.0j]))
    k_radius: float = 0.5
    rate_low: float = 0.3          # a
    rate_high: float = 0.52        # b
    rate_target: float = 0.45      # lambda, both singular values of the differential
    epsilon: float = 0.05          # near-identity budget on K (+ neighborhood)
    neighborhood: float = 0.0      # extra radius around K for the deviation check
    grid_center: tuple = (1.0, 0.5)
    grid_halfwidth: float = 2.5
    grid_n: int = 200
    slice_plane: str = "re"
    max_iter: int = MAX_ITER
    convergence_tol: float = CONVERGENCE_TOL
    escape_radius: float = ESCAPE_RADIUS

    def __post_init__(self):
        self.fixed_point = np.asarray(self.fixed_point, dtype=complex)
        self.k_center = np.asarray(self.k_center, dtype=complex)
        a, b, lam = self.rate_low, self.rate_high, self.rate_target
        if not (0.0 < a < 0.5 < b < 1.0):
            raise ValueError("rates must satisfy 0 < a < 1/2 < b < 1")
        if not b * b < a:
            raise ValueError("rates must satisfy b^2 < a")
        if not a < lam < b:
            raise ValueError("target rate must lie strictly inside (a, b)")
        if abs(self.fixed_point[1]) < 1e-12:
            raise ValueError("fixed point must lie off the invariant line {z2=0}")
        if self.k_radius <= 0 or self.epsilon <= 0:
            raise ValueError("k_radius and epsilon must be positive")
        gap = np.linalg.norm(self.fixed_point - self.k_center)
        if gap <= self.k_radius + self.neighborhood:
            raise ValueError("fixed point must lie outside K and its neighborhood")
        if self.slice_plane not in ("re", "im", "z1", "z2"):
            raise ValueError("slice_plane must be 're', 'im', 'z1' or 'z2'")

    def to_jsonable(self):
        return {
            "fixed_point": _cc(self.fixed_point),
            "k_center": _cc(self.k_center),
            "k_radius": float(self.k_radius),
            "rate_low": float(self.rate_low),
            "rate_high": float(self.rate_high),
            "rate_target": float(self.rate_target),
            "epsilon": float(self.epsilon),
            "neighborhood": float(self.neighborhood),
            "grid_center": [float(self.grid_center[0]), float(self.grid_center[1])],
            "grid_halfwidth": float(self.grid_halfwidth),
            "grid_n": int(self.grid_n),
            "slice_plane": self.slice_plane,
            "max_iter": int(self.max_iter),
            "convergence_tol": float(self.convergence_tol),
            "escape_radius": float(self.escape_radius),
        }

    @classmethod
    def from_jsonable(cls, data):
        kwargs = dict(data)
        for key in ("fixed_point", "k_center"):
            if key in kwargs:
                kwargs[key] = np.array([complex(re, im) for re, im in kwargs[key]])
        if "grid_center" in kwargs:
            kwargs["grid_center"] = tuple(kwargs["grid_center"])
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# contraction design
# ---------------------------------------------------------------------------

@dataclass
class ContractionDesign:
    psi: AutomorphismSpec
    params: dict
    diagnostics: dict

    def to_jsonable(self):
        return {"psi": self.psi.to_jsonable(), "params": self.params,
                "diagnostics": self.diagnostics}


def _k_samples(config: BasinConfig, count: int = 400) -> np.ndarray:
    """Deterministic samples of K + neighborhood: spherical Fibonacci
    directions in R^4 at several radii."""
    R = config.k_radius + config.neighborhood
    c = config.k_center
    pts = [c.copy()]
    for i, d in enumerate(_sphere_dirs(max(1, count - 1))):
        rho = R * (0.25 + 0.75 * (((i * 7) % 4) / 3.0))
        pts.append(c + rho * d)
    return np.array(pts)


@lru_cache(maxsize=None)
def _sphere_dirs(count: int = 60) -> np.ndarray:
    """Deterministic unit directions in C^2 (as (count, 2) complex array),
    from a 3-angle spherical Fibonacci lattice on S^3; memoized, read-only."""
    dirs = []
    golden = (1 + np.sqrt(5)) / 2
    for i in range(count):
        t1 = 2 * np.pi * ((i / golden) % 1.0)
        t2 = 2 * np.pi * ((i / golden ** 2) % 1.0)
        u = np.arccos(1 - 2 * ((i + 0.5) / count))
        d = np.array([np.cos(t1) * np.sin(u), np.sin(t1) * np.sin(u),
                      np.cos(t2) * np.cos(u), np.sin(t2) * np.cos(u)])
        d = d / np.linalg.norm(d)
        dirs.append([d[0] + 1j * d[1], d[2] + 1j * d[3]])
    dirs = np.array(dirs)
    dirs.flags.writeable = False
    return dirs


def _dist(z1, z2, f):
    """Rows |(z1, z2) - f| from the two columns: ``np.linalg.norm(z - f, axis=-1)``
    bit for bit."""
    d1, d2 = z1 - f[..., 0], z2 - f[..., 1]
    return np.sqrt((d1.conj() * d1).real + (d2.conj() * d2).real)


def _sphere_ratios(psi, f, radius):
    """(rho, |psi(z) - f| / rho over 60 sphere directions) for the spheres of
    radius rho = radius/4, radius/2, radius around f, in that order."""
    dirs = _sphere_dirs(60)
    for rho in (radius / 4, radius / 2, radius):
        z = f[None, :] + rho * dirs
        yield rho, _dist(*psi.apply(z).T, f) / rho


def _build_candidate(config: BasinConfig, N: int, M: int, Pexp: int, d_shape: float):
    """Closed-form candidate map for the default geometry family; raises
    DesignFailed when the family cannot apply to the config.

    With f = (f1, f2), f1 = 0, and K centered at (k1, 0):
      h(z)  = L (z/f2)^N,               L = 2 log(lambda), so e^{h(f2)} = lambda^2;
      q(z)  = Qd z^M (z - f2)/f2^? ...  chosen with q(f2) = 0 and q'(f2) = -lambda*s;
      g(z1) = gamma z1 (1 - z1/k1)^P,   gamma = s/lambda, so g(0)=0, g'(0)=gamma.
    The differential at f is then exactly lambda * rotation, with both singular
    values lambda; high-order flatness keeps the map near the identity on K and
    pins far-field orbits for many iterations.
    """
    lam = config.rate_target
    s = float(np.sqrt(1.0 - lam * lam))
    f1, f2 = config.fixed_point
    k1 = config.k_center[0]
    if abs(k1) < 1e-9:
        raise DesignFailed("family mismatch: K must be centred off {z1 = 0}")
    if abs(f1) > 1e-12:
        raise DesignFailed(FIXED_POINT_MISMATCH)
    L = 2.0 * np.log(lam)
    # h(z) = L * (z/f2)^N
    h = np.zeros(N + 1, dtype=complex)
    h[N] = L / f2 ** N
    # q(z) = Qd * (z/f2)^M * (z - f2)/f2  [+ shape * (z/f2)^(M-1) * ((z-f2)/f2)^2]
    Qd = -lam * s
    q = np.zeros(M + 2, dtype=complex)
    q[M + 1] += Qd / f2 ** (M + 1)
    q[M] += -Qd / f2 ** M
    if d_shape:
        q[M + 1] += d_shape / f2 ** (M + 1)
        q[M] += -2.0 * d_shape / f2 ** M
        q[M - 1] += d_shape / f2 ** (M - 1)
    gamma = s / lam
    # g(z1) = gamma * z1 * (1 - z1/k1)^P
    binom = np.zeros(Pexp + 1, dtype=complex)
    for j in range(Pexp + 1):
        binom[j] = comb(Pexp, j) * (-1.0 / k1) ** j
    g = np.zeros(Pexp + 2, dtype=complex)
    g[1:] = gamma * binom
    psi = Composite([FiberScale(g), BaseScale(h, q)])
    # psi'(f) = [[lam^2, Qd], [f2 gamma lam^2, 1 + f2 gamma Qd]], lam * rotation iff f2 = 1
    sv = np.linalg.svd(psi.jacobian(config.fixed_point), compute_uv=False)
    if np.max(np.abs(sv - lam)) > 1e-9:
        raise DesignFailed(FIXED_POINT_MISMATCH)
    params = {"N": N, "M": M, "P": Pexp, "d_shape": d_shape,
              "lambda": lam, "L": float(L.real), "Qd": float(Qd), "gamma": gamma}
    return psi, params


def _verify_candidate(psi, config: BasinConfig, radius: float):
    """Numeric verification; returns a diagnostics dict or None on failure."""
    f = config.fixed_point
    a, b = config.rate_low, config.rate_high
    # exact fixed point
    fp_err = float(np.linalg.norm(psi.apply(f) - f))
    if fp_err > 1e-12:
        return None
    # differential: _build_candidate held both singular values at the target rate
    sv = np.linalg.svd(psi.jacobian(f), compute_uv=False)
    # near-identity on K (+ neighborhood)
    ks = _k_samples(config)
    dev = float(np.max(_dist(*psi.apply(ks).T, ks)))
    if dev > config.epsilon:
        return None
    # sphere contraction ratios at the estimate radius
    margin = 1e-3
    ratios_all = {}
    for rho, ratios in _sphere_ratios(psi, f, radius):
        if np.min(ratios) < a + margin or np.max(ratios) > b - margin:
            return None
        ratios_all[rho] = (float(np.min(ratios)), float(np.max(ratios)))
    return {
        "fixed_point_error": fp_err,
        "singular_values": [float(sv[0]), float(sv[1])],
        "k_deviation": dev,
        "epsilon": config.epsilon,
        "estimate_radius": float(radius),
        "sphere_ratios": {f"{rho:g}": list(v) for rho, v in ratios_all.items()},
    }


def design_contraction_step(config: Optional[BasinConfig] = None) -> ContractionDesign:
    """Search a small deterministic candidate grid for an automorphism meeting
    every requirement; raise DesignFailed when none does."""
    config = config or BasinConfig()
    failures = []
    for (N, M, Pexp) in ((12, 8, 6), (10, 7, 5), (14, 9, 6)):
        for d_shape in (0.0, 0.2, -0.2):
            psi, params = _build_candidate(config, N, M, Pexp, d_shape)
            for radius in (0.01, 0.005, 0.002):
                diag = _verify_candidate(psi, config, radius)
                if diag is not None:
                    return ContractionDesign(psi=psi, params=params, diagnostics=diag)
            failures.append(f"verification failed N={N} M={M} P={Pexp} d={d_shape}")
    raise DesignFailed("no candidate automorphism met the contraction, "
                       "near-identity, and sphere-ratio requirements: "
                       + "; ".join(failures[:5]))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def slice_grid(config: BasinConfig):
    """Grid of complex start points in the configured 2-plane slice.

    "re" / "im" grid the real (resp. imaginary) parts of both coordinates;
    "z1" / "z2" grid one full complex coordinate while parking the other at
    its fixed-point value.
    """
    n = config.grid_n
    cx, cy = config.grid_center
    hw = config.grid_halfwidth
    xs = np.linspace(cx - hw, cx + hw, n)
    ys = np.linspace(cy - hw, cy + hw, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    Z = np.zeros((n, n, 2), dtype=complex)
    if config.slice_plane == "re":
        Z[..., 0] = X
        Z[..., 1] = Y
    elif config.slice_plane == "im":
        Z[..., 0] = 1j * X
        Z[..., 1] = 1j * Y
    elif config.slice_plane == "z1":
        Z[..., 0] = X + 1j * Y
        Z[..., 1] = config.fixed_point[1]
    else:
        Z[..., 0] = config.fixed_point[0]
        Z[..., 1] = X + 1j * Y
    return Z.reshape(-1, 2), xs, ys


def classify_points(psi, points, config: BasinConfig):
    """Iterate psi on each start point; returns (labels, steps).

    labels: basin (reached the convergence ball of the fixed point), escape
    (left the escape radius or overflowed), undecided (iteration cap).
    steps: iteration count at the decision (cap for undecided).

    A row escapes unless max(|z1|, |z2|) <= escape_radius and |z - f| is
    finite; NaN, infinite and overflowing coordinates fail that test with no
    mask of their own, and a NaN distance fails ``<= convergence_tol``.

    An orbit that lands on an exact floating-point fixed point of psi outside
    the convergence ball stops iterating early; it is still reported
    undecided with steps = max_iter, as iterating to the cap would give.

    For psi = FiberScale(g) o BaseScale(h, q), so do orbits that every 4th
    step ``_in_tube`` proves to stay near the fixed line.  A step sends z1 to
    z1 e^{h(z2)} + z2 q(z2), then z2 to z2 e^{g(z1)}.  While |z2_j| <= s e^{-j
    kappa}, s = |z2| <= delta, the majorants H, Q of h, q and the lowest
    degrees N of h, M of z2 q bound the total z1 drift by r = (|z1| A + B) /
    (1 - A), A = expm1(H(s)) / (1 - e^{-N kappa}), B = s Q(s) / (1 - e^{-M
    kappa}); Re g <= Re g(z1) + r sum k|g_k| (|z1| + r)^{k-1} <= -kappa on the
    disc B(z1, r) keeps z2 shrinking.  By induction the orbit stays in |z2| <=
    s, |z1| <= |z1| + r, far from f and the escape radius.  Rounding, about
    1e-16 relative per step, is far inside the kappa margin.
    """
    f = config.fixed_point
    tube = isinstance(psi, Composite) and list(map(type, psi.factors)) == [FiberScale, BaseScale]
    points = np.asarray(points, dtype=complex)
    c1, c2 = points[:, 0].copy(), points[:, 1].copy()  # iterates of the live rows only
    m = len(c1)
    codes = np.full(m, _UNDECIDED, dtype=np.int8)
    steps = np.full(m, config.max_iter, dtype=int)
    active = np.arange(m)
    # overflow while measuring runaway orbits is the escape signal itself
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, config.max_iter + 1):
            w1, w2 = psi.columns(c1, c2)
            dist = _dist(w1, w2, f)
            esc = ~(np.maximum(np.abs(w1), np.abs(w2)) <= config.escape_radius)
            esc |= ~np.isfinite(dist)
            conv = dist <= config.convergence_tol
            codes[active[esc]] = _ESCAPE
            codes[active[conv & ~esc]] = _BASIN
            steps[active[esc | conv]] = k
            # psi acts row by row, so a row with psi(z) == z bit for bit repeats
            # this step's undecided answer until the cap
            keep = ~(esc | conv | ((w1 == c1) & (w2 == c2)))
            if tube and k % 4 == 0:
                keep &= ~_in_tube(*psi.factors, w1, w2, config)
            active, c1, c2 = active[keep], w1[keep], w2[keep]
            if active.size == 0:
                break
    return _LABELS[codes], steps


def _in_tube(fiber: FiberScale, base: BaseScale, z1, z2, config: BasinConfig):
    """Rows (z1, z2) whose orbits provably stay in the tube of ``classify_points``."""
    out = np.abs(z2) <= _TUBE_DELTA
    if not out.any():
        return out
    a1, s = np.abs(z1[out]), np.abs(z2[out])
    N = max(int(np.argmax(base.h != 0)), 1)  # h(0) = 0
    M = 1 + int(np.argmax(base.q != 0))
    A = np.expm1(P.polyval(s, np.abs(base.h))) / -np.expm1(-N * _TUBE_KAPPA)
    B = s * P.polyval(s, np.abs(base.q)) / -np.expm1(-M * _TUBE_KAPPA)
    r = (a1 * A + B) / (1 - A)
    re_g = _polyval(fiber.g, z1[out]).real + r * P.polyval(a1 + r, np.abs(_polyder(fiber.g)))
    out[out] = ((A < 1) & (re_g <= -_TUBE_KAPPA) & (a1 + r <= config.escape_radius)
                & (np.abs(config.fixed_point[1]) - s > config.convergence_tol))
    return out


def rate_brackets(psi, config: BasinConfig, radius: float, k_max: int = 6,
                  slack: float = 1e-9):
    """Iterated contraction ratios from deterministic probes on the sphere of
    radius ``radius`` around the fixed point, checked against [a^k, b^k]."""
    f = config.fixed_point
    a, b = config.rate_low, config.rate_high
    dirs = _sphere_dirs(16)
    z = f[None, :] + radius * dirs
    out = []
    for k in range(1, k_max + 1):
        z = psi.apply(z)
        ratios = _dist(*z.T, f) / radius
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        ok = (a ** k) * (1 - slack) <= lo and hi <= (b ** k) * (1 + slack)
        out.append({"k": k, "count": len(dirs), "min_ratio": lo, "max_ratio": hi,
                    "lower": a ** k, "upper": b ** k, "ok": bool(ok)})
    return out


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _formatted(values, fmt):
    """``fmt % v`` for each v of values, formatting each distinct bit pattern
    once (so -0 and 0 keep their own text)."""
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([fmt % v for v in keys.view(values.dtype).tolist()], dtype=object)[inverse]


def _csv_rows(points, labels, steps):
    """CSV text; a slice grid has at most n distinct values per column."""
    z1, z2 = points[:, 0], points[:, 1]
    cols = [_formatted(x, "%.6g").tolist() for x in (z1.real, z1.imag, z2.real, z2.imag)]
    rows = map(",".join, zip(*cols, labels.tolist(), _formatted(steps, "%d").tolist()))
    return "\n".join(["re_z1,im_z1,re_z2,im_z2,label,steps", *rows]) + "\n"


_SVG_COLORS = {BASIN: "#2a9d8f", ESCAPE: "#e76f51", UNDECIDED: "#dddddd"}


def _svg_raster(labels_grid):
    """Run-length encoded 3-color slice picture."""
    n = labels_grid.shape[0]
    cell = max(1, 800 // n)
    w = n * cell
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{w}" '
             f'viewBox="0 0 {w} {w}">']
    for i in range(n):
        j = 0
        while j < n:
            lab = labels_grid[i, j]
            j2 = j
            while j2 < n and labels_grid[i, j2] == lab:
                j2 += 1
            parts.append(f'<rect x="{i * cell}" y="{(n - 1 - j) * cell - (j2 - j - 1) * cell}" '
                         f'width="{cell}" height="{(j2 - j) * cell}" '
                         f'fill="{_SVG_COLORS[lab]}"/>')
            j = j2
    parts.append("</svg>")
    return "".join(parts)


def basin_report(config: Optional[BasinConfig] = None, want_svg: bool = False):
    """Full experiment: design, verify, simulate, and assert.

    Returns a dict report (JSON-ready) plus the CSV text and optional SVG.
    When the design search fails the report carries status "inconclusive"
    with the failure reason and no grid data.
    """
    config = config or BasinConfig()
    report = {"config": config.to_jsonable()}
    try:
        design = design_contraction_step(config)
    except DesignFailed as exc:
        report["status"] = "inconclusive"
        report["design"] = {"status": "failed", "reason": str(exc)}
        return report, None, None
    psi = design.psi
    radius = design.diagnostics["estimate_radius"]
    report["design"] = {"status": "ok", "params": design.params,
                        "diagnostics": design.diagnostics,
                        "psi": psi.to_jsonable()}
    # _verify_candidate already held these ratios inside [a, b] with a margin
    report["attracting_estimate"] = dict(design.diagnostics["sphere_ratios"])

    points, _, _ = slice_grid(config)
    labels, steps = classify_points(psi, points, config)
    n = config.grid_n
    counts = {lab: int(np.sum(labels == lab)) for lab in (BASIN, ESCAPE, UNDECIDED)}
    report["grid"] = {"n": n, "center": list(config.grid_center),
                      "halfwidth": config.grid_halfwidth,
                      "slice": config.slice_plane, "counts": counts}

    in_k = _dist(*points.T, config.k_center) <= config.k_radius
    near_line = np.abs(points[:, 1]) < 1e-6
    basin_mask = labels == BASIN
    report["assertions"] = {
        "basin_points_in_k": int(np.sum(basin_mask & in_k)),
        "basin_points_near_fixed_line": int(np.sum(basin_mask & near_line)),
        "k_grid_points": int(np.sum(in_k)),
        "near_line_grid_points": int(np.sum(near_line)),
    }
    report["brackets"] = rate_brackets(psi, config, radius / 2)
    report["status"] = "ok"
    csv_text = _csv_rows(points, labels, steps)
    svg_text = _svg_raster(labels.reshape(n, n)) if want_svg else None
    return report, csv_text, svg_text
