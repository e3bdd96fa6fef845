"""Sampled certification that the complement of a closed convex set is Oka-like.

The certifier never claims the analytic conclusion itself; it verifies
sufficient geometric hypotheses (line-freeness, tangent-slice behavior,
stable separating hyperplanes) on sampled data and reports one of four
verdicts per check:

* ``certified-exact``   -- decided by exact algebra (rational/structural),
* ``verified-sampled``  -- every sampled instance satisfied the hypothesis,
* ``refuted``           -- an explicit witness violates the hypothesis,
* ``inconclusive``      -- the check does not apply or sampling was blocked.

Checks are grouped into routes; the overall verdict is the best outcome over
routes (a set can fail one route and still verify through another, so a
refuted check forces overall "refuted" only when no route verifies).

Complex hyperplanes are stored in bilinear form {z : sum_j c_j z_j = beta}
with Hermitian-unit, phase-canonical coefficients.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import List, Optional

import numpy as np

from .errors import (
    LPNumericalFailure,
    PointInsideSet,
    ProjectionDidNotConverge,
    UnsupportedVariant,
    ZeroGradient,
)
from .geometry import (
    AffineSubspaceC,
    complex_gradient_from_real,
    complex_tangent,
    complexify,
    realify,
)
from .lp import solve_lp
from .sets import PLANAR_MARGIN, ConvexSet
from .stability import (
    halfline_in_intersection,
    is_stable,
    stability_states,
    tube_or_support,
)

CERTIFIED = "certified-exact"
VERIFIED = "verified-sampled"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

# route -> the checks that must all verify for the route to certify.  A route
# counts only when all its checks are in the certificate, so the smoothing
# route exists only for norm-combination epigraphs.
ROUTES = {
    "lineality": ("no_affine_line",),
    "tangent_slices": ("tangent_slice_halflines",),
    "projective": ("weak_projective", "line_lift", "connectivity", "chart_compact"),
    "normcombo_smoothing": ("normcombo_smoothing",),
}

_ANCHORS = {
    "no_affine_line": "no-affine-line",
    "tangent_slice_halflines": "tangent-slice-halflines",
    "weak_projective": "exterior-stable-hyperplane",
    "line_lift": "line-lifts-to-hyperplane",
    "connectivity": "hyperplane-graph-connectivity",
    "chart_compact": "cone-chart-compactness",
    "normcombo_smoothing": "irreducible-normcombo-smoothing",
}


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic sampling budget shared by all checks."""

    seed: int = 42
    boundary: int = 500
    exterior: int = 200
    lines: int = 100
    hyperplanes: int = 60
    window: float = 10.0

    def __post_init__(self):
        for name in ("boundary", "exterior", "lines", "hyperplanes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.window <= 0:
            raise ValueError("window must be positive")

    def rng(self, label: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(label.encode("ascii"))])

    def scaled(self, samples: int) -> "SamplingPlan":
        """Rescale every per-check budget proportionally to ``samples`` boundary points."""
        f = samples / 500.0
        return replace(self, boundary=max(1, samples), exterior=max(1, int(round(200 * f))),
                       lines=max(1, int(round(100 * f))), hyperplanes=max(2, int(round(60 * f))))

    def to_jsonable(self):
        return asdict(self)


class Hyperplane:
    """Complex affine hyperplane {z : coeffs . z = offset} (bilinear pairing).

    ``stripped_theta`` is the phase divided out of the given coefficients:
    ``real_eta(stripped_theta)`` is the real covector of the coefficients as
    given, which for ``from_real_normal`` is the real normal itself.  It is
    the angle the hyperplane was built with.  On a shadow that
    ``E.shadow_angles`` leaves undecided, ``_disjoint_rows`` tries that angle
    only.  A hyperplane built from a real normal that separates its point
    from E misses E there; a projection hyperplane through an exterior point
    misses it by exactly the point's distance from E.
    """

    __slots__ = ("coeffs", "offset", "stripped_theta")

    def __init__(self, coeffs, offset):
        c = np.asarray(coeffs, dtype=complex).ravel()
        norm = np.sqrt(np.sum(np.abs(c) ** 2))
        if norm < 1e-14:
            raise ValueError("hyperplane coefficients are zero")
        c = c / norm
        self.stripped_theta = float(-np.angle(c[np.argmax(np.abs(c) > 1e-12)]))
        phase = np.exp(1j * self.stripped_theta)
        self.coeffs, self.offset = c * phase, complex(offset) / norm * phase

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @classmethod
    def from_real_normal(cls, point_real, normal_real):
        """The complex tangent hyperplane, through ``point``, of the real
        hyperplane with outward normal ``normal`` at that point."""
        nu = np.asarray(normal_real, dtype=float)
        if np.linalg.norm(nu) < 1e-13:
            raise ZeroGradient("normal direction vanishes")
        c = np.conj(complexify(nu / np.linalg.norm(nu)))
        z = complexify(np.asarray(point_real, dtype=float))
        return cls(c, np.dot(c, z))

    def eval(self, z) -> complex:
        return complex(np.dot(self.coeffs, np.asarray(z, dtype=complex)) - self.offset)

    def base_point(self) -> np.ndarray:
        c = self.coeffs
        return self.offset * np.conj(c) / float(np.sum(np.abs(c) ** 2))

    def subspace(self) -> AffineSubspaceC:
        return complex_tangent(self.coeffs, self.base_point())

    def real_eta(self, theta: float) -> np.ndarray:
        """Real covector of x -> Re(e^{-i theta} (coeffs . z))."""
        return realify(np.conj(np.exp(-1j * theta) * self.coeffs))

    def to_jsonable(self):
        return {
            "coeffs": [[float(z.real), float(z.imag)] for z in self.coeffs],
            "offset": [float(self.offset.real), float(self.offset.imag)],
        }

    @classmethod
    def from_jsonable(cls, data):
        c = np.array([complex(re, im) for re, im in data["coeffs"]])
        beta = complex(data["offset"][0], data["offset"][1])
        return cls(c, beta)


def _disjoint_rows(E: ConvexSet, coeffs, offsets, stripped):
    """(ok, theta, margin) per hyperplane row {coeffs_i . z = offsets_i}:
    does the offset lie outside the shadow coeffs_i . E in C?  The margin at
    theta is sup_E Re(e^{-i theta}(coeffs_i . z - offsets_i)), ok is a margin
    below -1e-10 (1 + |offsets_i|), and a row takes its least finite margin,
    (False, 0.0, inf) when none is finite.

    A row that ``E.shadow_angles`` decides is tried at its exact angles, so
    theta is the best angle and the margin minus the offset's distance from
    the shadow.  Any other row is tried at its stripped phase only, the angle
    its hyperplane was built with (``Hyperplane``)."""
    exact, decided = E.shadow_angles(coeffs, offsets)
    angles = np.hstack([exact, stripped[:, None]])
    angles[decided, -1] = np.nan
    angles[~decided, :-1] = np.nan
    r, j = np.nonzero(~np.isnan(angles))
    rot = np.exp(-1j * angles[r, j])
    values = np.fromiter(E.support_values(realify(np.conj(rot[:, None] * coeffs[r]))),
                         float, count=r.size)
    margins = np.full(angles.shape, np.inf)
    margins[r, j] = np.where(np.isfinite(values), values - np.real(rot * offsets[r]), np.inf)
    rows = np.arange(angles.shape[0])
    pick = margins.argmin(axis=1)
    margin = margins[rows, pick]
    theta = np.where(np.isfinite(margin), angles[rows, pick], 0.0)
    return margin < -1e-10 * (1.0 + np.abs(offsets)), theta, margin


def _hyperplane_rows(planes, n):
    """(coeffs, offsets, stripped phases) of ``planes``, one row each, for ``_disjoint_rows``."""
    return (np.array([H.coeffs for H in planes]).reshape(-1, n),
            np.array([H.offset for H in planes], dtype=complex),
            np.array([H.stripped_theta for H in planes], dtype=float))


def hyperplane_disjoint(E: ConvexSet, H: Hyperplane):
    """``_disjoint_rows`` of the one hyperplane H, as (ok, theta, margin): at
    the exact angles where ``E.shadow_angles`` decides H, else at its
    stripped phase only.  Every hyperplane the certifier builds separates
    there when it misses E; for any other H, False shows only that this angle
    does not separate."""
    ok, theta, margin = _disjoint_rows(E, *_hyperplane_rows([H], H.n))
    return bool(ok[0]), float(theta[0]), float(margin[0])


@dataclass
class CheckResult:
    """One check's verdict; ``_check`` stamps ``name`` and ``seed``."""

    verdict: str
    witnesses: list = field(default_factory=list)
    samples: int = 0
    detail: str = ""
    name: str = ""
    seed: int = 0

    @property
    def anchor(self) -> str:
        return _ANCHORS[self.name]

    @property
    def verified(self) -> bool:
        return self.verdict in (CERTIFIED, VERIFIED)

    def to_jsonable(self):
        return {
            "name": self.name,
            "anchor": self.anchor,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "samples": int(self.samples),
            "seed": int(self.seed),
            "detail": self.detail,
        }


@dataclass
class Certificate:
    input_digest: str
    checks: List[CheckResult]
    overall: str

    def check(self, name: str) -> Optional[CheckResult]:
        for c in self.checks:
            if c.name == name:
                return c
        return None

    def to_jsonable(self):
        return {
            "input_digest": self.input_digest,
            "checks": [c.to_jsonable() for c in self.checks],
            "overall": self.overall,
        }


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _in_complex_plane(E: ConvexSet) -> bool:
    try:
        return E.complex_n() >= 2
    except UnsupportedVariant:
        return False


def _check(needs_complex_plane=True):
    """Wrap ``check_<name>``: inconclusive off C^n, n >= 2 (when
    ``needs_complex_plane``), on an LP numerical failure and on a failed
    projection; the result carries ``<name>`` and the plan's seed."""
    def wrap(check):
        name = check.__name__[len("check_"):]

        @functools.wraps(check)
        def run(E: ConvexSet, plan: SamplingPlan, *args, **kwargs) -> CheckResult:
            if needs_complex_plane and not _in_complex_plane(E):
                res = CheckResult(INCONCLUSIVE, detail="ambient space is not C^n with n >= 2")
            else:
                try:
                    res = check(E, plan, *args, **kwargs)
                except LPNumericalFailure as exc:
                    res = CheckResult(INCONCLUSIVE, detail=f"LP numerical failure: {exc}")
                except ProjectionDidNotConverge as exc:
                    res = CheckResult(INCONCLUSIVE, detail=f"projection failed: {exc}")
            return replace(res, name=name, seed=plan.seed)
        return run
    return wrap


@_check(needs_complex_plane=False)
def check_no_affine_line(E: ConvexSet, plan: SamplingPlan) -> CheckResult:
    """Does E contain an affine real line?  Empty lineality certifies the
    hypothesis exactly; a lineality direction is recorded as a witness but the
    verdict stays inconclusive for this route (E may verify through others)."""
    rows, exact = E.lineality_exact()
    if rows.shape[0] == 0:
        return CheckResult(CERTIFIED if exact else VERIFIED, detail="lineality space is trivial")
    witnesses = [{"kind": "line-direction", "direction": [float(t) for t in r]}
                 for r in rows]
    return CheckResult(INCONCLUSIVE, witnesses=witnesses,
                       detail="E contains affine lines; route does not apply")


@_check()
def check_tangent_slice_halflines(E: ConvexSet, plan: SamplingPlan) -> CheckResult:
    """At sampled boundary points p, the slice of E by the maximal complex
    subspace of the tangent hyperplane must not contain a halfline."""
    if not E.is_c1_boundary:
        return CheckResult(INCONCLUSIVE, detail="boundary is not C1; tangent data unavailable")
    rng = plan.rng("tangent")
    try:
        pts = E.sample_boundary(rng, plan.boundary, window=plan.window)
    except UnsupportedVariant as exc:
        return CheckResult(INCONCLUSIVE, detail=f"boundary sampling unavailable: {exc}")
    rows = []
    for p in pts:
        try:
            gc = complex_gradient_from_real(E.boundary_gradient(p))
        except UnsupportedVariant:
            continue
        if np.linalg.norm(gc) > 1e-12:  # complex_tangent raises ZeroGradient otherwise
            rows.append((p, gc))
    # a stable tangent plane meets no recession direction, so it holds no halfline
    stable = stability_states(E, np.array([gc for _, gc in rows]).reshape(-1, E.complex_n()))[0]
    witnesses = []
    checked = 0
    for (p, gc), ok in zip(rows, stable):
        checked += 1
        hit = None if ok else halfline_in_intersection(
            E, complex_tangent(gc, complexify(p)), base_point=p)
        if hit is not None:
            x0, v = hit
            witnesses.append({
                "kind": "halfline",
                "boundary_point": [float(t) for t in p],
                "point": [float(t) for t in x0],
                "direction": [float(t) for t in v],
            })
            if len(witnesses) >= 3:
                break
    if witnesses:
        return CheckResult(REFUTED, witnesses=witnesses, samples=checked,
                           detail="tangent slice contains a halfline")
    if checked == 0:
        return CheckResult(INCONCLUSIVE, detail="no usable boundary samples")
    return CheckResult(VERIFIED, samples=checked, detail="no halfline in any sampled tangent slice")


def _canonical_exterior_hyperplane(E: ConvexSet, q: np.ndarray, eta=None, h=0.0):
    """Translate of the complex tangent at the metric projection p of q,
    through q; None when the projection fails or lands on q.  Given eta in
    int K° and h = h_E(eta), its normal q - p is repaired along eta (README)."""
    try:
        nu = q - E.nearest_boundary(q)
        if np.linalg.norm(nu) < 1e-12:
            return None
        if eta is not None:
            gap = h - eta @ q
            nu = nu + (nu @ nu / (2.0 * gap) if gap > 0 else 1.0) * eta
        return Hyperplane.from_real_normal(q, nu)
    except (ProjectionDidNotConverge, PointInsideSet, UnsupportedVariant, ZeroGradient):
        return None


def _stable_plane_witness(q, H, theta, margin, aperture):
    return {
        "kind": "stable-hyperplane",
        "hyperplane": H.to_jsonable(),
        "theta": float(theta),
        "margin": float(margin),
        # None past the vertex cap, where no aperture is proven
        "aperture": float(aperture) if np.isfinite(aperture) else None,
        "through": [float(t) for t in q],
    }


def _evidence(E: ConvexSet, planes, stable, aperture):
    """The stable-hyperplane witnesses of the (q, H) ``planes`` that are
    ``stable`` and that ``_disjoint_rows`` separates from E."""
    ok, theta, margin = _disjoint_rows(E, *_hyperplane_rows([H for _, H in planes], E.complex_n()))
    return [_stable_plane_witness(q, H, *row) for (q, H), keep, *row
            in zip(planes, ok & stable, theta, margin, aperture) if keep]


@_check()
def check_weak_projective(E: ConvexSet, plan: SamplingPlan) -> CheckResult:
    """Each exterior point must lie on a stable complex hyperplane missing E.
    A theorem on a line-free E (README), whose repaired planes of the first
    exterior samples are kept as evidence.  With dim L >= 2 no stable
    hyperplane misses E, and the unstable projection planes of the first
    samples are the witnesses.  With dim L = 1 each sampled exterior point
    lies on its metric projection plane, repaired along a strip covector
    where it is unstable (README)."""
    rng = plan.rng("projective")
    rows, exact = E.lineality_exact()
    if not rows.shape[0]:
        ineq = E.recession_cone().ineq  # eta_1, the sum of its unit rows, lies in int K°
        eta = (ineq / np.linalg.norm(ineq, axis=1, keepdims=True)).sum(axis=0)
        h = E.support(eta).value if eta.any() else 0.0
        qs = E.sample_exterior(rng, min(plan.exterior, max(8, plan.hyperplanes)), plan.window)
        planes = [(q, H) for q in qs if (H := _canonical_exterior_hyperplane(E, q, eta, h))]
        C = np.array([H.coeffs for _, H in planes]).reshape(-1, E.complex_n())
        return CheckResult(CERTIFIED if exact else VERIFIED,
                           witnesses=_evidence(E, planes, *stability_states(E, C)),
                           detail="no affine line: every exterior point lies on a stable "
                                  "disjoint hyperplane (repaired projection plane)")
    qs = E.sample_exterior(rng, plan.exterior, window=plan.window)
    if qs.shape[0] == 0:
        return CheckResult(INCONCLUSIVE, detail="no exterior samples inside the window")
    planes = [(q, H) for q in qs if (H := _canonical_exterior_hyperplane(E, q)) is not None]
    skipped = qs.shape[0] - len(planes)
    if not planes:
        return CheckResult(INCONCLUSIVE, detail=f"all {skipped} exterior samples unusable")
    if rows.shape[0] >= 2:
        witnesses = []
        for q, H in planes:
            v = is_stable(E, H.subspace()).witness
            if v is not None:
                witnesses.append({"kind": "unstable-hyperplane",
                                  "exterior_point": [float(t) for t in q],
                                  "hyperplane": H.to_jsonable(),
                                  "recession_direction": [float(t) for t in v]})
                if len(witnesses) == 5:
                    break
        return CheckResult(REFUTED, witnesses=witnesses, samples=len(planes),
                           detail=_empty_family(rows.shape[0]))
    stable, aperture = stability_states(E, np.array([H.coeffs for _, H in planes]))
    unstable = np.flatnonzero(~stable)
    if unstable.size:
        cone = E.recession_cone()
        why = f"{unstable.size} unstable projection planes and no "
        if cone.generators is None:
            return CheckResult(INCONCLUSIVE, detail=why + "generators past the vertex cap")
        rays, L = cone.generators
        reps = _side_representatives(E, rays, L[0])
        if not reps:
            return CheckResult(INCONCLUSIVE, detail=why + "stable sign class to repair them along")
        jv = realify(1j * complexify(L[0]))
        strips = [(eta, E.support(eta).value)
                  for eta in (_strip_covector(c, L[0], side)[1] for c, side in reps)]
        for i in unstable:
            q, H = planes[i]
            # the class of the projection normal nu: eta . Jv of the sign of nu . Jv
            sign = H.real_eta(H.stripped_theta) @ jv
            eta, h = next((s for s in strips if s[0] @ jv * sign > 0), strips[0])
            planes[i] = (q, _canonical_exterior_hyperplane(E, q, eta, h))
        stable[unstable], aperture[unstable] = stability_states(
            E, np.array([planes[i][1].coeffs for i in unstable]))
    note = f"; {skipped} exterior samples skipped (projection failed)" if skipped else ""
    evidence = _evidence(E, planes, stable, aperture)
    return CheckResult(VERIFIED, witnesses=evidence[:max(8, plan.hyperplanes)], samples=len(planes),
                       detail="stable disjoint hyperplane through every sampled exterior point"
                              + note)


@_check()
def check_line_lift(E: ConvexSet, plan: SamplingPlan) -> CheckResult:
    """Every stable complex line must admit a parallel translate inside a
    stable complex hyperplane disjoint from (a translate off) E: a theorem on a
    line-free E (README), inconclusive when dim L >= 2, sampled when dim L = 1.

    Construction: squeeze the line against E (tube_or_support) and take the
    complex tangent of the supporting real hyperplane at the contact point:
    its unit normal vanishes on the line's real span, so the lift contains
    the line direction, and pushed off E along that normal it misses E.  A
    line counts as lifted when its lift is stable; a line without a finite
    supporting translate, or with an unstable lift, is skipped.
    """
    rows, exact = E.lineality_exact()
    if not rows.shape[0]:
        return CheckResult(CERTIFIED if exact else VERIFIED,
                           detail="no affine line: every stable line lifts along a "
                                  "covector of int K polar vanishing on it")
    if rows.shape[0] >= 2:
        return CheckResult(INCONCLUSIVE, detail=_empty_family(rows.shape[0]))
    stable_lines, attempts = _stable_lines(E, plan)
    if not stable_lines:
        return CheckResult(INCONCLUSIVE, samples=attempts, detail="no stable lines found")
    lifts = []
    for line in stable_lines:
        try:
            lifts.append(np.conj(complexify(tube_or_support(E, line).normal)))
        except UnsupportedVariant:
            pass
    lifted = int(stability_states(E, np.array(lifts).reshape(-1, E.complex_n()))[0].sum())
    if lifted == 0:
        return CheckResult(INCONCLUSIVE, samples=len(stable_lines),
                           detail=f"no line produced a usable supporting translate "
                                  f"(skipped={len(stable_lines)})")
    return CheckResult(VERIFIED, samples=lifted, detail=f"{lifted} stable lines lifted")


def _stable_lines(E: ConvexSet, plan: SamplingPlan):
    """The first ``plan.lines`` stable complex lines of at most
    10 ``plan.lines`` seeded draws, and the number of draws that took."""
    n = E.complex_n()
    rng = plan.rng("lines")
    stable_lines, attempts = [], 0
    while len(stable_lines) < plan.lines and attempts < 10 * plan.lines:
        # one block holds the draws the scalar loop makes, value for value
        X = rng.standard_normal((min(plan.lines, 10 * plan.lines - attempts), 4, n))
        D = np.array([d / np.linalg.norm(d) for d in X[:, 0] + 1j * X[:, 1]])
        # in C^2 the line through d is the hyperplane (d2, -d1) . z = 0
        stable = stability_states(E, D[:, ::-1] * [1, -1])[0] if n == 2 else [None] * len(X)
        for x, d, ok in zip(X, D, stable):
            attempts += 1
            line = AffineSubspaceC(base=(x[2] + 1j * x[3]) * (plan.window / 4), directions=d[None, :])
            if is_stable(E, line).stable if ok is None else ok:
                stable_lines.append(line)
                if len(stable_lines) == plan.lines:
                    break
    return stable_lines, attempts


def _class_covector(rays, v, sigma):
    """A c with c.v > 0 and sigma Im(c.r) > 0 on every ray r, or None.

    psi(x) = Im(c.x) is a real covector with psi.v = 0, psi.Jv = Re(c.v) and
    c = i conj(psi) as a complex vector.  By Gordan's alternative such a psi
    exists exactly when the LP max t, t <= g.psi for g = Jv and every
    sigma r, psi.v = 0, |psi_j| <= 1, has a positive optimum."""
    m = v.shape[0]
    G = np.vstack([realify(1j * complexify(v)), sigma * rays])
    box = np.hstack([np.eye(m), np.zeros((m, 1))])
    res = solve_lp(np.eye(m + 1)[-1],
                   A_ub=np.vstack([np.hstack([-G, np.ones((G.shape[0], 1))]), box, -box]),
                   b_ub=np.concatenate([np.zeros(G.shape[0]), np.ones(2 * m)]),
                   A_eq=np.append(v, 0.0)[None], b_eq=np.zeros(1), maximize=True)
    if not res.optimal or res.value <= 0:
        return None
    return 1j * np.conj(complexify(res.x[:m]))


def _side_representatives(E, rays, v):
    """(c, side) per component of the stable disjoint family when the
    lineality space is span(v): c a stable unit covector and side the sign of
    Im(beta / c.v) - Im(c.E / c.v) on the hyperplanes {c.z = beta} it
    stands for.

    Write each ray r = alpha v + w, with w Hermitian-orthogonal to v.  The
    shadow c.E is a strip along c.v without rays, so c = conj(v) stands for
    both sides.  With rays it is a half-plane, on the side of
    sign Im(c.r / c.v), one sign for every ray of a stable c, and the
    disjoint hyperplanes of that sign class lie on the other side.  When
    every w is 0, Im(c.r / c.v) = Im(alpha) for every c, so conj(v) stands
    for the one class; otherwise ``_class_covector`` finds a c per sign.
    ``stability_states`` keeps the stable ones."""
    vc = complexify(v)
    R = complexify(rays)
    alpha = R @ np.conj(vc)
    if np.abs(R - alpha[:, None] * vc).max(initial=0.0) <= 1e-12:
        cands = [np.conj(vc)]
    else:
        cands = [c for c in (_class_covector(rays, v, s) for s in (1, -1)) if c is not None]
    cands = [c / np.linalg.norm(c) for c in cands]
    stable = stability_states(E, np.array(cands).reshape(-1, vc.shape[0]))[0]
    cands = [c for c, ok in zip(cands, stable) if ok]
    if not rays.shape[0]:
        return [(c, side) for c in cands for side in (1, -1)]
    return [(c, -np.sign(np.imag((c @ R[0]) / (c @ vc)))) for c in cands]


def _strip_covector(c, v, side):
    """(u, eta): the normal u = side i (c.v) / |c.v| of the shadow c.E on
    ``side``, and the real covector eta of x -> Re(conj(u) c.x).  So eta
    vanishes on v, eta . Jv = side |c.v|, and for the (c, side) of a sign
    class (``_side_representatives``) eta . r < 0 on every ray r."""
    cv = complex(c @ complexify(v))
    normal = side * 1j * cv / abs(cv)
    return normal, realify(np.conj(np.conj(normal) * c))


def _strip_hyperplane(E, c, v, side):
    """The hyperplane {c.z = beta} on ``side`` of the shadow c.E, with
    beta = u (h + 1) for the strip normal u and h the support value of E
    along its covector (``_strip_covector``): it misses E by 1 at that angle."""
    normal, eta = _strip_covector(c, v, side)
    return Hyperplane(c, normal * (E.support(eta).value + 1.0))


def _empty_family(d):  # the reason of a cone with dim L = d >= 2
    return f"lineality-{d} cone: no stable hyperplane misses E"


@_check()
def check_connectivity(E: ConvexSet, plan: SamplingPlan) -> CheckResult:
    """Count the components of the family of stable complex hyperplanes
    missing E from the recession cone K = cone(rays) + span(L)
    (``RecessionCone.generators``), with no sampling.

    For a stable c the shadow c.E is closed with recession cone c.K
    (Rockafellar, Thm 9.1), and the family is open over the stable
    covectors, so each connected set of stable c with connected fibres
    C - c.E carries one component.  Hence: one component on a {0} or pointed
    K (the stable c are C^* int K polar, and c.E holds no line); none when
    dim L >= 2 (c is unstable or c.E = C); with dim L = 1 two sides of a
    strip without rays, else one per realizable sign class
    (``_side_representatives``)."""
    cone = E.recession_cone()
    if cone.generators is None:
        return CheckResult(INCONCLUSIVE, detail="unknown cone: no generators past the vertex cap")
    rays, L = cone.generators
    d = L.shape[0]
    kind = ("zero" if not rays.shape[0] else "pointed") if d == 0 else (
        ("line" if not rays.shape[0] else "line-and-rays") if d == 1 else f"lineality-{d}")
    if d >= 2:
        return CheckResult(REFUTED, detail=_empty_family(d),
                           witnesses=[{"kind": "line-direction", "direction": [float(t) for t in r]}
                                      for r in L])
    reps = [] if d == 0 else _side_representatives(E, rays, L[0])
    count = 1 if d == 0 else len(reps)
    if count == 0:
        return CheckResult(INCONCLUSIVE,
                           detail=f"{kind} cone: no sign class has a stable hyperplane")
    if count == 2:
        planes = [_strip_hyperplane(E, c, L[0], side) for c, side in reps]
        return CheckResult(REFUTED, detail=f"{kind} cone: the stable disjoint hyperplanes "
                                           f"form 2 components",
                           witnesses=[{"kind": "disconnected-components", "components": 2,
                                       "direction": [float(t) for t in L[0]],
                                       "representatives": [H.to_jsonable() for H in planes]}])
    return CheckResult(CERTIFIED, detail=f"{kind} cone: the stable disjoint hyperplanes "
                                         f"form 1 component",
                       witnesses=[{"kind": "cone-components", "cone": kind,
                                   "rays": int(rays.shape[0]), "lineality": d, "components": 1}])


@_check()
def check_chart_compact(E: ConvexSet, plan: SamplingPlan, candidates=None) -> CheckResult:
    """Truncated cones around candidate hyperplanes must cut E compactly: each
    needs an aperture c > 0 with |r''| > c |r'| on every nonzero recession
    direction r, which ``stability_states`` proves from the generators."""
    if not candidates:
        return CheckResult(INCONCLUSIVE, detail="no candidate hyperplanes available")
    candidates = candidates[:3]
    _, apertures = stability_states(E, np.array([H.coeffs for H in candidates]))
    unproven = int(np.sum(~np.isfinite(apertures)))
    if unproven:
        return CheckResult(INCONCLUSIVE, detail=f"{unproven} of {len(candidates)} candidate "
                                                f"hyperplanes have no proven aperture")
    witnesses = [{"kind": "compact-chart", "hyperplane": H.to_jsonable(), "aperture": float(c)}
                 for H, c in zip(candidates, apertures)]
    return CheckResult(CERTIFIED, witnesses=witnesses,
                       detail=f"{len(witnesses)} candidate cones compact at proven apertures")


@_check(needs_complex_plane=False)
def check_normcombo_smoothing(E: ConvexSet, plan: SamplingPlan) -> CheckResult:
    """For epigraphs of irreducible nonnegative norm combinations: the smoothed
    surrogate must stay sandwiched and strongly convex on samples."""
    from .functions import NormCombo
    from .errors import NotIrreducibleFamily
    from .smoothing import smooth_normcombo

    phi = getattr(E, "phi", None)
    if not isinstance(phi, NormCombo):
        return CheckResult(INCONCLUSIVE, detail="set is not the epigraph of a norm combination")
    try:
        eta = 1e-3
        psi = smooth_normcombo(phi, eta)
    except NotIrreducibleFamily as exc:
        return CheckResult(REFUTED,
                           witnesses=[{"kind": "reducible-family", "reason": str(exc)}],
                           detail="norm family is not irreducible")
    rng = plan.rng("normcombo")
    k = phi.k
    total = float(np.sum(phi.coefs))
    xs = rng.uniform(-plan.window, plan.window, size=(512, k))
    lower = phi.value(xs) - eta * total
    upper = phi.value(xs)
    vals = psi.value(xs)
    bad = int(np.sum((vals < lower - 1e-12) | (vals > upper + 1e-12)))
    eigs = []
    for x in xs[:64]:
        eigs.append(float(np.linalg.eigvalsh(psi.hess(x))[0]))
    min_eig = float(min(eigs))
    if bad or min_eig <= 0:
        return CheckResult(REFUTED, samples=len(xs),
                           witnesses=[{"kind": "smoothing-failure",
                                       "sandwich_violations": bad,
                                       "hessian_min_eig": min_eig}],
                           detail="smoothed surrogate violates sandwich or convexity")
    return CheckResult(VERIFIED, samples=len(xs),
                       witnesses=[{"kind": "smoothing-evidence",
                                   "eta": eta, "hessian_min_eig": min_eig}],
                       detail="sandwich and strong convexity verified on samples")


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def certify_oka_complement(E: ConvexSet, plan: Optional[SamplingPlan] = None) -> Certificate:
    """Run every check, group them into ``ROUTES``, and report the best verdict.

    Overall is the verdict of the best verified route: ``certified-exact``
    when every check of some verified route is exact, else
    ``verified-sampled``.  It is refuted only when no route verifies and at
    least one check produced an explicit witness.
    """
    from .functions import NormCombo
    from .specjson import digest

    plan = plan or SamplingPlan()
    checks = [check_no_affine_line(E, plan), check_tangent_slice_halflines(E, plan),
              check_weak_projective(E, plan), check_line_lift(E, plan),
              check_connectivity(E, plan)]
    cand = [Hyperplane.from_jsonable(w["hyperplane"]) for w in checks[2].witnesses
            if w.get("kind") == "stable-hyperplane"][:3]
    checks.append(check_chart_compact(E, plan, candidates=cand))
    if isinstance(getattr(E, "phi", None), NormCombo):
        checks.append(check_normcombo_smoothing(E, plan))

    got = {c.name: c.verdict for c in checks}
    verified = [[got[k] for k in route] for route in ROUTES.values()
                if all(got.get(k) in (CERTIFIED, VERIFIED) for k in route)]
    if verified:
        exact = any(all(v == CERTIFIED for v in route) for route in verified)
        overall = CERTIFIED if exact else VERIFIED
    elif REFUTED in got.values():
        overall = REFUTED
    else:
        overall = INCONCLUSIVE
    payload = {"set": E.to_jsonable(), "plan": plan.to_jsonable()}
    return Certificate(input_digest=digest(payload), checks=checks, overall=overall)


# ---------------------------------------------------------------------------
# witness rechecks (independent brute force)
# ---------------------------------------------------------------------------

def _recession_brute(E: ConvexSet, v, rng=None):
    rng = rng or np.random.default_rng(99)
    v = np.asarray(v, dtype=float)
    try:
        base = E.sample_boundary(rng, 4, window=8.0)
    except UnsupportedVariant:
        base = np.empty((0, E.m))
    if base.shape[0] == 0:
        return False
    for x0 in base:
        for t in (1.0, 4.0, 32.0, 256.0, 1024.0):
            if not E.contains(x0 + t * v, tol=1e-6 * (1 + t)):
                return False
    return True


def recheck_witness(E: ConvexSet, witness: dict) -> bool:
    """Re-verify a refutation witness by direct membership probes only."""
    kind = witness.get("kind")
    if kind == "halfline":
        x0 = np.asarray(witness["point"], dtype=float)
        v = np.asarray(witness["direction"], dtype=float)
        if not E.contains(x0, tol=1e-6):
            return False
        for t in (0.0, 1.0, 2.0, 8.0, 64.0, 512.0, 1024.0):
            if not E.contains(x0 + t * v, tol=1e-6 * (1 + t)):
                return False
        return True
    if kind == "unstable-hyperplane":
        H = Hyperplane.from_jsonable(witness["hyperplane"])
        v = np.asarray(witness["recession_direction"], dtype=float)
        vc = complexify(v)
        if abs(np.dot(H.coeffs, vc)) > 1e-6:
            return False
        return _recession_brute(E, v)
    if kind == "line-direction":
        v = np.asarray(witness["direction"], dtype=float)
        return _recession_brute(E, v) and _recession_brute(E, -v)
    if kind == "disconnected-components":
        return _recheck_sides(E, witness)
    return False


def _recheck_sides(E: ConvexSet, witness: dict) -> bool:
    """Two hyperplanes {c.z = beta} with c.v != 0, for a line direction v of
    E, that miss E on opposite sides.  Since c.x0 + R c.v lies in c.E for
    any x0 in E, the side sign Im((beta - c.x0) / c.v) is continuous and
    nonzero on every disjoint hyperplane with c.v != 0, so the two lie in
    different components.  Each side is read at a boundary point x0, and
    each hyperplane must miss E along its strip normal i (c.v) / |c.v|
    signed by its side, by the scalar support value."""
    v = np.asarray(witness["direction"], dtype=float)
    if not (_recession_brute(E, v) and _recession_brute(E, -v)):
        return False
    x0 = E.sample_boundary(np.random.default_rng(99), 1, window=8.0)
    if x0.shape[0] == 0:
        return False
    z0, vc = complexify(x0[0]), complexify(v)
    sides = []
    for entry in witness["representatives"]:
        H = Hyperplane.from_jsonable(entry)
        cv = complex(H.coeffs @ vc)
        if abs(cv) <= PLANAR_MARGIN:
            return False
        side = np.sign(np.imag((H.offset - H.coeffs @ z0) / cv))
        normal = side * 1j * cv / abs(cv)
        res = E.support(realify(np.conj(np.conj(normal) * H.coeffs)))
        if not (res.finite and res.value < np.real(np.conj(normal) * H.offset)):
            return False
        sides.append(side)
    return sorted(sides) == [-1.0, 1.0]


def recheck_certificate(E: ConvexSet, cert: Certificate):
    """(check name, witness index, ok) for every refutation witness."""
    out = []
    for c in cert.checks:
        if c.verdict != REFUTED:
            continue
        for i, w in enumerate(c.witnesses):
            out.append((c.name, i, recheck_witness(E, w)))
    return out
